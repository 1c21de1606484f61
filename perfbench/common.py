"""Shared plumbing: paths, the pinned child environment, statistics,
failure accounting and the result line.

Everything here is stdlib only and imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
KERNELS = SRC / "repro" / "corpus" / "kernels"
EXPECTED = BENCH_DIR / "expected"

#: Percentiles tried for the tail, highest last.  The ladder stops at
#: p90: every workload takes at least 100 samples, so the tail is p90
#: in every run, however fast the run went (a ladder that climbed with
#: the sample count would report a lower percentile for a slower
#: program, which takes fewer samples in a time-limited run).
TAIL_LADDER = (50.0, 60.0, 70.0, 75.0, 80.0, 85.0, 90.0)
#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Environment variables that change what the program does or how its
#: bytecode is loaded; the children never inherit them.
DROPPED_ENV = (
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONPYCACHEPREFIX",
    "PYTHONPROFILEIMPORTTIME",
    "PYTHONSTARTUP",
    "PYTHONINSPECT",
    "PYTHONOPTIMIZE",
    "REPRO_FAULTS",
    "REPRO_BACKEND",
)


# -- statistics ---------------------------------------------------------------


def nearest_rank(samples: Sequence[float], pct: float) -> Tuple[float, int]:
    """The ``pct`` percentile by nearest rank, and how many samples exceed its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, beyond)`` for the highest percentile on
    :data:`TAIL_LADDER` with at least :data:`TAIL_MIN_BEYOND` samples
    beyond it.  With too few samples for any, the median is returned and
    ``beyond`` says how thin it is."""
    if not samples:
        raise ValueError("no samples")
    best = None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(samples, pct)
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, value, beyond)
    if best is None:
        value, beyond = nearest_rank(samples, 50.0)
        best = (50.0, value, beyond)
    return best


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


# -- failure accounting ----------------------------------------------------------


@dataclass
class Tally:
    """Attempted / failed work units and output checks of one run."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def unit(self, ok: bool, what: str = "") -> bool:
        """Count one work unit (process, file, re-run, request, check)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- processes and environment ----------------------------------------------------


def require_source() -> None:
    """Exit non-zero (printing no result) unless the program's source is here."""
    if not (SRC / "repro" / "__init__.py").is_file() or not KERNELS.is_dir():
        print(
            f"perfbench: no program source under {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)


def child_env(pycache: Path) -> Dict[str, str]:
    """The pinned environment of every process running the program."""
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def compile_bytecode(pycache: Path) -> None:
    """Compile the package into a private bytecode prefix."""
    if pycache.exists():
        shutil.rmtree(pycache)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        env=child_env(pycache),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment_line(seed: int) -> str:
    return (
        f"env: python={sys.version.split()[0]} nproc={nproc()} "
        f"seed={seed} PYTHONDONTWRITEBYTECODE=unset REPRO_FAULTS=unset "
        "REPRO_BACKEND=unset"
    )


def emit(
    tally: Tally,
    metrics: Dict[str, Tuple[float, str]],
    notes: Sequence[str] = (),
) -> None:
    """Print the human-readable lines, then the result object last."""
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(
        f"failures: {tally.failed}/{tally.attempted} "
        f"failed_frac={tally.failed_frac:.4g}"
    )
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)


def read_json(path: Path) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


# -- end-to-end metrics ---------------------------------------------------------

#: End-to-end metrics every workload reports (name -> unit).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "routines_per_s": "1/s",
    "repeat_latency_p50_ms": "ms",
    "novel_latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: How many times set-up runs per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def latency_metrics(
    all_s: Sequence[float], repeat_s: Sequence[float], novel_s: Sequence[float]
) -> Tuple[Dict[str, float], str]:
    """The latency metrics (ms) of one workload, and a note on the tail.

    Every sample of the run counts: none is dropped for being slow, so a
    slowdown confined to part of a run shows too.
    """
    pct, value, beyond = tail(all_s)
    values = {
        "latency_p50_ms": median(all_s) * 1000.0,
        "latency_tail_ms": value * 1000.0,
        "repeat_latency_p50_ms": median(repeat_s) * 1000.0,
        "novel_latency_p50_ms": median(novel_s) * 1000.0,
    }
    note = (
        f"latency_tail_ms is p{pct:g} of {len(all_s)} samples "
        f"({beyond} beyond it); repeat={len(repeat_s)} novel={len(novel_s)}"
    )
    return values, note
