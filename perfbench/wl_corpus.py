"""The ``corpus-cold`` workload: the batch user.

Cold walks of a seeded tree (synthesized files plus copies of the
bundled kernels) with the in-process ``stream_corpus`` driver, one
:mod:`corpus_worker` process and one fresh store per walk, as a batch
user's ``corpus run`` would.  A separate process per walk keeps peak RSS
and module state with the walk, not with this orchestrator.  Latency is
per file (header to header, so a file's checkpoint counts); a file is
*repeat* when every verdict it needed came from the cache and *novel*
when it ran a test.  Every walk covers the whole tree, so every file
weighs the same however many walks a run makes.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import layers
from common import (
    BENCH_DIR,
    SETUP_REPEATS,
    Tally,
    child_env,
    compile_bytecode,
    latency_metrics,
    median,
    read_json,
)


def _worker(work: Path, mode: str, seed: int, trace: bool = False,
            check: bool = False) -> dict:
    out = work / f"{mode}-result.json"
    command = [
        sys.executable, str(BENCH_DIR / "corpus_worker.py"), mode,
        "--work", str(work), "--seed", str(seed),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    if check:
        command.append("--check")
    subprocess.run(
        command, env=child_env(work / "pycache"), check=True, timeout=170,
        stdout=subprocess.DEVNULL,
    )
    result = read_json(out)
    if result is None:
        raise RuntimeError(f"corpus worker {mode} wrote no result")
    return result


def _setup(work: Path, seed: int) -> float:
    """Bytecode and tree; returns the median set-up time in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        compile_bytecode(work / "pycache")
        _worker(work, "setup", seed)
        times.append(time.perf_counter() - start)
    return median(times)


def mean_ms(walks: List[dict]) -> float:
    return 1000.0 * sum(w["seconds"] for w in walks) / len(walks)


def _walk_extra(walks: List[dict]) -> Dict[str, float]:
    files = sum(w["files_total"] for w in walks)
    return {
        "store.bytes": sum(w["store_bytes"] for w in walks) / len(walks),
        "corpus.replayed_frac": sum(w["replayed"] for w in walks) / files,
        "corpus.analyzed_routines": sum(w["analyzed"] for w in walks) / len(walks),
    }


def run(work: Path, seed: int, seconds: float, trace: bool,
        tally: Tally) -> Tuple[Dict[str, float], List[str]]:
    setup_s = _setup(work, seed)
    deadline = time.perf_counter() + seconds
    walks, traced, traces = [], [], []
    digests = set()
    # A traced run alternates untraced and traced walks.
    while time.perf_counter() < deadline or (trace and not traced):
        tracing = trace and len(walks) > len(traced)
        result = _worker(work, "cold", seed, trace=tracing, check=not (walks or tracing))
        walk = result["walk"]
        tally.unit(walk["ok"], "cold walk quarantined or degraded")
        digests.add(walk["digest"])
        for what, ok in result["checks"]:
            tally.unit(ok, what)
        if tracing:
            traced.append(walk)
            traces.append(result["trace"])
            continue
        walks.append(dict(walk, peak_rss_mb=result["peak_rss_mb"], files=result["files"]))
    tally.unit(len(digests) == 1, "cold walks of one tree printed different reports")

    notes = [f"corpus-cold: {len(walks)} untraced walks, {len(traced)} traced"]
    if trace:
        values = layers.process_values(traces, len(traced), _walk_extra(traced))
        return layers.account(values, mean_ms(walks), mean_ms(traced)), notes
    files = [f for w in walks for f in w["files"]]
    values, note = latency_metrics(
        [s for s, _ in files],
        [s for s, tested in files if not tested],
        [s for s, tested in files if tested],
    )
    values["setup_s"] = setup_s
    values["routines_per_s"] = (
        sum(w["analyzed"] for w in walks) / sum(w["seconds"] for w in walks)
    )
    values["peak_rss_mb"] = max(w["peak_rss_mb"] for w in walks)
    return values, notes + [note]
