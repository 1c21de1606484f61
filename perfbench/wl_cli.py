"""The ``cli-cold`` workload: the one-shot user.

One cold ``python -m repro analyze FILE`` process per bundled kernel, one
at a time, with the package's bytecode compiled into a private prefix
during set-up.  A run makes whole passes over every kernel in a seeded
order, at least :data:`MIN_PASSES` and as many as fit in its seconds.
A pass analyzes each file twice in a row: the first process is *novel*,
the second *repeat* (an unchanged file analyzed again).  Cold processes
share nothing, so the two should read alike; a cache that outlived a
process would show as a lower repeat latency.  Latency is per process
(start to exit).

The traced run starts the same processes through ``launch.py`` under
``-X importtime``: imports are attributed by top-level package (startup
modules of a bare interpreter excluded) and the layers by spans.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

import layers
from common import (
    BENCH_DIR,
    EXPECTED,
    SETUP_REPEATS,
    Tally,
    child_env,
    compile_bytecode,
    latency_metrics,
    median,
    read_json,
)
from inputs import kernel_files, kernel_id

#: Passes an untraced run makes at least, each two processes per bundled
#: kernel: two give over 100 samples, so the tail is always p90.
MIN_PASSES = 2
#: Bare-interpreter starts timed for ``interp.bare_ms``.
BARE_STARTS = 5
#: Module names of the benchmark itself (never counted as imports).
BENCH_MODULES = {"spans", "layers", "launch"}


def run_process(command: List[str], env: Dict[str, str], cwd: Path,
                stdout: Path, stderr: Path) -> Tuple[float, int, float]:
    """Run one process to exit: ``(seconds, exit code, peak RSS MiB)``."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=env, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(120.0, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def parse_importtime(stderr: str) -> List[Tuple[str, float]]:
    """``(module, self seconds)`` from ``-X importtime`` output."""
    found = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        found.append((parts[2].strip(), int(parts[0]) / 1e6))
    return found


def import_groups(modules: List[Tuple[str, float]], startup: Set[str]) -> Dict[str, float]:
    """Import self time (ms) by group: repro, numpy, other stdlib."""
    groups = {"repro": 0.0, "numpy": 0.0, "stdlib": 0.0}
    for name, seconds in modules:
        top = name.split(".")[0]
        if name in startup or top in BENCH_MODULES:
            continue
        group = top if top in ("repro", "numpy") else "stdlib"
        groups[group] += seconds * 1000.0
    return groups


def run(work: Path, seed: int, seconds: float, trace: bool,
        tally: Tally) -> Tuple[Dict[str, float], List[str]]:
    files = []
    for path in kernel_files():
        copy = work / "inputs" / path.parent.name / path.name
        copy.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, copy)
        files.append((copy, (EXPECTED / "analyze" / f"{kernel_id(path)}.out").read_text()))
    random.Random(seed).shuffle(files)

    pycache = work / "pycache"
    env = child_env(pycache)
    out, err = work / "stdout", work / "stderr"
    analyze = [sys.executable, "-m", "repro", "analyze"]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        compile_bytecode(pycache)
        _s, code, _rss = run_process(analyze + [str(files[0][0])], env, work, out, err)
        tally.unit(code == 0, "warm-up analyze failed")
        setup_times.append(time.perf_counter() - start)

    deadline = time.perf_counter() + seconds
    plain: List[tuple] = []
    traced: List[float] = []
    traces: List[dict] = []
    imports: List[Dict[str, float]] = []
    routines: Dict[Path, int] = {}
    peak = 0.0
    startup: Set[str] = set()
    passes = 0
    # Whole passes only, so every file weighs the same in every metric.
    # A traced run alternates untraced and traced processes instead of
    # analyzing each file twice.
    while passes < (1 if trace else MIN_PASSES) or time.perf_counter() < deadline:
        for path, expected in files:
            for again in (False, True):
                tracing = trace and again
                if tracing:
                    if not startup:
                        startup = _startup_modules(env, work, out, err)
                    spans = work / "spans.json"
                    command = [sys.executable, "-X", "importtime",
                               str(BENCH_DIR / "launch.py"), "--spans", str(spans),
                               "cli", "--", "analyze", str(path)]
                else:
                    command = analyze + [str(path)]
                elapsed, code, rss = run_process(command, env, work, out, err)
                text = out.read_text()
                tally.unit(code == 0 and text == expected,
                           f"analyze {path.name}: exit {code} or output differs")
                if tracing:
                    traced.append(elapsed)
                    traces.append(read_json(spans))
                    imports.append(import_groups(parse_importtime(err.read_text()), startup))
                    continue
                plain.append((elapsed, again, path))
                routines[path] = text.count("== routine ")
                peak = max(peak, rss)
        passes += 1

    notes = [f"cli-cold: {passes} passes, {len(plain)} untraced processes, "
             f"{len(traced)} traced"]
    if trace:
        bare = []
        for _ in range(BARE_STARTS):
            elapsed, _code, _rss = run_process([sys.executable, "-c", "pass"], env, work, out, err)
            bare.append(elapsed)
        ops = len(traced)
        extra = {
            "interp.bare_ms": 1000.0 * median(bare),
            "import.repro_ms": sum(i["repro"] for i in imports) / ops,
            "import.numpy_ms": sum(i["numpy"] for i in imports) / ops,
            "import.stdlib_ms": sum(i["stdlib"] for i in imports) / ops,
        }
        extra["import.total_ms"] = (
            extra["import.repro_ms"] + extra["import.numpy_ms"] + extra["import.stdlib_ms"]
        )
        values = layers.process_values(traces, ops, extra)
        untraced = [elapsed for elapsed, _n, _p in plain]
        layers.account(
            values,
            1000.0 * sum(untraced) / len(untraced),
            1000.0 * sum(traced) / len(traced),
            outside_ms=values["interp.bare_ms"] + values["import.total_ms"],
        )
        return values, notes
    values, note = latency_metrics(
        [elapsed for elapsed, _n, _p in plain],
        [elapsed for elapsed, again, _p in plain if again],
        [elapsed for elapsed, again, _p in plain if not again],
    )
    values["setup_s"] = median(setup_times)
    values["routines_per_s"] = (
        sum(routines[p] for _e, _n, p in plain) / sum(e for e, _n, _p in plain)
    )
    values["peak_rss_mb"] = peak
    return values, notes + [note]


def _startup_modules(env, work, out, err) -> Set[str]:
    """Modules a bare interpreter imports before running any code."""
    run_process([sys.executable, "-X", "importtime", "-c", "pass"], env, work, out, err)
    return {name for name, _ in parse_importtime(err.read_text())}
