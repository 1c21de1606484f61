"""The process that does a corpus workload's work (started by run.py).

``setup``   builds the seeded tree.
``cold``    makes one cold in-process ``stream_corpus`` walk with a fresh
            store and engine (run.py starts one process per walk: walks
            in one process share interned state and grow its memory).
            With ``--check`` it then re-runs, untimed, over the store
            the walk filled: the warm re-run must replay every file and
            print the same report byte for byte.

The result (timings, output checks, peak RSS, and with ``--trace`` the
span summary) is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import EXPECTED
from inputs import build_tree, corpus_sections
from spans import Tracer

class FileClock(io.StringIO):
    """Report sink that timestamps each ``== file`` header.

    A header marks the end of the previous file's work (its analysis and
    the checkpoint after it) and the start of the next one's, so the
    intervals are per-file latencies.  ``probe`` is read at each mark:
    the engine's miss count, so a file whose every verdict came from
    the cache can be told from one that ran a test.
    """

    def __init__(self, probe):
        super().__init__()
        self.probe = probe
        self.marks: List[tuple] = []

    def write(self, text: str) -> int:
        if text.startswith("== file "):
            self.marks.append((time.perf_counter(), self.probe()))
        return super().write(text)

    def files(self, end: float, end_probe: int) -> List[tuple]:
        """``(seconds, tested?)`` per file, given the walk's end mark."""
        marks = self.marks + [(end, end_probe)]
        return [
            (b[0] - a[0], b[1] > a[1]) for a, b in zip(marks, marks[1:])
        ]


def walk(tree: Path, store_path: Path, record_files: bool = False) -> dict:
    """One invocation: open the store, stream the tree, close the store."""
    from repro.corpus.loader import default_symbols
    from repro.corpus.stream import StreamingCorpusRunner
    from repro.engine import DependenceEngine, FaultPolicy, VerdictStore

    start = time.perf_counter()
    store = VerdictStore(store_path)
    engine = DependenceEngine(
        symbols=default_symbols(), policy=FaultPolicy.from_env(), store=store
    )
    out = FileClock(lambda: engine.stats.misses)
    runner = StreamingCorpusRunner(tree, engine, out=out, err=io.StringIO())
    try:
        with engine:
            stats = runner.run()
        end = time.perf_counter()
        misses = engine.stats.misses
    finally:
        store.close()
    stop = time.perf_counter()
    return {
        "seconds": stop - start,
        "files": out.files(end, misses) if record_files else [],
        "text": out.getvalue(),
        "routines": stats.routines,
        "analyzed": stats.analyzed,
        "files_total": stats.files,
        "replayed": stats.files_replayed,
        "quarantined": stats.files_quarantined + stats.quarantined,
        "degraded": engine.stats.degraded,
        "store_bytes": store.size(),
    }


def trace_summary(tracer: Tracer, engines: List[object]) -> dict:
    import layers

    return {
        "spans": tracer.spans,
        "events": tracer.events,
        "engines": layers.engine_summary(engines),
    }


def kernel_checks(report: str) -> List[list]:
    """One check per bundled kernel: its section equals the expectation."""
    sections = corpus_sections(report)
    checks = []
    for expected in sorted((EXPECTED / "corpus").glob("*/*.out")):
        rel = f"kernels/{expected.parent.name}/{expected.stem}.f"
        checks.append([f"{rel} matches expected", sections.get(rel) == expected.read_text()])
    return checks


def run_cold(args, result: dict) -> None:
    """One cold walk: a fresh process, a fresh store (as ``corpus run``)."""
    tracer = engines = None
    if args.trace:
        import layers

        tracer = Tracer()
        engines = layers.install(tracer, "corpus")
    store = args.work / f"store-cold-{args.seed}"
    done = walk(args.work / "tree", store, record_files=True)
    result["peak_rss_mb"] = peak_rss_mb()  # of the walk, not the check
    done["ok"] = not (done["quarantined"] or done["degraded"])
    done["digest"] = hashlib.sha256(done["text"].encode()).hexdigest()
    result.update(walk=strip(done), files=done["files"], checks=[])
    if tracer is not None:
        result["trace"] = trace_summary(tracer, engines)
    if args.check:
        warm = walk(args.work / "tree", store)
        result["checks"] = kernel_checks(done["text"]) + [
            ["a warm re-run replays every file",
             warm["replayed"] == warm["files_total"] and warm["analyzed"] == 0],
            ["a warm re-run prints the cold walk's report", warm["text"] == done["text"]],
        ]
    shutil.rmtree(store, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def strip(op: dict) -> dict:
    return {k: v for k, v in op.items() if k not in ("text", "files")}


def run_setup(args, result: dict) -> None:
    tree = args.work / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    build_tree(tree, args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "cold"))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    result: Dict[str, object] = {}
    if args.mode == "setup":
        run_setup(args, result)
    else:
        run_cold(args, result)
    result.setdefault("peak_rss_mb", peak_rss_mb())
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
