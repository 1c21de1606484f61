#!/usr/bin/env python
"""Engine throughput benchmark: serial vs cached vs parallel.

Builds the dependence graph of two workloads —

* **kernels** — every routine of the bundled corpus (the paper's suites),
* **generated** — random nests with deliberately low coefficient/constant
  diversity, modelling the paper's observation that real programs repeat a
  small number of subscript shapes,
* **coupled** — nests dominated by coupled subscript groups (the Delta
  test's constraint-propagation path),

three ways: the plain serial builder, the serial builder behind the
canonical-pair LRU cache, and the process-pool builder with adaptive
dispatch.  All three graph sets are checked for byte-identical verdicts
before any number is reported — verification runs *outside* the timed
regions (it is equal overhead for every configuration and not engine
work).  Each workload also reports a per-phase wall-time breakdown from a
profiled cached pass and p50/p95 per-pair build latency sampled per
routine over the warm cache.  Results land in ``BENCH_engine.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--jobs N]
        [--repeats R] [--out BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.corpus.generator import coupled_group_nest, random_nest
from repro.corpus.loader import default_symbols, load_corpus
from repro.engine import DependenceEngine
from repro.graph.depgraph import build_dependence_graph
from repro.instrument import TestRecorder


def kernel_workload():
    """(name, nodes) per routine of the bundled corpus."""
    work = []
    for suite, programs in load_corpus().items():
        for program in programs:
            for routine in program.routines:
                work.append((f"{suite}/{program.name}/{routine.name}", routine.body))
    return work


def generated_workload(nests: int, shapes: int = 12):
    """Random nests drawn from a small pool of idioms.

    Models the paper's empirical premise: a large program body repeats a
    small number of subscript shapes.  ``shapes`` distinct nests are
    instantiated round-robin until ``nests`` routines exist, so a cold
    corpus-wide pass hits the cache on roughly ``1 - shapes/nests`` of the
    pairs.  ``coupled_fraction`` follows the paper's survey: subscript
    positions overwhelmingly use their own loop index (separable ZIV/SIV
    dominate; coupled groups are rare).
    """
    pool = []
    for seed in range(shapes):
        pool.append(
            random_nest(
                seed,
                depth=2 + seed % 2,
                statements=5,
                arrays=3,
                ndim=2,
                extent=100,
                max_coeff=1,
                max_const=2,
                miv_fraction=0.1,
                coupled_fraction=0.1,
            )
        )
    return [(f"nest{i}", pool[i % shapes]) for i in range(nests)]


def coupled_workload(nests: int):
    """Nests dominated by coupled subscript groups.

    The inverse mix of ``generated_workload``: most subscript positions
    reuse another position's loop index, so almost every reference pair
    lands in the Delta test's constraint-propagation path instead of a
    single separable ZIV/SIV query.  Interleaves the minimal
    ``coupled_group_nest`` family (one group of 2–4 positions per pair,
    varied offsets — Section 5.4's linear-complexity workload) with
    random nests at ``coupled_fraction=0.9``.
    """
    work = []
    for i in range(nests):
        if i % 2 == 0:
            nodes = coupled_group_nest(
                2 + (i // 2) % 3, extent=100, offset=1 + (i // 2) % 3
            )
        else:
            nodes = random_nest(
                1000 + i % 8,
                depth=2 + i % 2,
                statements=5,
                arrays=3,
                ndim=2,
                extent=100,
                max_coeff=1,
                max_const=2,
                miv_fraction=0.1,
                coupled_fraction=0.9,
            )
        work.append((f"coupled{i}", nodes))
    return work


def graph_signature(graph):
    """Hashable summary of every verdict a graph carries."""
    edges = []
    for edge in graph.edges:
        edges.append(
            (
                edge.source.position,
                edge.sink.position,
                edge.dep_type.name,
                tuple(sorted(str(v) for v in edge.vectors)),
                edge.reversed_from_test,
                tuple(sorted(edge.carrier_loops())),
            )
        )
    edges.sort()
    return (graph.tested_pairs, graph.independent_pairs, tuple(edges))


def signatures(graphs):
    return [graph_signature(g) for g in graphs]


def build_serial(work, symbols, recorder):
    return [
        build_dependence_graph(nodes, symbols=symbols, recorder=recorder)
        for _, nodes in work
    ]


def build_engine(work, engine, recorder):
    return [engine.build_graph(nodes, recorder=recorder) for _, nodes in work]


def best_of_interleaved(repeats, runs):
    """Best wall seconds and last value per named configuration.

    ``runs`` maps name → zero-arg callable.  Configurations are timed
    round-robin — every repeat times each once, in order — so a transient
    load spike hits all of them rather than silently skewing one ratio.
    """
    best = {name: float("inf") for name in runs}
    values = {}
    for _ in range(repeats):
        for name, fn in runs.items():
            start = time.perf_counter()
            values[name] = fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best, values


def percentile(samples, q):
    """The q-quantile (0..1) of a sample list by nearest-rank."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def pair_latencies(work, engine):
    """Per-pair build latency (seconds), sampled per routine.

    Each routine's wall time is divided by its candidate-pair count, so a
    sample is the mean pair cost of one routine — the quantity a driver
    scheduling incremental re-analysis cares about.
    """
    samples = []
    for _, nodes in work:
        start = time.perf_counter()
        graph = engine.build_graph(nodes, recorder=TestRecorder())
        elapsed = time.perf_counter() - start
        if graph.tested_pairs:
            samples.append(elapsed / graph.tested_pairs)
    return samples


def bench_workload(name, work, symbols, jobs, repeats):
    pairs = sum(1 for _, nodes in work for _ in iter_pairs(nodes))
    serial_recorder = TestRecorder()

    # Cold: a fresh engine per repeat, so each timed run pays its own
    # misses — the honest single-pass corpus-wide gain.
    cold_stats = {}

    def cold_run():
        engine = DependenceEngine(symbols=symbols)
        graphs = build_engine(work, engine, TestRecorder())
        cold_stats.update(engine.stats.as_dict())
        return graphs

    # Warm: rebuild through an already-populated engine — the steady state
    # of a driver that recomputes dependences after every transformation
    # pass over the same program body.
    warm_engine = DependenceEngine(symbols=symbols)
    build_engine(work, warm_engine, TestRecorder())

    # Parallel: like cold, a fresh engine per repeat pays its own misses;
    # pools (created lazily, only if some build dispatches) are torn down
    # outside the timed region.
    parallel_engines = []

    def parallel_run():
        engine = DependenceEngine(symbols=symbols, jobs=jobs)
        parallel_engines.append(engine)
        return build_engine(work, engine, TestRecorder())

    best, values = best_of_interleaved(
        repeats,
        {
            "serial": lambda: build_serial(work, symbols, serial_recorder),
            "cold": cold_run,
            "warm": lambda: build_engine(work, warm_engine, TestRecorder()),
            "parallel": parallel_run,
        },
    )
    serial_s, cold_s = best["serial"], best["cold"]
    warm_s, parallel_s = best["warm"], best["parallel"]
    latencies = pair_latencies(work, warm_engine)
    parallel_stats = parallel_engines[-1].stats.as_dict()
    for engine in parallel_engines:
        engine.close()

    serial_sigs = signatures(values["serial"])
    for label in ("cold", "warm", "parallel"):
        if serial_sigs != signatures(values[label]):
            raise SystemExit(f"{name}: {label} verdicts diverge from serial")

    # Phase breakdown from one profiled cold pass (untimed: profiling
    # itself perturbs the hot path, so it never contributes to speedups).
    profiled = DependenceEngine(symbols=symbols, profile=True)
    build_engine(work, profiled, TestRecorder())
    phase_profile = profiled.profile.as_dict()

    p50 = percentile(latencies, 0.50)
    p95 = percentile(latencies, 0.95)
    return {
        "routines": len(work),
        "pairs": pairs,
        "serial_s": round(serial_s, 4),
        "cached_cold_s": round(cold_s, 4),
        "cached_cold_speedup": round(serial_s / cold_s, 2) if cold_s else None,
        "cached_warm_s": round(warm_s, 4),
        "cached_warm_speedup": round(serial_s / warm_s, 2) if warm_s else None,
        "pair_latency_warm_p50_us": round(p50 * 1e6, 2) if p50 else None,
        "pair_latency_warm_p95_us": round(p95 * 1e6, 2) if p95 else None,
        "cache": cold_stats,
        "phases": phase_profile,
        "parallel_jobs": jobs,
        "parallel_s": round(parallel_s, 4),
        "parallel_speedup": (
            round(serial_s / parallel_s, 2) if parallel_s else None
        ),
        "auto_serial_builds": parallel_stats.get("auto_serial", 0),
        "verdicts_identical": True,
    }


def iter_pairs(nodes):
    from repro.graph.depgraph import iter_candidate_pairs
    from repro.ir.loop import collect_access_sites

    return iter_candidate_pairs(collect_access_sites(nodes))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small generated corpus, single repeat (CI smoke mode)",
    )
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timed repeats per configuration (best-of); default 3, 1 with --quick",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.quick else 3)
    nests = 40 if args.quick else 150

    symbols = default_symbols()
    workloads = {
        "kernels": kernel_workload(),
        "generated": generated_workload(nests),
        "coupled": coupled_workload(12 if args.quick else 36),
    }
    results = {}
    for name, work in workloads.items():
        print(f"benchmarking {name} ({len(work)} routines) ...", flush=True)
        results[name] = bench_workload(name, work, symbols, args.jobs, repeats)
        r = results[name]
        print(
            f"  serial {r['serial_s']}s  "
            f"cached cold {r['cached_cold_s']}s ({r['cached_cold_speedup']}x, "
            f"{r['cache'].get('hit_rate', 0):.0%} hits)  "
            f"warm {r['cached_warm_s']}s ({r['cached_warm_speedup']}x)  "
            f"pair p50/p95 {r['pair_latency_warm_p50_us']}/"
            f"{r['pair_latency_warm_p95_us']}us  "
            f"parallel[{args.jobs}] {r['parallel_s']}s "
            f"({r['parallel_speedup']}x)",
            flush=True,
        )

    report = {
        "benchmark": "engine",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
