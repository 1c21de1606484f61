"""Which public names the traced runs wrap, and the per-layer metrics.

:func:`install` wraps the names a workload's caller looks up — module
attributes of ``repro.cli``, ``repro.corpus.stream`` and
``repro.service.server``, and methods of the engine, store and graph
classes — in spans named after the layer that owns them.  It also makes
every :class:`~repro.engine.engine.DependenceEngine` built afterwards
collect its :class:`~repro.engine.profile.PhaseProfile`, which splits the
engine's build into prepare / rehydrate / edge-build and the paper's
tests by tier.

:func:`layer_metrics` turns spans, counters and engine summaries into
the ``per_layer`` metrics of ``BENCHMARK.json``; times are self times per
operation (one process, walk, re-run or request).  README.md lists what
each metric covers and which end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from spans import Tracer, call_counts, counter_totals, inclusive_times, self_times

TEST_TIERS = ("ziv", "siv", "rdiv", "miv", "delta")

#: Per-layer metrics: name -> unit.  Every traced run reports all of
#: them; a layer a workload never enters reads 0.
PER_LAYER: Dict[str, str] = {
    "interp.bare_ms": "ms",
    "import.total_ms": "ms",
    "import.repro_ms": "ms",
    "import.stdlib_ms": "ms",
    "import.numpy_ms": "ms",
    "fortran.parse_ms": "ms",
    "fortran.lines_per_s": "1/s",
    "ir.prepass_ms": "ms",
    "engine.build_ms": "ms",
    "engine.prepare_ms": "ms",
    "engine.rehydrate_ms": "ms",
    "engine.edge_build_ms": "ms",
    "engine.lock_wait_ms": "ms",
    "engine.pairs": "count",
    "engine.cache_hit_rate": "ratio",
    "engine.plan_hit_rate": "ratio",
    "tests.test_ms": "ms",
    **{f"tests.{tier}_ms": "ms" for tier in TEST_TIERS},
    **{f"tests.{tier}_calls": "count" for tier in TEST_TIERS},
    "transform.parallel_ms": "ms",
    "corpus.walk_ms": "ms",
    "corpus.read_ms": "ms",
    "corpus.token_ms": "ms",
    "corpus.render_ms": "ms",
    "corpus.replayed_frac": "ratio",
    "corpus.analyzed_routines": "count",
    "store.put_ms": "ms",
    "store.put_report_ms": "ms",
    "store.checkpoint_ms": "ms",
    "store.checkpoints": "count",
    "store.fsyncs": "count",
    "store.fsync_ms": "ms",
    "store.bytes": "bytes",
    "store.open_ms": "ms",
    "store.close_ms": "ms",
    "store.get_ms": "ms",
    "store.get_report_ms": "ms",
    "store.get_report_calls": "count",
    "service.analyze_ms": "ms",
    "service.payload_ms": "ms",
    "service.frontend_ms": "ms",
    "service.shed": "count",
    "service.coalesced": "count",
    "bench.generator_lag_ms": "ms",
    "cli.main_ms": "ms",
    "cli.render_ms": "ms",
    "trace.ops": "count",
    "trace.untraced_op_ms": "ms",
    "trace.traced_op_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.accounted_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Span name -> metric credited with that span's self time.
SPAN_METRIC = {
    "fortran.parse": "fortran.parse_ms",
    "ir.prepass": "ir.prepass_ms",
    "engine.build": "engine.build_ms",
    "engine.serve": "engine.lock_wait_ms",
    "transform.parallel": "transform.parallel_ms",
    "corpus.walk": "corpus.walk_ms",
    "corpus.read": "corpus.read_ms",
    "corpus.token": "corpus.token_ms",
    "corpus.render": "corpus.render_ms",
    "store.put": "store.put_ms",
    "store.put_report": "store.put_report_ms",
    "store.checkpoint": "store.checkpoint_ms",
    "store.fsync": "store.fsync_ms",
    "store.open": "store.open_ms",
    "store.close": "store.close_ms",
    "store.get": "store.get_ms",
    "store.get_report": "store.get_report_ms",
    "service.payload": "service.payload_ms",
    "cli.render": "cli.render_ms",
}

#: Root spans: their self time is the operation's unattributed rest.
ROOT_SPANS = ("cli.main", "corpus.run", "service.analyze")


def _count_lines(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    source = args[0] if args else kwargs.get("source", "")
    tracer.count("fortran.lines", source.count("\n"))


def install(tracer: Tracer, kind: str, engines: Optional[List[object]] = None) -> List[object]:
    """Wrap the public names one workload's caller uses.

    ``kind`` is ``cli``, ``corpus`` or ``service``.  Every engine built
    from now on is appended to ``engines`` (for its profile), which is
    returned.
    """
    import repro.engine.engine as engine_mod
    from repro.engine import store as store_mod

    engines = [] if engines is None else engines
    engine_cls = engine_mod.DependenceEngine
    original_init = engine_cls.__init__

    def profiled_init(self, *args, **kwargs):
        kwargs["profile"] = True
        original_init(self, *args, **kwargs)
        engines.append(self)

    tracer.patch(engine_cls, "__init__", profiled_init)
    tracer.wrap(engine_cls, "build_graph", "engine.build")

    if kind == "cli":
        import repro.cli as cli
        from repro.graph.depgraph import DependenceGraph
        from repro.transform.parallel import LoopParallelism

        tracer.wrap(cli, "main", "cli.main", new_op=True)
        tracer.wrap(cli, "parse_program", "fortran.parse", on_call=_count_lines)
        tracer.wrap(cli, "normalize_program", "ir.prepass")
        tracer.wrap(cli, "find_parallel_loops", "transform.parallel")
        tracer.wrap(DependenceGraph, "__str__", "cli.render")
        tracer.wrap(LoopParallelism, "__str__", "cli.render")
    elif kind == "corpus":
        import repro.corpus.stream as stream

        store_cls = store_mod.VerdictStore
        tracer.wrap(stream.StreamingCorpusRunner, "run", "corpus.run", new_op=True)
        tracer.wrap(stream, "walk_tree", "corpus.walk")
        tracer.wrap(stream.Path, "read_bytes", "corpus.read")
        tracer.wrap(stream, "file_token", "corpus.token")
        tracer.wrap(stream, "routine_token", "corpus.token")
        tracer.wrap(stream, "parse_program", "fortran.parse", on_call=_count_lines)
        tracer.wrap(stream, "substitute_scalars_program", "ir.prepass")
        tracer.wrap(stream, "normalize_program", "ir.prepass")
        tracer.wrap(stream, "find_parallel_loops", "transform.parallel")
        tracer.wrap(stream, "render_routine_report", "corpus.render")
        tracer.wrap(store_cls, "__init__", "store.open")
        tracer.wrap(store_cls, "close", "store.close")
        tracer.wrap(store_cls, "put", "store.put")
        tracer.wrap(store_cls, "put_plan", "store.put")
        tracer.wrap(store_cls, "put_report", "store.put_report")
        tracer.wrap(store_cls, "checkpoint", "store.checkpoint")
        tracer.wrap(store_cls, "get", "store.get")
        tracer.wrap(store_cls, "get_plan", "store.get")
        tracer.wrap(store_cls, "get_report", "store.get_report")
        tracer.wrap(store_mod.os, "fsync", "store.fsync")
    elif kind == "service":
        import repro.service.server as server

        tracer.wrap(
            server.DependenceService, "_analyze_sync", "service.analyze",
            new_op=True,
        )
        tracer.wrap(server, "parse_program", "fortran.parse", on_call=_count_lines)
        tracer.wrap(server, "normalize_program", "ir.prepass")
        tracer.wrap(server, "find_parallel_loops", "transform.parallel")
        for name in ("graph_payload", "parallelism_payload", "analysis_payload"):
            tracer.wrap(server, name, "service.payload")
        tracer.wrap(engine_cls, "serve_build", "engine.serve")
    else:
        raise ValueError(f"unknown layer set {kind!r}")
    return engines


def engine_summary(engines: Sequence[object]) -> dict:
    """Summed profile phases, test tiers and cache counters of engines."""
    phases: Dict[str, List[float]] = {}
    tests: Dict[str, List[float]] = {}
    counts = {"lookups": 0, "hits": 0, "plan_hits": 0, "plan_misses": 0}
    for engine in engines:
        stats = engine.stats
        counts["lookups"] += stats.lookups
        counts["hits"] += stats.hits + stats.store_hits
        counts["plan_hits"] += stats.plan_hits
        counts["plan_misses"] += stats.plan_misses
        profile = stats.profile
        if profile is None:
            continue
        for table, source in ((phases, profile.phases), (tests, profile.tests)):
            for name, (seconds, calls) in source.items():
                slot = table.setdefault(name, [0.0, 0])
                slot[0] += seconds
                slot[1] += calls
    return {"phases": phases, "tests": tests, "counts": counts}


def stats_summary(before: dict, after: dict) -> dict:
    """An :func:`engine_summary` of the work between two ``/stats`` engine
    snapshots (``EngineStats.as_dict`` with its profile)."""
    summary = {"phases": {}, "tests": {}, "counts": {}}
    for key in ("phases", "tests"):
        old = before.get("profile", {}).get(key, {})
        for name, slot in after.get("profile", {}).get(key, {}).items():
            prior = old.get(name, {"s": 0.0, "calls": 0})
            summary[key][name] = [slot["s"] - prior["s"], slot["calls"] - prior["calls"]]

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    hits = delta("hits") + delta("store_hits")
    summary["counts"] = {
        "lookups": hits + delta("misses"),
        "hits": hits,
        "plan_hits": delta("plan_hits"),
        "plan_misses": delta("plan_misses"),
    }
    return summary


def merge_summaries(summaries: Sequence[dict]) -> dict:
    """Fold several :func:`engine_summary` results (one per process)."""
    merged = {"phases": {}, "tests": {}, "counts": {}}
    for summary in summaries:
        for key in ("phases", "tests"):
            for name, (seconds, calls) in summary[key].items():
                slot = merged[key].setdefault(name, [0.0, 0])
                slot[0] += seconds
                slot[1] += calls
        for name, value in summary["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
    return merged


def span_tables(span_lists: Sequence[Sequence[Sequence]]) -> dict:
    """Self time, inclusive time and calls per span name, summed over
    span lists recorded by different processes (ids are per process)."""
    tables = {"self": {}, "inclusive": {}, "calls": {}}
    for spans in span_lists:
        for key, part in (
            ("self", self_times(spans)),
            ("inclusive", inclusive_times(spans)),
            ("calls", call_counts(spans)),
        ):
            table = tables[key]
            for name, value in part.items():
                table[name] = table.get(name, 0) + value
    return tables


def layer_metrics(
    tables: dict,
    counters: Dict[str, float],
    summary: dict,
    ops: int,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metric values, per operation, from one traced phase.

    ``tables`` comes from :func:`span_tables`; ``extra`` supplies values
    measured outside the spans (imports, the generator's lateness, the
    store size, trace accounting).
    """
    values = {name: 0.0 for name in PER_LAYER}
    per_op = 1000.0 / max(ops, 1)
    own, inclusive, calls = tables["self"], tables["inclusive"], tables["calls"]
    for span_name, metric in SPAN_METRIC.items():
        values[metric] = own.get(span_name, 0.0) * per_op

    phases, tests = summary["phases"], summary["tests"]
    test_s = phases.get("test", [0.0, 0])[0]
    values["tests.test_ms"] = test_s * per_op
    # The tests run inside engine.build: its self time is the engine's
    # own work, so the test time is carved out of it.
    values["engine.build_ms"] = max(values["engine.build_ms"] - test_s * per_op, 0.0)
    values["engine.prepare_ms"] = phases.get("prepare", [0.0, 0])[0] * per_op
    values["engine.rehydrate_ms"] = phases.get("rehydrate", [0.0, 0])[0] * per_op
    values["engine.edge_build_ms"] = phases.get("edge-build", [0.0, 0])[0] * per_op
    for tier in TEST_TIERS:
        seconds, count = tests.get(tier, [0.0, 0])
        values[f"tests.{tier}_ms"] = seconds * per_op
        values[f"tests.{tier}_calls"] = count / max(ops, 1)
    counts = summary["counts"]
    lookups = counts.get("lookups", 0)
    values["engine.pairs"] = lookups / max(ops, 1)
    values["engine.cache_hit_rate"] = counts.get("hits", 0) / lookups if lookups else 0.0
    plans = counts.get("plan_hits", 0) + counts.get("plan_misses", 0)
    values["engine.plan_hit_rate"] = counts.get("plan_hits", 0) / plans if plans else 0.0

    parse_s = inclusive.get("fortran.parse", 0.0)
    if parse_s > 0:
        values["fortran.lines_per_s"] = counters.get("fortran.lines", 0) / parse_s
    values["store.checkpoints"] = calls.get("store.checkpoint", 0) / max(ops, 1)
    values["store.fsyncs"] = calls.get("store.fsync", 0) / max(ops, 1)
    values["store.get_report_calls"] = calls.get("store.get_report", 0) / max(ops, 1)
    values["service.analyze_ms"] = inclusive.get("service.analyze", 0.0) * per_op
    values["cli.main_ms"] = inclusive.get("cli.main", 0.0) * per_op
    values["trace.ops"] = float(ops)

    roots = sum(inclusive.get(name, 0.0) for name in ROOT_SPANS)
    if roots > 0:
        values["trace.unattributed_frac"] = (
            sum(own.get(name, 0.0) for name in ROOT_SPANS) / roots
        )
    if extra:
        values.update(extra)
    return values


def layer_self_ms(values: Dict[str, float]) -> float:
    """Summed per-operation self time of every named layer (ms).

    The named layers partition the work under an operation's root span
    (whose own self time is the unattributed rest), so this is what the
    accounting check sets against the untraced operation time.
    """
    names = set(SPAN_METRIC.values()) | {"tests.test_ms"}
    return sum(values.get(name, 0.0) for name in names)


def process_values(
    dumps: Sequence[dict], ops: int, extra: Dict[str, float]
) -> Dict[str, float]:
    """:func:`layer_metrics` over span dumps of one or more processes."""
    tables = span_tables([d["spans"] for d in dumps])
    counters: Dict[str, float] = {}
    for dump in dumps:
        for name, value in counter_totals(dump["events"]).items():
            counters[name] = counters.get(name, 0) + value
    summary = merge_summaries([d["engines"] for d in dumps])
    return layer_metrics(tables, counters, summary, ops, extra)


def account(values: Dict[str, float], untraced_ms: float, traced_ms: float,
            outside_ms: float = 0.0) -> Dict[str, float]:
    """Add the tracing overhead and the accounting check to ``values``.

    ``untraced_ms``/``traced_ms`` are mean operation times without and
    with tracing; ``outside_ms`` is operation time measured outside the
    spans (interpreter start and imports, the HTTP front end).
    """
    values["trace.untraced_op_ms"] = untraced_ms
    values["trace.traced_op_ms"] = traced_ms
    values["trace.overhead_ms"] = traced_ms - untraced_ms
    values["trace.accounted_frac"] = (layer_self_ms(values) + outside_ms) / untraced_ms
    return values
