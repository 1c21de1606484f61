"""Command-line interface: ``repro-deps`` / ``python -m repro``.

Subcommands:

* ``analyze FILE`` — parse a Fortran file and print its dependence graph,
  parallel-loop verdicts, and transformation suggestions.
* ``study`` — regenerate the paper's tables over the corpus
  (``--table 1|2|3`` for a single table, default all).
* ``corpus [list]`` — list the corpus suites and programs.
* ``corpus run TREE`` — stream-analyze every Fortran source under a
  directory tree: per-routine content tokens skip unchanged work, a
  killed run resumes where it left off, and malformed files or crashed
  routines quarantine without stopping the walk.
* ``store {info,verify,compact,migrate}`` — inspect, check, compact, or
  upgrade a persistent verdict store created with ``--store``.

``analyze`` and ``study`` accept ``--store PATH`` (write-through
crash-safe verdict persistence; format v2 stores are shard directories
that any number of concurrent processes may share — ``--store-shards``
sets the shard count at creation) and ``--resume`` (continue a killed
``--store`` run from its last checkpoint; previously tested pairs are
served from the store and the output is byte-identical to an
uninterrupted run).  A legacy v1 single-file store opens read-only;
``store migrate`` upgrades it in place.

Exit codes: 0 — success (including degraded runs that assumed some
verdicts after absorbed faults; a fault report is printed); 1 — input
file unreadable; 2 — Fortran syntax error (a diagnostic with line,
column, and caret is printed, never a traceback) or bad command line;
3 — ``--strict`` run aborted on the first engine fault; 4 — verdict
store unusable (unreadable path, failed migrate) or ``store verify``
found unrecoverable corruption.  Shard-scoped store failures (lock
starvation, one corrupt segment) do *not* change the exit code: the
affected shard is quarantined, the run continues memory-only for those
keys, and the fault report says so.

A one-shot ``analyze FILE`` imports only the front end, the IR, the
tests, the cached driver and the renderer: the store, checkpoint log,
process pool, corpus streamer, service and study modules are imported
inside the subcommand or option branch that uses them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro.corpus.loader import (
    available_programs,
    available_suites,
    default_symbols,
)
from repro.engine import DEFAULT_SHARDS
from repro.engine.engine import DependenceEngine
from repro.engine.faults import EngineFaultError, FailureRecord, FaultPolicy
from repro.fortran.errors import FortranSyntaxError
from repro.fortran.parser import parse_program
from repro.instrument import TestRecorder
from repro.ir.normalize import normalize_program
from repro.transform.parallel import find_parallel_loops

if TYPE_CHECKING:
    from repro.engine.checkpoint import CheckpointLog
    from repro.engine.store import VerdictStore

#: Exit code for a Fortran syntax error in the input file.
EXIT_SYNTAX_ERROR = 2

#: Exit code for a ``--strict`` run aborted by an engine fault.
EXIT_STRICT_FAULT = 3

#: Exit code for an unusable verdict store (lock, I/O) or a failed
#: ``store verify``.
EXIT_STORE_ERROR = 4


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-deps",
        description="Practical Dependence Testing (PLDI 1991) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a Fortran file")
    analyze.add_argument("file", type=Path)
    analyze.add_argument(
        "--transforms", action="store_true",
        help="also report peeling/splitting suggestions",
    )
    analyze.add_argument(
        "--counts", action="store_true", help="print per-test application counts"
    )
    analyze.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="test reference pairs over N worker processes (default 1)",
    )
    analyze.add_argument(
        "--no-cache", action="store_true",
        help="disable the canonical-pair verdict cache",
    )
    analyze.add_argument(
        "--profile", action="store_true",
        help="print per-phase and per-test-tier wall timings",
    )
    analyze.add_argument(
        "--strict", action="store_true",
        help="abort on the first engine fault instead of degrading to "
        "assumed-dependence verdicts (exit code 3)",
    )
    analyze.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help="persist verdicts and test plans to a crash-safe store at "
        "PATH (created if missing; reused entries skip re-testing)",
    )
    analyze.add_argument(
        "--resume", action="store_true",
        help="resume a killed --store run from its last checkpoint "
        "(requires --store)",
    )
    analyze.add_argument(
        "--store-shards", type=int, default=None, metavar="N",
        help=f"shard count when creating a new store (default "
        f"{DEFAULT_SHARDS}; an existing store keeps its manifest count)",
    )

    study = sub.add_parser("study", help="regenerate the paper's tables")
    study.add_argument("--table", type=int, choices=(1, 2, 3), default=None)
    study.add_argument("--suite", action="append", default=None)
    study.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="test reference pairs over N worker processes (default 1)",
    )
    study.add_argument(
        "--strict", action="store_true",
        help="abort on the first engine fault instead of skipping the "
        "affected pair or routine (exit code 3)",
    )
    study.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help="persist verdicts and test plans to a crash-safe store at "
        "PATH (created if missing; reused entries skip re-testing)",
    )
    study.add_argument(
        "--resume", action="store_true",
        help="resume a killed --store run from its last checkpoint "
        "(requires --store)",
    )
    study.add_argument(
        "--store-shards", type=int, default=None, metavar="N",
        help=f"shard count when creating a new store (default "
        f"{DEFAULT_SHARDS}; an existing store keeps its manifest count)",
    )

    vector = sub.add_parser("vectorize", help="Allen-Kennedy vectorization")
    vector.add_argument("file", type=Path)

    serve = sub.add_parser(
        "serve", help="run the long-lived dependence-analysis service"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="bind port; 0 picks an ephemeral one and prints it (default 0)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for large builds (default 1)",
    )
    serve.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help="share a persistent verdict store across requests and restarts",
    )
    serve.add_argument(
        "--store-shards", type=int, default=None, metavar="N",
        help=f"shard count when creating a new store (default "
        f"{DEFAULT_SHARDS})",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=4, metavar="N",
        help="concurrent analyses before requests queue (default 4)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=8, metavar="N",
        help="queued requests before new arrivals are shed with 503 "
        "(default 8)",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="deadline applied to requests that carry none (default: "
        "unbounded)",
    )
    serve.add_argument(
        "--breaker-reset", type=float, default=2.0, metavar="SECONDS",
        help="seconds an open circuit breaker waits before probing "
        "recovery (default 2)",
    )

    client = sub.add_parser(
        "client", help="send a Fortran file to a running analysis service"
    )
    client.add_argument("file", type=Path)
    client.add_argument(
        "--url", default="http://127.0.0.1:8077", metavar="URL",
        help="service endpoint (default http://127.0.0.1:8077)",
    )
    client.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request analysis deadline; expiry returns conservative "
        "assumed-dependence results flagged degraded",
    )
    client.add_argument(
        "--transforms", action="store_true",
        help="also report peeling/splitting suggestions",
    )
    client.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="retry attempts for shed (503) or unreachable service "
        "(default 3)",
    )
    client.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw JSON response instead of the analyze-style text",
    )

    corpus = sub.add_parser(
        "corpus", help="list corpus suites or stream-analyze a source tree"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command")
    corpus_sub.add_parser("list", help="list corpus suites and programs")
    corpus_run = corpus_sub.add_parser(
        "run", help="walk a directory tree of Fortran sources, analyzing "
        "each routine once per content version (incremental, resumable)"
    )
    corpus_run.add_argument("tree", type=Path)
    corpus_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="test reference pairs over N worker processes (default 1)",
    )
    corpus_run.add_argument(
        "--strict", action="store_true",
        help="abort on the first engine fault instead of quarantining the "
        "affected routine (exit code 3)",
    )
    corpus_run.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help="persist per-routine reports and verdicts at PATH; re-runs "
        "skip unchanged routines and killed runs resume where they "
        "left off",
    )
    corpus_run.add_argument(
        "--store-shards", type=int, default=None, metavar="N",
        help=f"shard count when creating a new store (default "
        f"{DEFAULT_SHARDS}; an existing store keeps its manifest count)",
    )
    corpus_run.add_argument(
        "--rebuild", action="store_true",
        help="ignore stored reports and re-analyze every routine "
        "(refreshes the store in place)",
    )
    corpus_run.add_argument(
        "--max-rss-mb", type=float, default=None, metavar="MB",
        help="memory watermark: over MB resident, shed in-memory caches "
        "and throttle streaming instead of dying",
    )
    corpus_run.add_argument(
        "--compact", action="store_true",
        help="compact the store after the walk (delta-compresses "
        "near-identical plan/report records per shard)",
    )

    store = sub.add_parser(
        "store", help="inspect or maintain a persistent verdict store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    for name, text in (
        ("info", "print store contents, per-shard breakdown, and "
         "checkpoint summary"),
        ("verify", "check every record, report per-recovery-rule drops; "
         "exit 4 on unrecoverable corruption"),
        ("compact", "rewrite every shard, dropping superseded records"),
    ):
        store_sub.add_parser(name, help=text).add_argument("path", type=Path)
    migrate = store_sub.add_parser(
        "migrate", help="upgrade a legacy v1 store file to a v2 shard "
        "directory in place"
    )
    migrate.add_argument("path", type=Path)
    migrate.add_argument(
        "--shards", type=int, default=DEFAULT_SHARDS, metavar="N",
        help=f"shard count for the upgraded store (default {DEFAULT_SHARDS})",
    )

    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and getattr(args, "store", None) is None:
        parser.error("--resume requires --store PATH")
    if args.command == "analyze":
        return _analyze(args)
    if args.command == "study":
        return _study(args)
    if args.command == "vectorize":
        return _vectorize(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "client":
        return _client(args)
    if args.command == "corpus":
        if getattr(args, "corpus_command", None) == "run":
            return _corpus_run(args)
        return _corpus()
    if args.command == "store":
        return _store(args)
    return 2


def _read_source(path: Path) -> Optional[str]:
    """Read an input file; on failure print a clean error and return None."""
    try:
        return path.read_text()
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"repro-deps: cannot read '{path}': {reason}", file=sys.stderr)
        return None


def _parse_input(path: Path):
    """Parse a Fortran input file: ``(program, exit_code)``.

    ``program`` is None on failure; syntax errors print the front end's
    diagnostic (line, column, snippet, caret) instead of a traceback.
    """
    source = _read_source(path)
    if source is None:
        return None, 1
    try:
        program = normalize_program(parse_program(source, name=path.stem))
    except FortranSyntaxError as exc:
        print(f"repro-deps: {path}:", file=sys.stderr)
        print(exc.diagnostic(), file=sys.stderr)
        return None, EXIT_SYNTAX_ERROR
    return program, 0


def _strict_abort(exc: EngineFaultError) -> int:
    print(f"repro-deps: aborted by --strict: {exc}", file=sys.stderr)
    return EXIT_STRICT_FAULT


def _open_store(
    path: Path, shards: Optional[int] = None
) -> Optional[VerdictStore]:
    """Open (or create) a verdict store; on failure print and return None.

    Unreadable paths and I/O errors surface as one clean diagnostic —
    the caller maps None to :data:`EXIT_STORE_ERROR`.  Corrupt tails and
    schema mismatches do *not* fail: the store recovers them per shard
    on open (printing what it dropped) by design, and lock contention
    quarantines the contended shard rather than failing the run.  A
    legacy v1 file opens read-only with a migration hint.
    """
    from repro.engine.store import StoreError, VerdictStore

    try:
        store = VerdictStore(path, shards=shards)
    except (StoreError, OSError, ValueError) as exc:
        print(f"repro-deps: cannot open store '{path}': {exc}", file=sys.stderr)
        return None
    if store.read_only:
        print(
            f"repro-deps: store '{path}' is a legacy v1 file; serving "
            "reads only (no new verdicts persisted). Run "
            f"`repro-deps store migrate {path}` to upgrade it.",
            file=sys.stderr,
        )
    return store


def _attach_checkpoint(
    store: VerdictStore, token: str, label: str, resume: bool
) -> CheckpointLog:
    """Build the run's checkpoint log; print the resume banner if asked."""
    from repro.engine.checkpoint import CheckpointLog

    log = CheckpointLog(store, token)
    if resume:
        print(log.resume_summary())
    log.begin_run(label)
    return log


def _store(args: argparse.Namespace) -> int:
    """``repro-deps store {info,verify,compact,migrate}`` dispatcher."""
    from repro.engine.store import StoreError, VerdictStore, migrate_store

    path: Path = args.path
    if args.store_command == "migrate":
        try:
            verdicts, plans = migrate_store(path, shards=args.shards)
        except (StoreError, OSError) as exc:
            print(f"repro-deps: cannot migrate '{path}': {exc}", file=sys.stderr)
            return EXIT_STORE_ERROR
        print(
            f"migrated {path} to v2 ({args.shards} shard(s), "
            f"{verdicts} verdict(s), {plans} plan(s))"
        )
        return 0
    if args.store_command == "verify":
        report = VerdictStore.scan(path)
        for line in report.lines():
            print(line)
        print(report.rule_report())
        return 0 if report.clean else EXIT_STORE_ERROR
    if args.store_command == "info":
        report = VerdictStore.scan(path)
        if report.size == 0 and report.problems:
            print(f"repro-deps: cannot read store '{path}'", file=sys.stderr)
            return EXIT_STORE_ERROR
        for line in report.lines():
            print(line)
        print(report.compaction_line())
        store = _open_store(path)
        if store is None:
            return EXIT_STORE_ERROR
        try:
            runs = store.runs()
            if runs:
                token, label = next(
                    (
                        (t, lbl)
                        for t, lbl in reversed(runs)
                        if not lbl.startswith("routine:")
                    ),
                    runs[-1],
                )
                print(f"  last run: {label} (token {token})")
                routines = len({
                    lbl
                    for t, lbl in runs
                    if t == token and lbl.startswith("routine:")
                })
                if routines:
                    print(f"  routines checkpointed: {routines}")
        finally:
            store.close()
        return 0
    # compact
    store = _open_store(path)
    if store is None:
        return EXIT_STORE_ERROR
    try:
        result = store.compact()
    except (StoreError, OSError) as exc:
        store.close()
        print(f"repro-deps: compaction failed for '{path}': {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    store.close()
    before, after = result
    print(
        f"compacted {path}: {before} -> {after} bytes "
        f"({len(store)} verdict(s), {store.plan_count} plan(s), "
        f"{store.report_count} report(s) kept)"
    )
    for label, shard_before, shard_after in getattr(result, "shards", []):
        print(
            f"  {label}: {shard_before} -> {shard_after} bytes "
            f"({shard_before - shard_after} reclaimed)"
        )
    return 0


def _vectorize(args: argparse.Namespace) -> int:
    from repro.transform.vectorize import vectorize

    program, code = _parse_input(args.file)
    if program is None:
        return code
    symbols = default_symbols()
    for routine in program.routines:
        print(f"== routine {routine.name} ==")
        report = vectorize(routine.body, symbols=symbols)
        for line in report.lines:
            print(line)
        print()
    return 0


def _analyze(args: argparse.Namespace) -> int:
    from repro.engine import faultinject
    from repro.engine.faults import describe_error

    source = _read_source(args.file)
    if source is None:
        return 1
    try:
        program = normalize_program(parse_program(source, name=args.file.stem))
    except FortranSyntaxError as exc:
        print(f"repro-deps: {args.file}:", file=sys.stderr)
        print(exc.diagnostic(), file=sys.stderr)
        return EXIT_SYNTAX_ERROR
    store = checkpoint = None
    if args.store is not None:
        if args.no_cache:
            print(
                "repro-deps: --store requires the verdict cache "
                "(drop --no-cache)",
                file=sys.stderr,
            )
            return EXIT_STORE_ERROR
        store = _open_store(args.store, args.store_shards)
        if store is None:
            return EXIT_STORE_ERROR
        from repro.engine.checkpoint import run_token

        checkpoint = _attach_checkpoint(
            store,
            run_token("analyze", source, str(args.jobs)),
            f"analyze:{args.file.name}",
            args.resume,
        )
    symbols = default_symbols()
    engine = DependenceEngine(
        symbols=symbols,
        jobs=max(args.jobs, 1),
        use_cache=not args.no_cache,
        profile=args.profile,
        policy=FaultPolicy.from_env(strict=args.strict),
        store=store,
        checkpoint=checkpoint,
    )
    recorder = TestRecorder()
    try:
        with engine:
            for routine in program.routines:
                print(f"== routine {routine.name} ==")
                try:
                    faultinject.on_routine(routine.name)
                    graph = engine.build_graph(routine.body, recorder=recorder)
                except EngineFaultError as exc:
                    return _strict_abort(exc)
                except Exception as exc:
                    if args.strict:
                        raise
                    engine.stats.record_failure(
                        FailureRecord(
                            "routine", f"{args.file.stem}/{routine.name}",
                            describe_error(exc),
                        )
                    )
                    print(f"routine skipped after failure: {describe_error(exc)}")
                    print()
                    continue
                print(graph)
                for verdict in find_parallel_loops(routine.body, symbols, graph):
                    print(verdict)
                if args.transforms:
                    from repro.transform.peel import find_peeling_opportunities
                    from repro.transform.split import (
                        find_splitting_opportunities,
                    )

                    for suggestion in find_peeling_opportunities(
                        routine.body, symbols, graph
                    ):
                        print(suggestion)
                    for suggestion in find_splitting_opportunities(
                        routine.body, symbols, graph
                    ):
                        print(suggestion)
                print()
                if checkpoint is not None and engine.store is not None:
                    try:
                        checkpoint.mark_routine(routine.name)
                    except Exception as exc:
                        engine.driver._degrade_store(exc)
                    else:
                        engine.driver.drain_store_events()
    finally:
        if store is not None:
            store.close()
            if engine.driver is not None:
                engine.driver.drain_store_events()
    if args.counts:
        print("test applications:")
        print(recorder)
        if not args.no_cache:
            print(engine.stats)
    if args.profile and engine.profile is not None:
        print(engine.profile)
    if engine.stats.degraded:
        print(engine.stats.failure_report())
    return 0


def _study(args: argparse.Namespace) -> int:
    from repro.study.report import full_report
    from repro.study.tables import render_table1, render_table2, render_table3

    jobs = max(args.jobs, 1)
    if args.table == 1:
        print(render_table1())
        return 0
    if args.table == 2:
        print(render_table2())
        return 0
    store = checkpoint = None
    if args.store is not None:
        store = _open_store(args.store, args.store_shards)
        if store is None:
            return EXIT_STORE_ERROR
        from repro.engine.checkpoint import run_token

        suites = sorted(args.suite) if args.suite else ["<all>"]
        checkpoint = _attach_checkpoint(
            store,
            run_token("study", args.table, *suites, str(jobs)),
            f"study:table{args.table or 'all'}",
            args.resume,
        )
    engine = DependenceEngine(
        symbols=default_symbols(),
        jobs=jobs,
        policy=FaultPolicy.from_env(strict=args.strict),
        store=store,
        checkpoint=checkpoint,
    )
    try:
        with engine:
            if args.table == 3:
                from repro.study.tables import table3

                print(render_table3(table3(args.suite, jobs=jobs, engine=engine)))
                if engine.stats.degraded:
                    print()
                    print(engine.stats.failure_report())
            else:
                print(full_report(args.suite, jobs=jobs, engine=engine))
    except EngineFaultError as exc:
        return _strict_abort(exc)
    finally:
        if store is not None:
            store.close()
            if engine.driver is not None:
                engine.driver.drain_store_events()
    return 0


def _serve(args: argparse.Namespace) -> int:
    """Run the analysis service until SIGTERM/SIGINT drains it."""
    from repro.engine.store import StoreError
    from repro.service.server import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=max(args.jobs, 1),
        store_path=args.store,
        store_shards=args.store_shards,
        max_in_flight=args.max_in_flight,
        queue_depth=args.queue_depth,
        default_deadline_ms=args.default_deadline_ms,
        breaker_reset_timeout=args.breaker_reset,
        policy=FaultPolicy.from_env(),
    )

    def banner(service) -> None:
        print(
            f"repro-deps: serving on http://{config.host}:{service.port} "
            f"(jobs={config.jobs}, "
            f"store={config.store_path or 'none'})",
            flush=True,
        )

    try:
        return run_service(config, banner=banner)
    except (StoreError, OSError, ValueError) as exc:
        print(f"repro-deps: cannot start service: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR


def _client(args: argparse.Namespace) -> int:
    """Send one file to a running service; mirrors ``analyze`` output.

    Exit codes follow ``analyze``: 0 for ok *and* degraded answers (the
    degradation report is printed), 1 for an unreadable input file, 2
    for a syntax error (the server's diagnostic is printed), 4 when the
    service is unreachable or still shedding after every retry.
    """
    import json as _json

    from repro.service.client import (
        ServiceClient,
        ServiceError,
        ServiceUnavailable,
    )
    from repro.service.protocol import render_analysis

    source = _read_source(args.file)
    if source is None:
        return 1
    client = ServiceClient(args.url, retries=max(args.retries, 0))
    try:
        payload = client.analyze(
            source,
            name=args.file.stem,
            deadline_ms=args.deadline_ms,
            transforms=args.transforms,
        )
    except ServiceUnavailable as exc:
        print(f"repro-deps: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    except ServiceError as exc:
        if exc.status == 422:
            print(f"repro-deps: {args.file}:", file=sys.stderr)
            print(
                exc.payload.get("detail", str(exc)), file=sys.stderr
            )
            return EXIT_SYNTAX_ERROR
        print(f"repro-deps: service error: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    if args.as_json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_analysis(payload))
    return 0


def _corpus() -> int:
    for suite in available_suites():
        programs = ", ".join(available_programs(suite))
        print(f"{suite}: {programs}")
    return 0


def _corpus_run(args: argparse.Namespace) -> int:
    """``repro-deps corpus run <tree>`` — the streaming corpus driver.

    Exit codes follow ``analyze``: 0 for complete *and* degraded walks
    (quarantines and pressure events print as a fault report), 1 for an
    unusable tree, 3 on a --strict abort, 4 for an unusable store.
    """
    from repro.corpus.stream import StreamingCorpusRunner
    from repro.engine.store import StoreError

    tree: Path = args.tree
    if not tree.is_dir():
        print(f"repro-deps: '{tree}' is not a directory", file=sys.stderr)
        return 1
    store = None
    if args.store is not None:
        store = _open_store(args.store, args.store_shards)
        if store is None:
            return EXIT_STORE_ERROR
    engine = DependenceEngine(
        symbols=default_symbols(),
        jobs=max(args.jobs, 1),
        policy=FaultPolicy.from_env(strict=args.strict),
        store=store,
    )
    runner = StreamingCorpusRunner(
        tree,
        engine,
        rebuild=args.rebuild,
        max_rss_mb=args.max_rss_mb,
    )
    try:
        with engine:
            stats = runner.run()
    except EngineFaultError as exc:
        if store is not None:
            store.close()
        return _strict_abort(exc)
    except Exception as exc:
        if not args.strict:
            raise
        from repro.engine.faults import describe_error

        if store is not None:
            store.close()
        print(
            f"repro-deps: aborted by --strict: {describe_error(exc)}",
            file=sys.stderr,
        )
        return EXIT_STRICT_FAULT
    finally:
        if store is not None and engine.driver is not None:
            engine.driver.drain_store_events()
    for line in stats.summary_lines():
        print(line, file=sys.stderr)
    print(engine.stats.provenance_report(), file=sys.stderr)
    if engine.stats.degraded:
        print(engine.stats.failure_report(), file=sys.stderr)
    if store is not None:
        live = engine.store is not None  # None when the run degraded
        if args.compact and live:
            try:
                result = store.compact()
            except (StoreError, OSError) as exc:
                print(
                    f"repro-deps: compaction failed for '{args.store}': {exc}",
                    file=sys.stderr,
                )
                store.close()
                return EXIT_STORE_ERROR
            print(
                f"compacted {args.store}: {result.before} -> "
                f"{result.after} bytes ({result.reclaimed} reclaimed)",
                file=sys.stderr,
            )
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
