"""Parallel dependence-graph construction over a process pool.

The candidate-pair population of a statement list is embarrassingly
parallel: every pair's test is independent.  This builder

1. prepares every pair in the parent (context + canonical key — cheap),
2. deduplicates by canonical key and ships only one representative per
   *missing* key to the pool, in chunks of ``(site_index, site_index)``
   tuples bundled with the statement list they index into,
3. adopts the returned canonical :class:`~repro.engine.canonical.CacheEntry`
   objects into the shared :class:`~repro.engine.cache.CachedDriver`, and
4. resolves every pair through the now-hot cache, building edges in the
   parent so they reference the parent's own loop and site objects.

Dispatch is *adaptive*: every work item gets a cost estimate from its
classification mix (ZIV positions are near-free, coupled groups cost an
order of magnitude more), and the builder

* stays serial outright when the candidate-pair population or the
  predicted work is too small to amortize pool IPC — the paper's kernels
  average ~8 pairs per routine, for which a pool is pure overhead — and
* otherwise sizes chunks to ``total_work / (jobs * OVERSUBSCRIPTION)``
  cost units rather than a fixed pair count, so a handful of expensive
  Delta groups cannot serialize behind one worker.

Because workers return only canonical entries (never contexts or loops),
nothing in the assembled graph depends on worker-process object identity;
per-pair recorder deltas are merged with
:meth:`~repro.instrument.TestRecorder.merge`, keeping Table 3 counters
byte-identical to a serial run.

A caller-supplied pool (see :func:`make_pool`) is reused across builds —
:class:`~repro.engine.engine.DependenceEngine` keeps one for its
lifetime, so a corpus-wide study pays the pool startup cost once, not
once per routine.  Passing ``pool_factory`` instead defers even pool
*creation* until a build actually needs workers.
"""

from __future__ import annotations

import signal
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.classify.pairs import PairContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.checkpoint import CheckpointLog
from repro.core.driver import assumed_dependence_result, test_dependence
from repro.delta.delta import DEFAULT_OPTIONS, DeltaOptions
from repro.engine import faultinject
from repro.engine.cache import CachedDriver
from repro.engine.canonical import (
    CacheEntry,
    CanonicalKey,
    canonicalize_result,
    rehydrate_result,
    rename_map,
)
from repro.engine.faults import (
    FailureRecord,
    FaultPolicy,
    PairTestError,
    StepBudget,
    describe_error,
    failure_kind,
)
from repro.engine.supervisor import PoolSupervisor
from repro.graph.depgraph import (
    DependenceEdge,
    DependenceGraph,
    edges_from_result,
    iter_candidate_pairs,
)
from repro.instrument import TestRecorder
from repro.ir.context import SymbolEnv
from repro.ir.loop import Node, collect_access_sites

#: Builds with fewer candidate pairs than this never touch the pool: at
#: kernel-corpus pair counts the pool round-trip alone exceeds the whole
#: serial build.
AUTO_SERIAL_PAIR_THRESHOLD = 32

#: Minimum predicted work (cost units, see :func:`estimate_pair_cost`)
#: worth shipping to workers.  One unit is roughly one cheap single-
#: subscript test (~0.05 ms); the first dispatching build also pays pool
#: startup (~100 ms for two workers), so the break-even sits around a
#: couple of thousand units — anything below is faster in-process.
MIN_PARALLEL_COST = 2048

#: Chunks per worker the adaptive splitter aims for: enough slack to
#: load-balance uneven test costs without drowning in per-chunk IPC.
OVERSUBSCRIPTION = 4

# Per-worker configuration (Delta options, per-pair step budget),
# installed once by the pool initializer.
_WORKER: dict = {"delta_options": DEFAULT_OPTIONS, "pair_budget": None}


def _init_worker(
    delta_options: DeltaOptions, pair_budget: Optional[int] = None
) -> None:
    _WORKER["delta_options"] = delta_options
    _WORKER["pair_budget"] = pair_budget
    # Chunk-scoped fault injection (crash/hang) only fires in workers, so
    # the supervisor's parent-side serial recovery computes real results.
    faultinject.IN_WORKER = True
    # Fork-spawned workers inherit the parent's signal machinery.  When
    # the parent is the analysis service, that machinery is asyncio's
    # add_signal_handler: a Python-level handler writing into a wakeup
    # pipe *shared across the fork*.  A worker terminated by the pool
    # supervisor would then relay its own SIGTERM into the parent's
    # event loop — and gracefully shut the whole service down.  Workers
    # must die plainly: default disposition, no wakeup fd.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass


def make_pool(
    jobs: int,
    delta_options: DeltaOptions = DEFAULT_OPTIONS,
    pair_budget: Optional[int] = None,
) -> ProcessPoolExecutor:
    """A worker pool configured for :func:`build_dependence_graph_parallel`."""
    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_worker,
        initargs=(delta_options, pair_budget),
    )


def estimate_pair_cost(context: PairContext) -> int:
    """Predicted test cost of one pair, in arbitrary *cost units*.

    Derived from the classification mix without running the classifier:
    per subscript position, the number of distinct base indices decides
    the tier (ZIV ≈ 1, SIV ≈ 2, MIV ≈ 8), and any index shared between
    positions predicts a coupled group — a Delta test costs an order of
    magnitude more than the single-subscript tests.
    """
    cost = 1
    seen: set = set()
    coupled = False
    for pair in context.subscripts:
        bases = context.subscript_bases(pair)
        n = len(bases)
        if n == 0:
            cost += 1
        elif n == 1:
            cost += 2
        else:
            cost += 8
        if not coupled and not seen.isdisjoint(bases):
            coupled = True
        seen |= bases
    if coupled:
        cost += 20
    return cost


def _cost_chunks(
    specs: List[Tuple[int, int]], costs: List[int], jobs: int
) -> List[List[Tuple[int, int]]]:
    """Split work into chunks of roughly equal *cost* (not count).

    Targets ``total_cost / (jobs * OVERSUBSCRIPTION)`` per chunk so the
    pool gets enough chunks to load-balance while each stays large enough
    to amortize dispatch.
    """
    total = sum(costs)
    target = max(total // (jobs * OVERSUBSCRIPTION), 1)
    chunks: List[List[Tuple[int, int]]] = []
    current: List[Tuple[int, int]] = []
    acc = 0
    for spec, cost in zip(specs, costs):
        current.append(spec)
        acc += cost
        if acc >= target:
            chunks.append(current)
            current = []
            acc = 0
    if current:
        chunks.append(current)
    return chunks


#: One dispatch task: ``(chunk_seq, nodes, symbols, site-index pairs)``.
ChunkTask = Tuple[int, Sequence[Node], Optional[SymbolEnv], List[Tuple[int, int]]]


def run_chunk(
    task: ChunkTask,
    delta_options: DeltaOptions,
    pair_budget: Optional[int],
) -> List[CacheEntry]:
    """Test a chunk of pairs (by site index); return canonical entries.

    The statement list rides along with each chunk, so one long-lived pool
    serves builds over any number of different routines.  Sites are
    re-collected locally; ``collect_access_sites`` is deterministic, so
    site indices agree with the parent's.

    Every pair is individually guarded: an in-test exception (or an
    exhausted step budget) yields a conservative assumed-dependence entry
    with an *empty* recorder delta instead of killing the chunk, so one
    pathological pair cannot take its chunk-mates down with it.  Runs in
    pool workers and — as the supervisor's recovery path — in the parent.
    """
    seq, nodes, symbols, chunk = task
    faultinject.on_chunk(seq)
    sites = collect_access_sites(nodes)
    entries: List[CacheEntry] = []
    for src_index, sink_index in chunk:
        src, sink = sites[src_index], sites[sink_index]
        context = PairContext(src, sink, symbols)
        recorder = TestRecorder()
        try:
            faultinject.on_pair(src.ref.array)
            result = test_dependence(
                src,
                sink,
                symbols=context.symbols,
                recorder=recorder,
                delta_options=delta_options,
                context=context,
                budget=StepBudget(pair_budget) if pair_budget else None,
            )
        except Exception as exc:
            result = assumed_dependence_result(context, describe_error(exc))
            recorder = TestRecorder()  # discard partial counters: parity
        entries.append(canonicalize_result(result, rename_map(context), recorder))
    return entries


def _test_chunk(task: ChunkTask) -> List[CacheEntry]:
    """Pool entry point: :func:`run_chunk` under the worker's config."""
    return run_chunk(task, _WORKER["delta_options"], _WORKER["pair_budget"])


def _chunked(items: List, size: int) -> List[List]:
    return [items[start : start + size] for start in range(0, len(items), size)]


def build_dependence_graph_parallel(
    nodes: Sequence[Node],
    symbols: Optional[SymbolEnv] = None,
    recorder: Optional[TestRecorder] = None,
    include_input: bool = False,
    jobs: int = 2,
    driver: Optional[CachedDriver] = None,
    chunksize: Optional[int] = None,
    dedup: bool = True,
    pool: Optional[ProcessPoolExecutor] = None,
    pool_factory: Optional[Callable[[], ProcessPoolExecutor]] = None,
    pool_replaced: Optional[Callable[[Optional[ProcessPoolExecutor]], None]] = None,
    checkpoint: Optional["CheckpointLog"] = None,
) -> DependenceGraph:
    """Test all candidate pairs of a statement list over a process pool.

    ``driver`` supplies (and outlives) the verdict cache, so repeated
    calls — e.g. one per routine of a corpus — keep accumulating shared
    entries; omitted, a private one is created for the call.  ``pool`` is
    an executor from :func:`make_pool` to reuse across calls;
    ``pool_factory`` lazily creates (and lets the caller retain) one only
    if this build actually dispatches; with neither, a fresh pool is spun
    up and torn down.  ``chunksize`` fixes the pairs-per-task count; the
    default (None) sizes chunks adaptively by predicted cost.  ``dedup``
    mirrors the engine's cache switch: when False every pair is shipped to
    the workers and rehydrated individually, measuring pure fan-out.

    Dispatch runs under a :class:`~repro.engine.supervisor.PoolSupervisor`
    governed by the driver's :class:`~repro.engine.faults.FaultPolicy`:
    worker crashes and chunk timeouts respawn the pool (bounded) and
    re-run suspect chunks serially in the parent, so the build always
    completes.  Because recovery can replace the pool, callers that reuse
    one across builds should pass ``pool_replaced`` — it is invoked with
    the surviving executor (possibly None) whenever it differs from the
    one passed in.

    When the driver carries a persistent store, each chunk's canonical
    entries are seeded (and written through) *as the chunk completes*,
    and ``checkpoint`` (a :class:`~repro.engine.checkpoint.CheckpointLog`)
    records a durable completed-chunk marker — so a run killed mid-build
    resumes from every finished chunk, not from the last routine
    boundary.
    """
    if driver is None:
        driver = CachedDriver(symbols)
    policy = driver.policy
    profile = driver.stats.profile
    start = perf_counter() if profile is not None else 0.0
    sites = collect_access_sites(nodes)
    pairs = list(iter_candidate_pairs(sites, include_input))
    prepared = []
    for first, second in pairs:
        context, mapping, key = driver.prepare(first, second, symbols)
        prepared.append((first, second, context, mapping, key))
    if profile is not None:
        profile.add_phase("prepare", perf_counter() - start, len(prepared))

    edges: List[DependenceEdge] = []
    tested = 0
    independent = 0

    if jobs <= 1 or not prepared:
        return _serve_serial(sites, prepared, driver, recorder, dedup)

    if dedup:
        # One representative (site-index pair) per canonical key not
        # already resident in the cache.
        missing: Dict[CanonicalKey, Tuple[Tuple[int, int], PairContext]] = {}
        for first, second, context, _, key in prepared:
            if key not in missing and not driver.contains(key):
                missing[key] = ((first.position, second.position), context)
        work = [(key, spec) for key, (spec, _) in missing.items()]
        work_contexts = [context for _, context in missing.values()]
    else:
        work = [
            (key, (first.position, second.position))
            for first, second, _, _, key in prepared
        ]
        work_contexts = [context for _, _, context, _, _ in prepared]

    if not work:
        # Every key already resident: nothing to ship.
        return _serve_serial(sites, prepared, driver, recorder, dedup)

    # Adaptive serial fallback: when the whole build (or the part of it
    # not already cached) is predicted to cost less than pool IPC, run it
    # in-process.  Tiny routines therefore never pay pool overhead even
    # under ``--jobs``.  An explicit ``chunksize`` opts out of adaptivity
    # (manual control: always dispatch, fixed-size chunks).
    costs: List[int] = []
    if chunksize is None:
        if len(pairs) < AUTO_SERIAL_PAIR_THRESHOLD:
            driver.stats.auto_serial += 1
            return _serve_serial(sites, prepared, driver, recorder, dedup)
        costs = [estimate_pair_cost(context) for context in work_contexts]
        if sum(costs) < MIN_PARALLEL_COST:
            driver.stats.auto_serial += 1
            return _serve_serial(sites, prepared, driver, recorder, dedup)

    entries_by_slot: List[Optional[CacheEntry]] = [None] * len(work)
    driver.stats.dispatched += len(work)
    specs = [spec for _, spec in work]
    if chunksize is not None:
        spec_chunks = _chunked(specs, chunksize)
    else:
        spec_chunks = _cost_chunks(specs, costs, jobs)
    tasks: List[ChunkTask] = [
        (seq, nodes, symbols, chunk) for seq, chunk in enumerate(spec_chunks)
    ]
    own_pool = False
    executor = pool
    if executor is None and pool_factory is not None:
        executor = pool_factory()
    if executor is None:
        executor = make_pool(jobs, driver.delta_options, policy.pair_budget)
        own_pool = True

    def _serial_runner(task: ChunkTask) -> List[CacheEntry]:
        return run_chunk(task, driver.delta_options, policy.pair_budget)

    supervisor = PoolSupervisor(
        executor,
        spawn=lambda: make_pool(jobs, driver.delta_options, policy.pair_budget),
        policy=policy,
        stats=driver.stats,
    )

    on_result = None
    if dedup and (driver.persist is not None or checkpoint is not None):
        # Checkpointing seam: adopt (and persist) each chunk's entries the
        # moment it completes, then make the progress durable with a chunk
        # marker.  Entries precede their marker in the append order, so a
        # marker never claims verdicts a crash could have lost.
        key_chunks: List[List[CanonicalKey]] = []
        base = 0
        keys = [key for key, _ in work]
        for chunk in spec_chunks:
            key_chunks.append(keys[base : base + len(chunk)])
            base += len(chunk)

        def on_result(seq: int, entries: List[CacheEntry]) -> None:
            for key, entry in zip(key_chunks[seq], entries):
                if not entry.assumed:
                    driver.seed(key, entry)
            if checkpoint is not None and driver.persist is not None:
                try:
                    checkpoint.mark_chunk(seq)
                except Exception as exc:
                    driver._degrade_store(exc)
                else:
                    # Shard-scoped failures during the flush quarantine
                    # the shard instead of raising; surface them now.
                    driver.drain_store_events()

    start = perf_counter() if profile is not None else 0.0
    try:
        chunk_results = supervisor.run(
            tasks, _test_chunk, _serial_runner, on_result=on_result
        )
    finally:
        if own_pool:
            supervisor.shutdown()
        elif supervisor.executor is not executor and pool_replaced is not None:
            # Recovery replaced (or consumed) the caller's pool; hand the
            # survivor back so the caller does not reuse a dead executor.
            pool_replaced(supervisor.executor)
    slot = 0
    for entries in chunk_results:
        for entry in entries:
            entries_by_slot[slot] = entry
            slot += 1
    if profile is not None:
        profile.add_phase("dispatch", perf_counter() - start, len(tasks))

    # Per-pair failures inside workers surface as assumed entries (the
    # worker cannot touch the parent's stats); account for them here.  In
    # dedup mode assumed entries are simply not seeded — the resolve pass
    # below re-tests those pairs in the parent (recovering entirely when
    # the fault was worker-scoped) and reports any repeat failure itself.
    for (_, spec), entry in zip(work, entries_by_slot):
        assert entry is not None
        if not entry.assumed or dedup:
            continue
        src_index, sink_index = spec
        where = f"{sites[src_index].ref} -> {sites[sink_index].ref}"
        reason = entry.failure or "unknown failure"
        if policy.strict:
            raise PairTestError(where, reason)
        kind = "budget" if reason.startswith("BudgetExceededError") else "pair"
        driver.stats.record_failure(FailureRecord(kind, where, reason))

    if dedup:
        if on_result is None:
            # Not checkpointing: entries were not seeded as chunks landed.
            for (key, _), entry in zip(work, entries_by_slot):
                if not entry.assumed:
                    driver.seed(key, entry)
        for first, second, context, mapping, key in prepared:
            tested += 1
            result = driver.resolve(context, mapping, key, recorder)
            if result.independent:
                independent += 1
            else:
                edges.extend(edges_from_result(first, second, result))
    else:
        for (first, second, context, mapping, _), entry in zip(
            prepared, entries_by_slot
        ):
            tested += 1
            assert entry is not None
            if entry.assumed:
                driver.stats.assumed += 1
            if recorder is not None:
                recorder.merge(entry.recorder)
            result = rehydrate_result(entry, context, mapping)
            if result.independent:
                independent += 1
            else:
                edges.extend(edges_from_result(first, second, result))

    return DependenceGraph(sites, edges, independent, tested, recorder)


def _serve_serial(
    sites,
    prepared,
    driver: CachedDriver,
    recorder: Optional[TestRecorder],
    dedup: bool,
) -> DependenceGraph:
    """Resolve every prepared pair in-process (degenerate / fallback pool).

    With ``dedup`` the shared cache serves (and fills) as usual; without
    it the plain driver runs per pair — guarded by the same per-pair
    isolation the cache's miss path applies — preserving the uncached
    builder's exact behavior on fault-free pairs.
    """
    policy = driver.policy
    edges: List[DependenceEdge] = []
    tested = 0
    independent = 0
    for first, second, context, mapping, key in prepared:
        tested += 1
        if dedup:
            result = driver.resolve(context, mapping, key, recorder)
        else:
            local = TestRecorder()
            budget = (
                StepBudget(policy.pair_budget) if policy.pair_budget else None
            )
            try:
                faultinject.on_pair(first.ref.array)
                result = test_dependence(
                    first,
                    second,
                    symbols=context.symbols,
                    recorder=local,
                    delta_options=driver.delta_options,
                    context=context,
                    budget=budget,
                )
            except Exception as exc:
                where = f"{first.ref} -> {second.ref}"
                if policy.strict:
                    raise PairTestError(where, describe_error(exc)) from exc
                result = assumed_dependence_result(context, describe_error(exc))
                local = TestRecorder()  # discard partial counters: parity
                driver.stats.record_failure(
                    FailureRecord(failure_kind(exc), where, describe_error(exc))
                )
                driver.stats.assumed += 1
            if recorder is not None:
                recorder.merge(local)
        if result.independent:
            independent += 1
        else:
            edges.extend(edges_from_result(first, second, result))
    return DependenceGraph(sites, edges, independent, tested, recorder)
