"""An LRU outcome cache over the partition-based driver.

:class:`CachedDriver` is a drop-in ``tester`` for
:func:`~repro.graph.depgraph.build_dependence_graph`: it matches the
signature of :func:`~repro.core.driver.test_dependence` but memoizes
verdicts by canonical pair key, so the thousands of structurally identical
reference pairs of a corpus run share one test each.

Below the verdict cache sits a second, cheaper tier: a store of
precompiled :class:`~repro.core.plan.TestPlan` objects, also keyed by
canonical key.  A verdict miss first consults it — a plan hit replays the
recorded partition shape and dispatch decisions, skipping
``partition_subscripts`` and ``classify`` while still running every test
on the pair's own data.  Plans are tiny (a tuple of positions and an enum
per partition), so the plan store holds many more shapes than the verdict
cache and keeps paying off after verdict entries are evicted.

Recorder parity is exact: every miss runs the real driver against a
private :class:`~repro.instrument.TestRecorder` and stores the counter
delta in the entry; hits and misses alike merge that delta into the
caller's recorder, so Table 3 statistics are byte-identical to a serial
uncached run.

An optional third tier sits below both: a crash-safe persistent
:class:`~repro.engine.store.VerdictStore`.  Lookups probe memory first,
then the store (promoting hits into the LRU); fresh verdicts and plans
are written through, so a killed run's successor reopens the store and
serves every previously tested shape without re-testing.  Assumed
(degraded) verdicts never reach the store — PR 3's contamination
guarantee extends across process boundaries.  A store *write* failure
mid-run degrades the driver back to memory-only operation with a
``store`` failure record rather than aborting analysis.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.classify.pairs import PairContext
from repro.core.driver import (
    DependenceResult,
    assumed_dependence_result,
    test_dependence,
)
from repro.core.plan import PlanRecorder, TestPlan
from repro.delta.delta import DEFAULT_OPTIONS, DeltaOptions
from repro.engine import faultinject
from repro.engine.faults import (
    DEFAULT_PAIR_BUDGET,
    DEFAULT_POLICY,
    Deadline,
    FailureRecord,
    FaultPolicy,
    PairTestError,
    StepBudget,
    describe_error,
    failure_kind,
)
from repro.engine.canonical import (
    CacheEntry,
    CanonicalKey,
    canonical_pair_key,
    canonicalize_result,
    rehydrate_result,
    rename_map,
)
from repro.engine.stats import EngineStats
from repro.instrument import TestRecorder
from repro.ir.context import SymbolEnv
from repro.ir.loop import AccessSite

if TYPE_CHECKING:  # the store loads only when a caller opens one
    from repro.engine.store import VerdictStore

#: Default number of canonical entries kept; the whole kernel corpus needs
#: a few hundred, so the default effectively never evicts in practice.
DEFAULT_CAPACITY = 65536

#: Plan entries kept per verdict entry: plans are ~50 bytes against the
#: kilobytes a full canonical verdict carries, so the plan tier outlives
#: verdict eviction by design.
PLAN_CAPACITY_FACTOR = 4

#: Prepared-pair memo bound (cleared wholesale past this — entries are
#: cheap to rebuild and the memo only pays off within/between passes over
#: the same bodies).
PREPARE_MEMO_LIMIT = 1 << 15

#: Module-level (process-wide) prepared-pair memo, shared by every driver
#: like the expression and loop-context interning pools: contexts and
#: canonical keys are pure functions of the underlying IR objects, so
#: engines analyzing the same bodies share them even though each keeps
#: its own verdict cache.  Values hold the IR objects alive, so ids in
#: keys cannot be recycled while an entry is resident.
_PAIR_MEMO: Dict[Tuple, Tuple[PairContext, Dict[str, str], CanonicalKey]] = {}


class CachedDriver:
    """Memoizing dependence tester with an LRU eviction policy.

    Usable directly as ``tester=`` for the serial graph builder, and as
    the shared verdict store of the parallel builder (which seeds it with
    worker-produced entries).
    """

    def __init__(
        self,
        symbols: Optional[SymbolEnv] = None,
        capacity: int = DEFAULT_CAPACITY,
        delta_options: DeltaOptions = DEFAULT_OPTIONS,
        stats: Optional[EngineStats] = None,
        plan_capacity: Optional[int] = None,
        policy: FaultPolicy = DEFAULT_POLICY,
        store: Optional[VerdictStore] = None,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        if plan_capacity is None:
            plan_capacity = capacity * PLAN_CAPACITY_FACTOR
        if plan_capacity < 1:
            raise ValueError(
                f"plan capacity must be positive, got {plan_capacity}"
            )
        self.symbols = symbols
        self.capacity = capacity
        self.plan_capacity = plan_capacity
        self.delta_options = delta_options
        self.policy = policy
        self.stats = stats if stats is not None else EngineStats()
        #: Request-scoped wall-clock expiry (installed by the analysis
        #: service around each request's builds, under the engine's serve
        #: lock); every budget minted while set checks it per spend, so
        #: an expired request degrades each remaining pair to an assumed
        #: verdict in O(1) instead of testing it.  None = no deadline.
        self.deadline: Optional[Deadline] = None
        #: Persistent write-through tier (``store.py``); None = memory-only.
        #: Named ``persist`` because :meth:`store` is the LRU insert.
        self.persist = store
        self._entries: "OrderedDict[CanonicalKey, CacheEntry]" = OrderedDict()
        self._plans: "OrderedDict[CanonicalKey, TestPlan]" = OrderedDict()

    # -- cache primitives ------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, key: CanonicalKey) -> bool:
        """True when ``key`` is resident in any tier (LRU order untouched)."""
        if key in self._entries:
            return True
        return self.persist is not None and self.persist.contains(key)

    def lookup(self, key: CanonicalKey) -> Optional[CacheEntry]:
        """Fetch an entry, memory tier first, then the persistent store.

        Marks memory hits most recently used; promotes store hits into
        the LRU.  Counts provenance separately (``hits`` / ``store_hits``
        / ``misses``) so resumed runs report honestly.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry
        if self.persist is not None:
            entry = self.persist.get(key)
            if self.persist.events:
                self.drain_store_events()
            if entry is not None:
                self.stats.store_hits += 1
                if self.persist.foreign(key):
                    # Folded from a shard tail after open: written by a
                    # concurrently running process, not a prior run.
                    self.stats.store_foreign_hits += 1
                self.store(key, entry)
                return entry
        self.stats.misses += 1
        return None

    # -- the persistent tier ---------------------------------------------

    def _degrade_store(self, exc: Exception) -> None:
        """Drop to memory-only operation after a whole-store failure.

        Since the sharded store quarantines shard-scoped failures itself
        (surfaced via :meth:`drain_store_events`), this path is reserved
        for failures of the store as a whole — a closed handle, an
        unwritable directory — where no tier remains to write to.
        """
        store, self.persist = self.persist, None
        self.stats.record_failure(
            FailureRecord(
                "store",
                f"store {getattr(store, 'path', '?')}",
                describe_error(exc),
            )
        )

    def drain_store_events(self) -> None:
        """Surface shard-quarantine events as ``"store"`` failure records.

        The store absorbs shard-scoped failures (lock starvation, corrupt
        segment, ENOSPC) by quarantining the shard and queuing an event;
        the affected keys silently run memory-only.  Draining here turns
        each event into exactly one failure record for the fault report
        — never a traceback, never an assumed verdict.
        """
        if self.persist is None:
            return
        for where, message in self.persist.drain_events():
            self.stats.record_failure(FailureRecord("store", where, message))

    def _persist_entry(self, key: CanonicalKey, entry: CacheEntry) -> None:
        if (
            self.persist is None
            or entry.assumed
            or self.persist.read_only
        ):
            return
        try:
            self.persist.put(key, entry)
            self.stats.store_writes += 1
        except Exception as exc:
            self._degrade_store(exc)
        else:
            if self.persist.events:
                self.drain_store_events()

    def _persist_plan(self, key: CanonicalKey, plan: TestPlan) -> None:
        if self.persist is None or self.persist.read_only:
            return
        try:
            self.persist.put_plan(key, plan)
        except Exception as exc:
            self._degrade_store(exc)
        else:
            if self.persist.events:
                self.drain_store_events()

    def store(self, key: CanonicalKey, entry: CacheEntry) -> None:
        """Insert an entry, evicting the least recently used past capacity."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def seed(self, key: CanonicalKey, entry: CacheEntry) -> None:
        """Adopt a worker-produced entry without counting a miss.

        Write-through: seeded entries are the parallel builder's test
        results, so they persist like any miss fill (making per-chunk
        progress durable for checkpointed runs).
        """
        if key not in self._entries:
            self.stats.seeded += 1
        self.store(key, entry)
        self._persist_entry(key, entry)

    def clear(self) -> None:
        """Drop every verdict and plan (counters kept; see ``stats.reset``)."""
        self._entries.clear()
        self._plans.clear()

    def shed_memory(self) -> int:
        """Drop every in-memory tier under memory pressure; returns count.

        The corpus streaming driver calls this when its RSS watermark
        trips: the LRU verdict/plan tiers and the process-wide prepared-
        pair memo all rebuild lazily (or re-read from the persistent
        store), so shedding trades warm-cache speed for bounded memory
        without changing any verdict.
        """
        shed = len(self._entries) + len(self._plans) + len(_PAIR_MEMO)
        self._entries.clear()
        self._plans.clear()
        _PAIR_MEMO.clear()
        return shed

    def close(self) -> None:
        """Flush the persistent tier and surface every remaining event.

        The final checkpoint can itself quarantine a shard (lock
        starvation, ENOSPC on the last flush); those events are appended
        *after* any earlier drain, so without this last drain they would
        vanish from the fault report.  Safe to call repeatedly; the store
        object itself stays open (its owner closes it).
        """
        if self.persist is not None and not self.persist.read_only:
            try:
                self.persist.checkpoint()
            except Exception as exc:
                self._degrade_store(exc)
        self.drain_store_events()

    def _make_budget(self) -> Optional[StepBudget]:
        """A fresh per-pair budget carrying the current request deadline.

        Without a deadline this is the policy budget (or None when
        budgeting is disabled).  With one, a budget is always minted —
        the deadline is checked on its spend hook — using the default
        step limit when the policy has none.
        """
        limit = self.policy.pair_budget
        if self.deadline is None:
            return StepBudget(limit) if limit else None
        return StepBudget(limit or DEFAULT_PAIR_BUDGET, deadline=self.deadline)

    # -- the plan tier ---------------------------------------------------

    def plan_count(self) -> int:
        """Number of precompiled plans resident."""
        return len(self._plans)

    def plan_for(self, key: CanonicalKey) -> Optional[TestPlan]:
        """The precompiled plan for ``key`` (marks it recently used).

        Falls back to the persistent store, promoting hits into the
        memory tier, so plans survive process restarts too.
        """
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan
        if self.persist is not None:
            plan = self.persist.get_plan(key)
            if plan is not None:
                self.store_plan(key, plan)
        return plan

    def store_plan(self, key: CanonicalKey, plan: TestPlan) -> None:
        """Keep a compiled plan, evicting the least recently used past cap.

        Write-through to the persistent store (a no-op for plans already
        on disk, including ones just promoted from it).
        """
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.plan_capacity:
            self._plans.popitem(last=False)
        self._persist_plan(key, plan)

    # -- the tester interface --------------------------------------------

    def prepare(
        self,
        src_site: AccessSite,
        sink_site: AccessSite,
        symbols: Optional[SymbolEnv] = None,
    ) -> Tuple[PairContext, Dict[str, str], CanonicalKey]:
        """Build the context, rename map, and canonical key for one pair.

        Memoized process-wide by the identity of the pair's underlying IR
        objects (reference, statement, environment):
        ``collect_access_sites`` wraps the same immutable tree in fresh
        :class:`AccessSite` objects on every walk, so a driver re-analyzing
        a body — the steady state of a transformation pipeline — would
        otherwise rebuild every context and key from scratch each pass.
        """
        env = symbols if symbols is not None else self.symbols
        memo_key = (
            id(src_site.ref),
            id(src_site.stmt),
            src_site.is_write,
            id(sink_site.ref),
            id(sink_site.stmt),
            sink_site.is_write,
            id(env),
        )
        cached = _PAIR_MEMO.get(memo_key)
        if cached is not None:
            return cached
        context = PairContext(src_site, sink_site, env)
        mapping = rename_map(context)
        value = (context, mapping, canonical_pair_key(context, mapping))
        if len(_PAIR_MEMO) >= PREPARE_MEMO_LIMIT:
            _PAIR_MEMO.clear()
        _PAIR_MEMO[memo_key] = value
        return value

    def resolve(
        self,
        context: PairContext,
        mapping: Dict[str, str],
        key: CanonicalKey,
        recorder: Optional[TestRecorder] = None,
    ) -> DependenceResult:
        """Serve a prepared pair from cache, testing (and filling) on miss.

        The miss path replays the key's precompiled test plan when one is
        resident (skipping partitioning and classification), and compiles
        one otherwise so the next miss on this shape is cheaper.

        The miss path is also the per-pair isolation boundary: any
        exception the test raises (including an exhausted
        :class:`~repro.engine.faults.StepBudget`) degrades to a
        conservative assumed-dependence verdict with a
        :class:`~repro.engine.faults.FailureRecord` in ``stats`` — unless
        the policy is strict, in which case it re-raises as
        :class:`~repro.engine.faults.PairTestError`.  Assumed verdicts
        carry no recorder counters, so surviving-pair statistics stay
        byte-identical to a clean run.
        """
        profile = self.stats.profile
        entry = self.lookup(key)
        if entry is not None:
            if entry.assumed:
                self.stats.assumed += 1
            if recorder is not None:
                recorder.merge(entry.recorder)
            if profile is None:
                return rehydrate_result(entry, context, mapping)
            start = perf_counter()
            result = rehydrate_result(entry, context, mapping)
            profile.add_phase("rehydrate", perf_counter() - start)
            return result
        local = TestRecorder()
        start = perf_counter() if profile is not None else 0.0
        budget = self._make_budget()
        try:
            # A pair starting after the request deadline has already
            # expired degrades in O(1): no fault hooks, no test, just the
            # conservative assumed verdict below.
            if self.deadline is not None:
                self.deadline.check()
            faultinject.on_pair(context.src_site.ref.array)
            plan = self.plan_for(key)
            if plan is not None:
                self.stats.plan_hits += 1
                result = test_dependence(
                    context.src_site,
                    context.sink_site,
                    symbols=context.symbols,
                    recorder=local,
                    delta_options=self.delta_options,
                    context=context,
                    plan=plan.check(key),
                    profile=profile,
                    budget=budget,
                )
            else:
                self.stats.plan_misses += 1
                plan_recorder = PlanRecorder()
                result = test_dependence(
                    context.src_site,
                    context.sink_site,
                    symbols=context.symbols,
                    recorder=local,
                    delta_options=self.delta_options,
                    context=context,
                    plan_recorder=plan_recorder,
                    profile=profile,
                    budget=budget,
                )
                self.store_plan(key, plan_recorder.compile(key))
        except Exception as exc:
            where = f"{context.src_site.ref} -> {context.sink_site.ref}"
            if self.policy.strict:
                raise PairTestError(where, describe_error(exc)) from exc
            result = assumed_dependence_result(context, describe_error(exc))
            local = TestRecorder()  # discard partial counters: parity
            self.stats.record_failure(
                FailureRecord(failure_kind(exc), where, describe_error(exc))
            )
            self.stats.assumed += 1
        if profile is not None:
            profile.add_phase("test", perf_counter() - start)
        if not result.assumed:
            # Assumed verdicts never enter the cache (or the store): a
            # faulted pair must not contaminate structurally identical
            # healthy pairs, and a transient failure deserves a fresh
            # test next time — in this process or any later one.
            entry = canonicalize_result(result, mapping, local)
            self.store(key, entry)
            self._persist_entry(key, entry)
        if recorder is not None:
            recorder.merge(local)
        return result

    def __call__(
        self,
        src_site: AccessSite,
        sink_site: AccessSite,
        symbols: Optional[SymbolEnv] = None,
        recorder: Optional[TestRecorder] = None,
    ) -> DependenceResult:
        """Drop-in replacement for :func:`~repro.core.driver.test_dependence`."""
        profile = self.stats.profile
        if profile is None:
            context, mapping, key = self.prepare(src_site, sink_site, symbols)
        else:
            start = perf_counter()
            context, mapping, key = self.prepare(src_site, sink_site, symbols)
            profile.add_phase("prepare", perf_counter() - start)
        return self.resolve(context, mapping, key, recorder)
