"""The :class:`DependenceEngine` facade.

One object owns the policy knobs — caching on/off, worker count, cache
capacity, Delta options, profiling — and picks the right builder for each
``build_graph`` call:

* ``jobs <= 1``, cache off → the plain serial builder (baseline);
* ``jobs <= 1``, cache on → serial builder with the
  :class:`~repro.engine.cache.CachedDriver` plugged in as its tester;
* ``jobs > 1`` → the process-pool builder, sharing this engine's driver
  so the cache stays warm across calls.  Dispatch is adaptive: small or
  cheap builds stay in-process (see
  :mod:`~repro.engine.parallel`), and the pool itself is created lazily
  on the first build that actually ships work.

The engine is long-lived by design: the study harness builds one graph
per kernel of a corpus through a single engine, so canonical entries
accumulate across kernels and the corpus-wide hit rate climbs.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional, Sequence

from repro.delta.delta import DEFAULT_OPTIONS, DeltaOptions
from repro.engine.cache import DEFAULT_CAPACITY, CachedDriver
from repro.engine.faults import DEFAULT_POLICY, Deadline, FaultPolicy
from repro.engine.profile import PhaseProfile
from repro.engine.stats import EngineStats
from repro.graph.depgraph import DependenceGraph, build_dependence_graph
from repro.instrument import TestRecorder
from repro.ir.context import SymbolEnv
from repro.ir.loop import Node

if TYPE_CHECKING:  # the store and checkpoint log load only when opened
    from repro.engine.checkpoint import CheckpointLog
    from repro.engine.store import VerdictStore


class DependenceEngine:
    """Configurable front end over the serial, cached, and parallel builders."""

    def __init__(
        self,
        symbols: Optional[SymbolEnv] = None,
        jobs: int = 1,
        cache_size: int = DEFAULT_CAPACITY,
        use_cache: bool = True,
        delta_options: DeltaOptions = DEFAULT_OPTIONS,
        chunksize: Optional[int] = None,
        plan_capacity: Optional[int] = None,
        profile: bool = False,
        policy: FaultPolicy = DEFAULT_POLICY,
        store: Optional[VerdictStore] = None,
        checkpoint: Optional[CheckpointLog] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.symbols = symbols
        self.jobs = jobs
        self.use_cache = use_cache
        self.chunksize = chunksize
        #: Optional resume protocol (chunk/routine markers over ``store``).
        #: The engine *uses* the store and log but does not own them — the
        #: caller that opened the store closes it (``close`` only flushes).
        self.checkpoint = checkpoint
        stats = EngineStats(profile=PhaseProfile()) if profile else None
        self.driver = CachedDriver(
            symbols=symbols,
            capacity=cache_size,
            delta_options=delta_options,
            stats=stats,
            plan_capacity=plan_capacity,
            policy=policy,
            store=store if use_cache else None,
        )
        self._pool = None
        #: Serializes multi-threaded access to the driver (see
        #: :meth:`serve_build`).  Re-entrant so a locked caller may call
        #: :meth:`build_graph` directly.
        self.serve_lock = threading.RLock()

    @property
    def stats(self) -> EngineStats:
        """The engine's cache/fan-out counters (live, not a snapshot)."""
        return self.driver.stats

    @property
    def policy(self) -> FaultPolicy:
        """The fault policy governing degradation and pool supervision."""
        return self.driver.policy

    @property
    def profile(self) -> Optional[PhaseProfile]:
        """Per-phase wall timings, when built with ``profile=True``."""
        return self.driver.stats.profile

    @property
    def store(self) -> Optional[VerdictStore]:
        """The persistent verdict store, when one is attached (live)."""
        return self.driver.persist

    def close(self) -> None:
        """Shut down the worker pool and flush the store (not closing it).

        The final flush can itself fail or quarantine shards; the driver
        surfaces those as ``"store"`` failure records (see
        :meth:`CachedDriver.close`) instead of silently dropping them.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.driver.close()

    def __enter__(self) -> "DependenceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _pool_factory(self):
        """Create (and retain for reuse) the worker pool on first dispatch."""
        if self._pool is None:
            from repro.engine.parallel import make_pool

            self._pool = make_pool(
                self.jobs, self.driver.delta_options, self.policy.pair_budget
            )
        return self._pool

    def _pool_replaced(self, executor) -> None:
        """Adopt the pool surviving a supervised recovery (may be None)."""
        self._pool = executor

    def build_graph(
        self,
        nodes: Sequence[Node],
        recorder: Optional[TestRecorder] = None,
        include_input: bool = False,
        symbols: Optional[SymbolEnv] = None,
    ) -> DependenceGraph:
        """Build the dependence graph of a statement list.

        ``symbols`` overrides the engine-level environment for this call
        (the cache stays shared — symbol ranges are part of every key, so
        mixing environments cannot cross-contaminate entries).
        """
        env = symbols if symbols is not None else self.symbols
        if self.checkpoint is not None:
            self.checkpoint.begin_build()
        if self.jobs > 1:
            from repro.engine.parallel import build_dependence_graph_parallel

            return build_dependence_graph_parallel(
                nodes,
                symbols=env,
                recorder=recorder,
                include_input=include_input,
                jobs=self.jobs,
                driver=self.driver,
                chunksize=self.chunksize,
                dedup=self.use_cache,
                pool=self._pool,
                pool_factory=self._pool_factory,
                pool_replaced=self._pool_replaced,
                checkpoint=self.checkpoint,
            )
        if not self.use_cache:
            return build_dependence_graph(
                nodes,
                symbols=env,
                recorder=recorder,
                include_input=include_input,
                profile=self.profile,
            )
        return build_dependence_graph(
            nodes,
            symbols=env,
            recorder=recorder,
            include_input=include_input,
            tester=self.driver,
            profile=self.profile,
        )

    def serve_build(
        self,
        nodes: Sequence[Node],
        recorder: Optional[TestRecorder] = None,
        include_input: bool = False,
        symbols: Optional[SymbolEnv] = None,
        deadline: Optional[Deadline] = None,
        stats: Optional[EngineStats] = None,
    ) -> DependenceGraph:
        """Thread-safe :meth:`build_graph` — the service's resolve seam.

        Concurrent callers (the analysis service runs one request per
        executor thread against a single warm engine) serialize on
        :attr:`serve_lock` at build granularity, so a tight-deadline
        request interleaves with a long one between routines rather than
        queueing behind the whole request.  Because the second caller for
        a canonical key runs strictly after the first, a key raced by two
        requests is tested exactly once — one miss, one hit — which is
        what makes request-level coalescing an optimization rather than a
        correctness requirement.

        ``deadline`` is installed on the driver for the duration of this
        build: every per-pair budget minted inside checks it, and each
        pair starting after expiry degrades immediately to an assumed-
        dependence verdict (kind ``"deadline"``).  Deadlines bound the
        in-process resolve paths; they do not cross into pool workers.

        ``stats`` (when given) receives this build's counter deltas —
        failures, assumed counts, hit/miss provenance — attributed to
        just this call; the engine's own cumulative stats absorb the
        same delta on the way out, so global accounting is unchanged.
        The driver records into a private per-build object that is
        merged into *both* targets afterwards, so a caller may pass one
        request-level ``stats`` across many builds without earlier
        builds' counters (or their ``FailureRecord``\\s) being folded
        into the cumulative stats more than once.
        """
        with self.serve_lock:
            driver = self.driver
            saved_stats = driver.stats
            delta: Optional[EngineStats] = None
            if stats is not None:
                delta = EngineStats(
                    profile=PhaseProfile()
                    if saved_stats.profile is not None
                    else None
                )
                driver.stats = delta
            driver.deadline = deadline
            try:
                return self.build_graph(
                    nodes,
                    recorder=recorder,
                    include_input=include_input,
                    symbols=symbols,
                )
            finally:
                driver.deadline = None
                if delta is not None:
                    driver.stats = saved_stats
                    saved_stats.merge(delta)
                    stats.merge(delta)
