"""High-throughput dependence engine.

The paper's empirical observation — real programs are dominated by a small
number of structurally identical subscript shapes — makes corpus-wide
dependence testing an ideal memoization target, and the pair population is
embarrassingly parallel.  This package exploits both:

* :mod:`repro.engine.canonical` — alpha-renames a
  :class:`~repro.classify.pairs.PairContext` into a hashable *canonical
  pair key* so structurally identical pairs share one test, and converts
  driver results to/from a name-free canonical form that can cross cache
  and process boundaries;
* :mod:`repro.engine.cache` — an LRU cache over
  :func:`~repro.core.driver.test_dependence` keyed by canonical pair keys,
  with hit/miss/eviction counters in an :class:`EngineStats`, plus a
  second tier of precompiled :class:`~repro.core.plan.TestPlan` dispatch
  schedules replayed on verdict misses;
* :mod:`repro.engine.parallel` — a process-pool graph builder with
  adaptive dispatch: per-pair cost estimates size the chunks, and small or
  cheap builds stay in-process; one representative per canonical key is
  tested in the workers, and per-worker
  :class:`~repro.instrument.TestRecorder` counters merge losslessly;
* :mod:`repro.engine.profile` — opt-in per-phase and per-test-tier wall
  timing (:class:`PhaseProfile`), surfaced by ``repro-deps analyze
  --profile``;
* :mod:`repro.engine.faults` — the fault taxonomy
  (:class:`PairTestError`, :class:`WorkerCrashError`,
  :class:`BudgetExceededError`, …), the per-pair :class:`StepBudget`, the
  structured :class:`FailureRecord`, and the :class:`FaultPolicy` knobs
  (strict vs. degrade, budgets, timeouts, restart bounds);
* :mod:`repro.engine.supervisor` — :class:`PoolSupervisor`, which wraps
  chunk dispatch so worker crashes and hangs respawn the pool (bounded)
  and re-run suspect chunks serially in the parent;
* :mod:`repro.engine.faultinject` — the deterministic fault-injection
  harness behind the ``REPRO_FAULTS`` environment hook (test-only);
* :mod:`repro.engine.store` — :class:`VerdictStore`, a crash-safe
  sharded on-disk verdict/plan store (a manifest plus key-prefix shard
  segments of CRC-checked length-prefixed records; per-batch shard
  locks, so any number of concurrent processes share one store; corrupt
  tails truncated on open, failing shards quarantined) serving as a
  persistent third cache tier, with :func:`migrate_store` upgrading
  legacy v1 single-file stores;
* :mod:`repro.engine.checkpoint` — :class:`CheckpointLog` and
  :func:`run_token`: durable completed-chunk/routine markers over the
  store, so ``repro-deps ... --store s.db --resume`` continues a killed
  run from its last fsync'd checkpoint;
* :mod:`repro.engine.engine` — the :class:`DependenceEngine` facade the
  CLI, the study harness, and the benchmarks drive.

All three builders (serial, cached, parallel) produce byte-identical
dependence graphs and recorder statistics; ``tests/test_engine.py`` holds
the parity property tests.  Failures never change a verdict from
dependent to independent: any absorbed fault degrades the affected pair
to a conservative assumed-dependence edge (``tests/test_faults.py``).

Every name below resolves lazily, on first access, from the submodule
its table entry names (PEP 562): importing :mod:`repro.engine.engine`
for a one-shot serial build does not load the store, the process pool
or the supervisor.
"""

from repro._lazy import lazy_exports

#: Default key-prefix shard count for newly created stores (re-exported
#: by :mod:`repro.engine.store`).  It lives here so the CLI can print it
#: in ``--help`` without importing the store.  The manifest is
#: authoritative afterwards — reopening with a different ``shards=``
#: argument keeps the on-disk count.
DEFAULT_SHARDS = 8

#: Exported name -> defining submodule.
_EXPORTS = {
    "BudgetExceededError": "faults",
    "CacheEntry": "canonical",
    "CachedDriver": "cache",
    "CheckpointLog": "checkpoint",
    "ChunkTimeoutError": "faults",
    "Deadline": "faults",
    "DeadlineExceededError": "faults",
    "DependenceEngine": "engine",
    "EngineFaultError": "faults",
    "EngineStats": "stats",
    "FailureRecord": "faults",
    "FaultPolicy": "faults",
    "PairTestError": "faults",
    "PhaseProfile": "profile",
    "PoolSupervisor": "supervisor",
    "StepBudget": "faults",
    "CompactionResult": "store",
    "StoreError": "store",
    "StoreLockError": "store",
    "StoreReadOnlyError": "store",
    "StoreReport": "store",
    "VerdictStore": "store",
    "migrate_store": "store",
    "WorkerCrashError": "faults",
    "build_dependence_graph_parallel": "parallel",
    "canonical_pair_key": "canonical",
    "canonicalize_result": "canonical",
    "estimate_pair_cost": "parallel",
    "rehydrate_result": "canonical",
    "rename_map": "canonical",
    "run_token": "checkpoint",
}

__all__ = ["DEFAULT_SHARDS", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
