"""Fault-tolerance tests: budgets, degradation, supervision, injection.

The load-bearing property mirrors the engine's contract: a dependence
verdict may be *independent* only when a test proved it, so every fault —
an in-test exception, an exhausted step budget, a crashed or hung worker,
an unparsable routine — must degrade to a conservative assumed-dependence
edge (or a skipped-and-reported routine), never to a lost pair or a
spurious independence.  Faults are injected deterministically through
:mod:`repro.engine.faultinject` (the ``REPRO_FAULTS`` hook).
"""

import pytest

from repro.delta.delta import DEFAULT_OPTIONS
from repro.engine import (
    BudgetExceededError,
    CachedDriver,
    DependenceEngine,
    FailureRecord,
    FaultPolicy,
    PairTestError,
    StepBudget,
    WorkerCrashError,
)
from repro.engine import faultinject
from repro.engine.faultinject import InjectedFaultError, parse_spec
from repro.engine.parallel import run_chunk
from repro.engine.stats import EngineStats
from repro.fortran.parser import parse_fragment, parse_program
from repro.graph.depgraph import build_dependence_graph
from repro.instrument import TestRecorder
from repro.ir.loop import collect_access_sites

COUPLED = """
      do i = 1, 100
        do j = 1, 100
          A(i+1, i+j) = A(i, i+j-1)
        end do
      end do
"""

TWO_ARRAYS = """
      do i = 1, 100
        A(i+1) = A(i)
        B(i+2) = B(i)
      end do
"""

B_ONLY = """
      do i = 1, 100
        B(i+2) = B(i)
      end do
"""

#: Wide enough to exceed AUTO_SERIAL thresholds indirectly: dispatch is
#: forced with an explicit chunksize, so three statements (9 pairs) give
#: the pool several chunks to fault and recover.
POOL_KERNEL = """
      do i = 1, 100
        A(i+1) = A(i) + B(i+2)
        B(i) = C(i-1) * A(i+3)
        C(i+2) = B(i-3) + C(i)
      end do
"""


def graph_signature(graph):
    edges = []
    for edge in graph.edges:
        edges.append(
            (
                edge.source.position,
                edge.sink.position,
                edge.dep_type.name,
                tuple(sorted(str(v) for v in edge.vectors)),
            )
        )
    edges.sort()
    return (graph.tested_pairs, graph.independent_pairs, tuple(edges))


def recorder_rows(recorder):
    return sorted(recorder.rows())


def chunk_of(nodes, *arrays):
    """A :func:`run_chunk` chunk pairing the two sites of each array."""
    by_array = {}
    for index, site in enumerate(collect_access_sites(nodes)):
        by_array.setdefault(site.ref.array, []).append(index)
    return [tuple(by_array[array]) for array in arrays]


class TestStepBudget:
    def test_spend_within_limit(self):
        budget = StepBudget(3)
        budget.spend(2)
        assert budget.remaining == 1

    def test_exhaustion_raises(self):
        budget = StepBudget(2)
        budget.spend(2)
        with pytest.raises(BudgetExceededError):
            budget.spend(1)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            StepBudget(0)


class TestFaultSpecParsing:
    def test_full_spec(self):
        plan = parse_spec("crash-chunk:1,hang-chunk:2:5.5,pair-error:A,routine-error:S")
        assert plan.crash_chunks == frozenset({1})
        assert plan.hang_chunks == {2: 5.5}
        assert plan.pair_arrays == frozenset({"a"})
        assert plan.routines == frozenset({"s"})

    def test_unknown_and_malformed_directives_ignored(self):
        plan = parse_spec("explode:now,crash-chunk:x,,pair-error:b")
        assert plan.crash_chunks == frozenset()
        assert plan.pair_arrays == frozenset({"b"})

    def test_empty_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(faultinject.ENV_VAR, raising=False)
        assert faultinject.active_plan() is None

    def test_chunk_faults_are_worker_scoped(self, monkeypatch):
        # on_chunk is a no-op in the parent process even with a crash
        # armed — that is what makes serial recovery compute real results.
        monkeypatch.setenv(faultinject.ENV_VAR, "crash-chunk:0")
        assert faultinject.IN_WORKER is False
        faultinject.on_chunk(0)  # must not exit


class TestFailureReporting:
    def test_record_str_and_dict(self):
        record = FailureRecord("budget", "A(i) -> A(i+1)", "exhausted", attempts=3)
        assert "[budget]" in str(record)
        assert "after 3 attempts" in str(record)
        assert record.as_dict()["kind"] == "budget"

    def test_stats_kind_counters_and_report(self):
        stats = EngineStats()
        assert not stats.degraded
        stats.record_failure(FailureRecord("worker-crash", "chunk 0", "boom"))
        stats.record_failure(FailureRecord("chunk-timeout", "chunk 1", "slow"))
        stats.record_failure(FailureRecord("routine", "s/p/r", "bad"))
        assert stats.worker_crashes == 1
        assert stats.chunk_timeouts == 1
        assert stats.routines_skipped == 1
        assert stats.degraded
        report = stats.failure_report()
        assert "fault report: 3 failure(s)" in report
        assert "[worker-crash] chunk 0" in report

    def test_merge_carries_failures(self):
        a, b = EngineStats(), EngineStats()
        b.record_failure(FailureRecord("pair", "x", "y"))
        b.assumed = 2
        a.merge(b)
        assert len(a.failures) == 1 and a.assumed == 2


class TestBudgetDegradation:
    def test_exhausted_budget_becomes_assumed_dependence(self):
        nodes = parse_fragment(COUPLED)
        driver = CachedDriver(policy=FaultPolicy(pair_budget=1))
        recorder = TestRecorder()
        graph = build_dependence_graph(nodes, recorder=recorder, tester=driver)
        # Nothing may be proved independent by a budget trip, and every
        # faulted pair shows up as an all-directions assumed edge.
        assert graph.independent_pairs == 0
        assert graph.edges and all(edge.assumed for edge in graph.edges)
        assert driver.stats.assumed == graph.tested_pairs
        assert {r.kind for r in driver.stats.failures} == {"budget"}
        # Partial test counters from the aborted runs are discarded.
        assert recorder_rows(recorder) == recorder_rows(TestRecorder())

    def test_strict_budget_raises_pair_test_error(self):
        nodes = parse_fragment(COUPLED)
        driver = CachedDriver(policy=FaultPolicy(strict=True, pair_budget=1))
        with pytest.raises(PairTestError) as info:
            build_dependence_graph(nodes, tester=driver)
        assert "BudgetExceededError" in str(info.value)

    def test_default_budget_does_not_trip(self):
        nodes = parse_fragment(COUPLED)
        driver = CachedDriver(policy=FaultPolicy())
        graph = build_dependence_graph(nodes, tester=driver)
        assert not driver.stats.degraded
        assert not any(edge.assumed for edge in graph.edges)


class TestPairErrorInjection:
    def test_faulted_pairs_assumed_and_counters_match_clean_run(
        self, monkeypatch
    ):
        # The A and B statement populations share no candidate pairs, so a
        # run with every A pair faulted must leave counters byte-identical
        # to a clean run over the B statement alone.
        monkeypatch.setenv(faultinject.ENV_VAR, "pair-error:a")
        faulted = TestRecorder()
        driver = CachedDriver(policy=FaultPolicy())
        graph = build_dependence_graph(
            parse_fragment(TWO_ARRAYS), recorder=faulted, tester=driver
        )
        monkeypatch.delenv(faultinject.ENV_VAR)
        clean = TestRecorder()
        clean_graph = build_dependence_graph(
            parse_fragment(B_ONLY), recorder=clean, tester=CachedDriver()
        )
        assert recorder_rows(faulted) == recorder_rows(clean)
        a_edges = [e for e in graph.edges if e.source.ref.array == "a"]
        b_edges = [e for e in graph.edges if e.source.ref.array == "b"]
        assert a_edges and all(edge.assumed for edge in a_edges)
        assert b_edges and not any(edge.assumed for edge in b_edges)
        assert graph.independent_pairs == clean_graph.independent_pairs
        assert all(r.kind == "pair" for r in driver.stats.failures)
        assert "InjectedFaultError" in driver.stats.failures[0].error

    def test_assumed_verdicts_do_not_contaminate_identical_pairs(
        self, monkeypatch
    ):
        # A(i+1)=A(i) and B(i+1)=B(i) share one canonical key; the faulted
        # A verdict must not be served from cache to the healthy B pair.
        monkeypatch.setenv(faultinject.ENV_VAR, "pair-error:a")
        driver = CachedDriver(policy=FaultPolicy())
        graph = build_dependence_graph(
            parse_fragment(
                """
      do i = 1, 100
        A(i+1) = A(i)
        B(i+1) = B(i)
      end do
"""
            ),
            tester=driver,
        )
        b_edges = [e for e in graph.edges if e.source.ref.array == "b"]
        assert b_edges and not any(edge.assumed for edge in b_edges)

    def test_run_chunk_isolates_faulted_pair(self, monkeypatch):
        # run_chunk is the per-pair guard of pool workers and of the
        # supervisor's parent-side recovery: the faulted A pair degrades
        # alone, with an empty recorder; its B chunk-mate gets a verdict.
        nodes = parse_fragment(TWO_ARRAYS)
        monkeypatch.setenv(faultinject.ENV_VAR, "pair-error:a")
        a_entry, b_entry = run_chunk(
            (0, nodes, None, chunk_of(nodes, "a", "b")), DEFAULT_OPTIONS, None
        )
        assert a_entry.assumed and "InjectedFaultError" in a_entry.failure
        assert a_entry.recorder.rows() == []
        assert not b_entry.assumed and b_entry.failure is None
        assert b_entry.recorder.rows()

    def test_run_chunk_discards_partial_counters(self):
        # A one-step budget lets the first SIV position be tested and
        # recorded, then trips on the second: the degraded entry must not
        # carry the partial counters.
        nodes = parse_fragment(
            """
      do i = 1, 100
        do j = 1, 100
          A(i+1, j) = A(i, j)
        end do
      end do
"""
        )
        (entry,) = run_chunk(
            (0, nodes, None, chunk_of(nodes, "a")), DEFAULT_OPTIONS, 1
        )
        assert entry.assumed and "BudgetExceededError" in entry.failure
        assert entry.recorder.rows() == []

    def test_strict_mode_raises(self, monkeypatch):
        monkeypatch.setenv(faultinject.ENV_VAR, "pair-error:a")
        driver = CachedDriver(policy=FaultPolicy(strict=True))
        with pytest.raises(PairTestError):
            build_dependence_graph(parse_fragment(TWO_ARRAYS), tester=driver)


class TestWorkerSupervision:
    def _engine(self, policy, **kwargs):
        return DependenceEngine(jobs=2, chunksize=2, policy=policy, **kwargs)

    def _clean_signature(self, source):
        return graph_signature(
            build_dependence_graph(parse_fragment(source), tester=CachedDriver())
        )

    def test_worker_crash_recovers_with_identical_graph(self, monkeypatch):
        monkeypatch.setenv(faultinject.ENV_VAR, "crash-chunk:0")
        with self._engine(FaultPolicy(restart_backoff=0.0)) as engine:
            graph = engine.build_graph(parse_fragment(POOL_KERNEL))
            stats = engine.stats
        assert stats.worker_crashes == 1
        assert stats.serial_recoveries >= 1
        assert stats.assumed == 0  # parent recovery computed real results
        monkeypatch.delenv(faultinject.ENV_VAR)
        assert graph_signature(graph) == self._clean_signature(POOL_KERNEL)

    def test_hung_worker_times_out_and_recovers(self, monkeypatch):
        monkeypatch.setenv(faultinject.ENV_VAR, "hang-chunk:0:10")
        policy = FaultPolicy(chunk_timeout=1.0, restart_backoff=0.0)
        with self._engine(policy) as engine:
            graph = engine.build_graph(parse_fragment(POOL_KERNEL))
            stats = engine.stats
        assert stats.chunk_timeouts == 1
        assert stats.serial_recoveries >= 1
        monkeypatch.delenv(faultinject.ENV_VAR)
        assert graph_signature(graph) == self._clean_signature(POOL_KERNEL)

    def test_strict_worker_crash_raises(self, monkeypatch):
        monkeypatch.setenv(faultinject.ENV_VAR, "crash-chunk:0")
        policy = FaultPolicy(strict=True, restart_backoff=0.0)
        with self._engine(policy) as engine:
            with pytest.raises(WorkerCrashError):
                engine.build_graph(parse_fragment(POOL_KERNEL))

    def test_engine_pool_usable_after_recovery(self, monkeypatch):
        # A replaced pool must be adopted by the engine: the next build
        # may not go through a dead executor.
        monkeypatch.setenv(faultinject.ENV_VAR, "crash-chunk:0")
        with self._engine(FaultPolicy(restart_backoff=0.0)) as engine:
            engine.build_graph(parse_fragment(POOL_KERNEL))
            monkeypatch.delenv(faultinject.ENV_VAR)
            graph = engine.build_graph(parse_fragment(POOL_KERNEL))
        assert graph_signature(graph) == self._clean_signature(POOL_KERNEL)


class _FakeFuture:
    def __init__(self, value):
        self._value = value

    def done(self):
        return True

    def result(self, timeout=None):
        return self._value


class _FakeExecutor:
    """Executor stub whose ``submit`` starts raising after N calls."""

    def __init__(self, break_after):
        self.break_after = break_after
        self.submitted = 0

    def submit(self, fn, task):
        from concurrent.futures.process import BrokenProcessPool

        if self.submitted >= self.break_after:
            raise BrokenProcessPool(
                "A child process terminated abruptly, "
                "the process pool is not usable anymore"
            )
        self.submitted += 1
        return _FakeFuture(fn(task))

    def shutdown(self, *args, **kwargs):
        pass


class TestSubmitTimeBreak:
    """A worker dying on an early chunk can flag the pool broken while
    the supervisor is *still submitting* later chunks of the same build
    — then ``submit`` itself raises.  That surface must recover exactly
    like a result-time crash, never escape to the caller."""

    def _run(self, policy):
        from repro.engine.supervisor import PoolSupervisor

        stats = EngineStats()
        supervisor = PoolSupervisor(
            _FakeExecutor(break_after=2),
            spawn=lambda: _FakeExecutor(break_after=10**9),
            policy=policy,
            stats=stats,
        )
        results = supervisor.run(
            tasks=list(range(5)),
            worker_fn=lambda t: t * 10,
            serial_runner=lambda t: t * 10,
        )
        return results, stats

    def test_pool_breaking_mid_submit_recovers(self):
        results, stats = self._run(FaultPolicy(restart_backoff=0.0))
        assert results == [0, 10, 20, 30, 40]  # every chunk delivered
        assert stats.worker_crashes == 1
        assert any(
            record.kind == "worker-crash" and "submit" in record.where
            for record in stats.failures
        )

    def test_pool_breaking_mid_submit_strict_raises(self):
        with pytest.raises(WorkerCrashError, match="submitting"):
            self._run(FaultPolicy(strict=True, restart_backoff=0.0))

    def test_retries_exhausted_finishes_serially(self):
        from repro.engine.supervisor import PoolSupervisor

        stats = EngineStats()
        supervisor = PoolSupervisor(
            _FakeExecutor(break_after=0),
            spawn=lambda: _FakeExecutor(break_after=0),
            policy=FaultPolicy(restart_backoff=0.0, max_pool_restarts=2),
            stats=stats,
        )
        results = supervisor.run(
            tasks=list(range(4)),
            worker_fn=lambda t: t,
            serial_runner=lambda t: t,
        )
        assert results == [0, 1, 2, 3]
        assert stats.serial_recoveries >= 4


class TestRoutineIsolation:
    PROGRAM = """
      subroutine good(a, n)
      real a(100)
      do 10 i = 1, n
         a(i+1) = a(i)
 10   continue
      end
      subroutine bad(b, n)
      real b(100)
      do 20 i = 1, n
         b(i+1) = b(i)
 20   continue
      end
"""

    def test_study_skips_faulted_routine_and_reports(self, monkeypatch):
        from repro.study import tables

        program = parse_program(self.PROGRAM, name="prog")
        monkeypatch.setattr(
            tables, "load_corpus", lambda suites=None: {"fake": [program]}
        )
        monkeypatch.setenv(faultinject.ENV_VAR, "routine-error:bad")
        engine = DependenceEngine()
        rows = tables.table3(engine=engine)
        assert engine.stats.routines_skipped == 1
        assert any(
            r.kind == "routine" and "bad" in r.where
            for r in engine.stats.failures
        )
        # The healthy routine's pairs still got tested.
        assert rows[0].pairs_tested > 0
        assert "fault report" in engine.stats.failure_report()

    def test_strict_study_propagates(self, monkeypatch):
        from repro.study import tables

        program = parse_program(self.PROGRAM, name="prog")
        monkeypatch.setattr(
            tables, "load_corpus", lambda suites=None: {"fake": [program]}
        )
        monkeypatch.setenv(faultinject.ENV_VAR, "routine-error:bad")
        engine = DependenceEngine(policy=FaultPolicy(strict=True))
        with pytest.raises(InjectedFaultError):
            tables.table3(engine=engine)
