"""Self-tests of the benchmark harness (not of the program).

Run with either of::

    python3 perfbench/test_harness.py
    python3 -m pytest perfbench/test_harness.py

They cover the arithmetic the reported numbers rest on: choosing the
tail percentile, that a slowdown in part of a run still shows in the
latency metrics, self time over nested spans, open-loop due-time and
lateness accounting, and failure accounting (a 503 or a mismatched
answer counts as failed).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import loadgen  # noqa: E402
from common import SRC, Tally, latency_metrics, nearest_rank, tail  # noqa: E402
from spans import Tracer, counter_totals, covered, self_times  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_rung_with_ten_beyond(self):
        samples = list(range(1, 101))  # 100 samples
        pct, value, beyond = tail(samples)
        self.assertEqual((pct, value, beyond), (90.0, 90, 10))
        # The next rung up would leave fewer than ten samples beyond it.
        self.assertLess(nearest_rank(samples, 92.5)[1], 10)

    def test_the_ladder_stops_at_p90(self):
        # From 100 samples on, the percentile no longer depends on how
        # many samples a (time-limited) run took.
        self.assertEqual(tail(list(range(100)))[0], 90.0)
        self.assertEqual(tail(list(range(2000)))[0], 90.0)
        self.assertEqual(tail(list(range(50)))[0], 80.0)

    def test_too_few_samples_fall_back_to_the_median(self):
        pct, value, beyond = tail([5.0, 1.0, 3.0])
        self.assertEqual((pct, value), (50.0, 3.0))
        self.assertEqual(beyond, 1)

    def test_order_does_not_matter(self):
        samples = [float(x) for x in range(40)]
        self.assertEqual(tail(samples), tail(list(reversed(samples))))


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        # (id, name, start, end, parent, op)
        spans = [
            (0, "root", 0.0, 10.0, -1, 1),
            (1, "a", 1.0, 4.0, 0, 1),
            (2, "b", 3.0, 6.0, 0, 1),  # overlaps a: union of children is 1..6
            (3, "c", 2.0, 3.0, 1, 1),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own["root"], 5.0)
        self.assertAlmostEqual(own["a"], 2.0)
        self.assertAlmostEqual(own["b"], 3.0)
        self.assertAlmostEqual(own["c"], 1.0)
        # Self times partition the root's interval.
        self.assertAlmostEqual(own["root"] + own["a"] + own["b"] + own["c"], 10.0 + 1.0)

    def test_children_are_clipped_to_the_parent(self):
        self.assertAlmostEqual(covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0), 4.0)

    def test_wrapped_calls_nest_and_restore(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        class Box:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                tracer.count("lines", 3)
                return 1

        tracer.wrap(Box, "outer", "outer", new_op=True)
        tracer.wrap(Box, "inner", "inner")
        self.assertEqual(Box().outer(), 2)
        tracer.restore()
        self.assertFalse(hasattr(Box.outer, "__wrapped__"))
        by_name = {span[1]: span for span in tracer.spans}
        # inner's parent is outer, and both belong to outer's operation.
        self.assertEqual(by_name["inner"][4], by_name["outer"][0])
        self.assertEqual(by_name["inner"][5], by_name["outer"][5])
        own = self_times(tracer.spans)
        outer = by_name["outer"][3] - by_name["outer"][2]
        inner = by_name["inner"][3] - by_name["inner"][2]
        self.assertAlmostEqual(own["outer"], outer - inner)
        self.assertEqual(counter_totals(tracer.events), {"lines": 3})


class OpenLoop(unittest.TestCase):
    def test_due_times_follow_the_rate(self):
        self.assertEqual(loadgen.due_times(100.0, 4.0, 3), [100.0, 100.25, 100.5])

    def test_latency_counts_from_the_due_time(self):
        outcome = loadgen.Outcome(0, due=10.0, sent=10.5, done=10.75)
        self.assertAlmostEqual(outcome.latency, 0.75)
        self.assertAlmostEqual(outcome.lateness, 0.5)
        self.assertAlmostEqual(outcome.round_trip, 0.25)

    def test_a_slow_server_makes_later_requests_late(self):
        """Open loop, one connection, a server slower than the rate: the
        generator falls behind and latency (from due) grows with the queue."""
        server = _SlowServer(delay=0.05)
        try:
            outcomes = loadgen.send(
                "127.0.0.1", server.port, [b"{}"] * 6, rate=50.0, connections=1
            )
        finally:
            server.close()
        self.assertTrue(all(o.status == 503 for o in outcomes))
        # Due every 20 ms, served every >= 50 ms: lateness accumulates.
        self.assertGreater(outcomes[-1].lateness, outcomes[0].lateness + 0.1)
        for o in outcomes:
            self.assertAlmostEqual(o.latency, o.lateness + o.round_trip, places=9)


class FailureAccounting(unittest.TestCase):
    def test_tally(self):
        tally = Tally()
        tally.unit(True)
        tally.unit(False, "broken")
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(tally.problems, ["broken"])
        self.assertAlmostEqual(tally.failed_frac, 0.5)

    def test_shed_and_mismatched_answers_fail(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import wl_service
        from inputs import reference_routines

        from repro.corpus.loader import default_symbols
        from repro.engine import DependenceEngine

        source = (
            "      subroutine s1(n, a)\n      integer n, i\n      real a(n)\n"
            "      do 10 i = 2, n\n         a(i) = a(i-1)\n   10 continue\n      end\n"
        )
        request = wl_service.Request("novel", "s1", source)
        symbols = default_symbols()
        with DependenceEngine(symbols=symbols) as engine:
            routines = reference_routines(source, "s1", engine, symbols)

        def answer(status, routines_):
            body = json.dumps({"status": "ok", "routines": routines_}).encode()
            return loadgen.Outcome(0, 0.0, 0.0, 0.0, status, body)

        wrong = json.loads(json.dumps(routines))
        wrong[0]["parallel_loops"][0]["parallel"] = True
        tally = Tally()
        wl_service.check_answers(
            [
                (request, answer(200, routines)),
                (request, answer(503, routines)),
                (request, answer(200, wrong)),
            ],
            tally,
        )
        self.assertEqual((tally.attempted, tally.failed), (3, 2))


class PartialSlowdowns(unittest.TestCase):
    """Every sample counts, so a slowdown in part of a run still shows."""

    def base(self):
        # 300 samples of a steady program: 10..12 ms, ordered as run.
        return [0.010 + 0.002 * ((7 * i) % 11) / 10 for i in range(300)]

    def test_late_rounds_slowdown_shows_in_p50_and_tail(self):
        steady = self.base()
        # The last 30% of the run slows by half (a cache or memory that
        # grows during the run).
        late = [s * 1.5 if i >= 210 else s for i, s in enumerate(steady)]
        before, _note = latency_metrics(steady, steady, steady)
        after, _note = latency_metrics(late, late, late)
        self.assertGreater(after["latency_p50_ms"], before["latency_p50_ms"] * 1.03)
        self.assertGreater(after["latency_tail_ms"], before["latency_tail_ms"] * 1.3)

    def test_periodic_stall_shows_in_the_tail(self):
        steady = self.base()
        # One sample in eight stalls (more than the 10% beyond p90).
        stalled = [s + 0.05 if i % 8 == 0 else s for i, s in enumerate(steady)]
        before, _note = latency_metrics(steady, steady, steady)
        after, _note = latency_metrics(stalled, stalled, stalled)
        self.assertGreater(after["latency_tail_ms"], before["latency_tail_ms"] + 40.0)


class Summaries(unittest.TestCase):
    def test_stats_snapshots_difference(self):
        before = {"hits": 5, "misses": 5, "plan_hits": 1, "plan_misses": 1,
                  "profile": {"phases": {"test": {"s": 1.0, "calls": 4}}, "tests": {}}}
        after = {"hits": 8, "misses": 6, "plan_hits": 1, "plan_misses": 2,
                 "profile": {"phases": {"test": {"s": 1.5, "calls": 5}},
                             "tests": {"delta": {"s": 0.25, "calls": 2}}}}
        summary = layers.stats_summary(before, after)
        self.assertEqual(summary["counts"], {"lookups": 4, "hits": 3,
                                             "plan_hits": 0, "plan_misses": 1})
        self.assertEqual(summary["phases"]["test"], [0.5, 1])
        self.assertEqual(summary["tests"]["delta"], [0.25, 2])

    def test_layer_metrics_are_per_operation(self):
        spans = [(0, "corpus.run", 0.0, 2.0, -1, 1), (1, "fortran.parse", 0.5, 1.5, 0, 1)]
        summary = {"phases": {"test": [0.0, 0]}, "tests": {}, "counts": {}}
        values = layers.layer_metrics(
            layers.span_tables([spans]), {"fortran.lines": 50}, summary, ops=2
        )
        self.assertAlmostEqual(values["fortran.parse_ms"], 500.0)
        self.assertAlmostEqual(values["fortran.lines_per_s"], 50.0)
        self.assertAlmostEqual(values["trace.unattributed_frac"], 0.5)
        self.assertEqual(set(values), set(layers.PER_LAYER))


class _SlowServer:
    """A local HTTP server answering every request with 503 after ``delay``."""

    def __init__(self, delay: float):
        self.delay = delay
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()
        self.thread = threading.Thread(target=self._serve, args=(ready,), daemon=True)
        self.thread.start()
        if not ready.wait(10):
            raise RuntimeError("test server did not start")

    def _serve(self, ready: threading.Event) -> None:
        asyncio.set_event_loop(self.loop)
        lock = asyncio.Lock()

        async def handle(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            async with lock:  # one request at a time, like a saturated server
                await asyncio.sleep(self.delay)
            writer.write(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{}")
            await writer.drain()
            writer.close()

        self.server = self.loop.run_until_complete(
            asyncio.start_server(handle, "127.0.0.1", 0)
        )
        self.port = self.server.sockets[0].getsockname()[1]
        ready.set()
        self.loop.run_forever()

    def close(self) -> None:
        def stop():
            self.server.close()
            self.loop.stop()

        self.loop.call_soon_threadsafe(stop)
        self.thread.join(10)
        self.loop.close()


if __name__ == "__main__":
    unittest.main()
