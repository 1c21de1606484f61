"""Tests for the sharded crash-safe verdict store and resume protocol.

Covers the v2 directory format (manifest + key-prefix shard segments +
meta shard), the record format (round-trip through a reopen), every
recovery rule (torn frame, CRC mismatch, undecodable record, schema
mismatch) applied per shard, the multi-writer protocol (concurrent
opens, per-batch locks, cross-process tail visibility, on-disk dedup),
shard quarantine (lock starvation degrades one shard to memory-only,
never the run), exponential lock backoff, sidecar cleanup, v1 read-only
fallback and ``store migrate`` round-trip parity, the contamination
guarantee (assumed verdicts refused), the checkpoint log, the ``store``
CLI subcommands, and the headline robustness property: a run killed
mid-write (``store-die`` injection — an ``os._exit`` with unflushed
buffers, the same torn-tail state a SIGKILL produces) reopens cleanly
and ``--resume`` reproduces the uninterrupted run's output
byte-for-byte with verdicts served from the store.
"""

import os
import pickle
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import (
    CachedDriver,
    CheckpointLog,
    StoreError,
    StoreLockError,
    StoreReadOnlyError,
    VerdictStore,
    migrate_store,
    run_token,
)
from repro.engine.store import (
    MAGIC,
    SCHEMA_VERSION,
    STORE_VERSION,
    _HEADER,
    _SidecarLock,
    _encode_record,
)
from repro.graph.depgraph import build_dependence_graph, iter_candidate_pairs
from repro.ir.loop import collect_access_sites
from repro.corpus.generator import random_nest

SRC_DIR = str(Path(__file__).parent.parent / "src")

KERNEL = """
      subroutine kern1(n, b, c)
      integer n, i
      real b(n), c(n)
      do 10 i = 1, n
         b(i+1) = b(i) + c(i)
   10 continue
      end
      subroutine kern2(n, a, b)
      integer n, i, j
      real a(n,n), b(n)
      do 30 j = 1, n
         do 20 i = 1, n
            a(i,j) = a(i,j-1) + b(i)
   20    continue
   30 continue
      end
"""

#: ``store-die`` point landing inside routine 2 of ``KERNEL``: routine 1's
#: completion checkpoint (its ``mark_routine``) has already fsynced that
#: routine's verdicts, so the killed run leaves durable progress behind.
DIE_MID_RUN = 8

#: ``pair-delay`` seconds for the second of two concurrent writers.  Each
#: routine of ``KERNEL`` has at least two pairs, so the delayed writer
#: flushes no verdict before ~1 s after opening the store; the undelayed
#: writer makes all of its appends within ~0.1 s of opening it.
WRITER_STAGGER_S = 0.5


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    return env


def run_cli(args, *, faults=None, timeout=600):
    env = subprocess_env()
    if faults:
        env["REPRO_FAULTS"] = faults
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def normalize(text):
    """Mask the global statement-label counter for cross-run comparison."""
    return re.sub(r"\bS\d+\b", "S#", text)


def fill_store(path, seed=7, shards=None):
    """Analyze a random nest through a store-backed driver; returns keys."""
    nodes = random_nest(seed, depth=2, statements=3, arrays=2, ndim=2, extent=8)
    with VerdictStore(path, shards=shards) as store:
        driver = CachedDriver(store=store)
        build_dependence_graph(nodes, tester=driver)
        keys = [
            driver.prepare(a, b)[2]
            for a, b in iter_candidate_pairs(collect_access_sites(nodes))
        ]
    return nodes, keys


def store_size(path):
    """Total on-disk record bytes of a store (v2 directory or v1 file)."""
    return VerdictStore.scan(path).size


def populated_segments(path):
    """The store directory's segment files that hold at least one record."""
    return sorted(
        seg for seg in Path(path).glob("*.seg")
        if seg.stat().st_size > _HEADER.size
    )


def shard_report(report, label):
    """The per-segment sub-report with the given label."""
    for sub in report.shards:
        if sub.label == label:
            return sub
    raise AssertionError(f"no sub-report labeled {label!r} in {report.shards}")


def write_v1_store(path, verdicts=(), plans=(), chunks=(), runs=()):
    """Author a legacy v1 single-segment store file byte by byte."""
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, SCHEMA_VERSION))
        for key, entry in verdicts:
            handle.write(_encode_record(pickle.dumps(("v", key, entry), 4)))
        for key, plan in plans:
            handle.write(_encode_record(pickle.dumps(("p", key, plan), 4)))
        for token, build, seq in chunks:
            handle.write(
                _encode_record(pickle.dumps(("c", token, build, seq), 4))
            )
        for token, label in runs:
            handle.write(_encode_record(pickle.dumps(("r", token, label), 4)))


@pytest.fixture()
def v1_store(tmp_path):
    """A populated legacy v1 file plus the keys it holds."""
    staging = tmp_path / "staging.db"
    nodes, keys = fill_store(staging)
    with VerdictStore(staging) as donor:
        verdicts = list(donor._verdicts.items())
        plans = list(donor._plans.items())
    path = tmp_path / "legacy.db"
    write_v1_store(
        path,
        verdicts=verdicts,
        plans=plans,
        chunks=[("tok", 0, 1)],
        runs=[("tok", "analyze:x.f"), ("tok", "routine:kern")],
    )
    return path, nodes, keys


class TestRecordFormat:
    def test_round_trip_through_reopen(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with VerdictStore(path) as store:
            assert len(store) > 0
            assert store.plan_count > 0
            for key in keys:
                assert store.contains(key)
                assert store.get(key) is not None
                assert store.get_plan(key) is not None
            assert store.recovered_report.clean

    def test_markers_round_trip(self, tmp_path):
        path = tmp_path / "s.db"
        with VerdictStore(path) as store:
            store.mark_run("tok1", "analyze:x.f")
            store.mark_chunk("tok1", 0, 3)
            store.mark_chunk("tok1", 1, 0)
            store.mark_chunk("other", 0, 9)
        with VerdictStore(path) as store:
            assert store.runs() == [("tok1", "analyze:x.f")]
            assert store.chunks_done("tok1") == {(0, 3), (1, 0)}
            assert store.chunk_done("other", 0, 9)
            assert not store.chunk_done("tok1", 0, 9)

    def test_put_dedups_by_key(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        size = store_size(path)
        with VerdictStore(path) as store:
            for key in keys:
                entry = store.get(key)
                if entry is not None:
                    store.put(key, entry)  # duplicate: must not append
        assert store_size(path) == size

    def test_assumed_verdicts_refused(self, tmp_path):
        from repro.classify.pairs import PairContext
        from repro.core.driver import assumed_dependence_result
        from repro.engine import canonicalize_result, rename_map
        from repro.instrument import TestRecorder

        nodes = random_nest(3, depth=1, statements=1, arrays=1, ndim=1, extent=4)
        sites = collect_access_sites(nodes)
        src, sink = next(iter_candidate_pairs(sites))
        context = PairContext(src, sink, None)
        mapping = rename_map(context)
        result = assumed_dependence_result(context, "injected")
        entry = canonicalize_result(result, mapping, TestRecorder())
        with VerdictStore(tmp_path / "s.db") as store:
            with pytest.raises(StoreError, match="assumed"):
                store.put(_key(context, mapping), entry)

    def test_closed_store_raises(self, tmp_path):
        store = VerdictStore(tmp_path / "s.db")
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            store.mark_run("t", "l")


def _key(context, mapping):
    from repro.engine import canonical_pair_key

    return canonical_pair_key(context, mapping)


class TestShardLayout:
    def test_directory_layout_and_manifest(self, tmp_path):
        path = tmp_path / "s.db"
        VerdictStore(path, shards=4).close()
        names = sorted(p.name for p in path.iterdir())
        assert "manifest" in names
        assert [n for n in names if n.startswith("shard-")] == [
            f"shard-{i:03d}.seg" for i in range(4)
        ]
        assert "meta.seg" in names
        report = VerdictStore.scan(path)
        assert report.version == STORE_VERSION
        assert report.shard_count == 4

    def test_manifest_shard_count_wins_over_argument(self, tmp_path):
        path = tmp_path / "s.db"
        VerdictStore(path, shards=3).close()
        with VerdictStore(path, shards=7) as store:
            assert len(store._segments) == 3

    def test_keys_spread_across_shards(self, tmp_path):
        path = tmp_path / "s.db"
        fill_store(path, shards=4)
        with_data = [
            seg for seg in populated_segments(path)
            if seg.name.startswith("shard-")
        ]
        assert len(with_data) > 1, "all keys hashed to one shard"

    def test_shard_routing_is_stable(self, tmp_path):
        path = tmp_path / "s.db"
        _, keys = fill_store(path)
        with VerdictStore(path) as store:
            first = [store._shard_of(key) for key in keys]
            assert first == [store._shard_of(key) for key in keys]
        with VerdictStore(path) as store:  # same salt from the manifest
            assert first == [store._shard_of(key) for key in keys]

    def test_corrupt_manifest_rebuilt_keeps_records(self, tmp_path, capsys):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        (path / "manifest").write_bytes(b"garbage")
        with VerdictStore(path) as store:
            # Old segments still fold into the global map on open.
            assert any(store.get(key) is not None for key in keys)
            assert any(
                "manifest" in p for p in store.recovered_report.problems
            )
        assert "manifest rebuilt" in capsys.readouterr().err
        # The rewritten manifest parses cleanly now.
        assert VerdictStore.scan(path).shard_count > 0

    def test_bad_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shard count"):
            VerdictStore(tmp_path / "s.db", shards=0)


class TestRecovery:
    def test_trailing_garbage_truncated(self, tmp_path, capsys):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        segment = populated_segments(path)[0]
        good_size = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 5)
        with VerdictStore(path) as store:
            report = store.recovered_report
            assert not report.clean
            sub = shard_report(report, _seg_label(segment))
            assert sub.truncated_at == good_size
            for key in keys:
                assert store.contains(key)
        assert segment.stat().st_size == good_size
        assert "dropped corrupt tail" in capsys.readouterr().err

    def test_torn_half_record_truncated(self, tmp_path):
        path = tmp_path / "s.db"
        fill_store(path)
        segment = populated_segments(path)[0]
        good_size = segment.stat().st_size
        # A plausible frame header claiming more payload than exists.
        with open(segment, "ab") as handle:
            handle.write(struct.pack("<II", 10_000, 0) + b"partial")
        with VerdictStore(path) as store:
            sub = shard_report(store.recovered_report, _seg_label(segment))
            assert sub.truncated_at == good_size
        assert segment.stat().st_size == good_size

    def test_crc_flip_truncates_tail(self, tmp_path):
        path = tmp_path / "s.db"
        fill_store(path)
        segment = populated_segments(path)[0]
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # corrupt the last record's payload
        segment.write_bytes(data)
        with VerdictStore(path) as store:
            report = store.recovered_report
            assert not report.clean
            assert any("CRC" in p or "torn" in p for p in report.problems)
        # The surviving prefix must now be fully clean.
        assert VerdictStore.scan(path).clean

    def test_schema_mismatch_rebuilds_shard_empty(self, tmp_path, capsys):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        for segment in path.glob("*.seg"):
            data = bytearray(segment.read_bytes())
            data[: _HEADER.size] = _HEADER.pack(MAGIC, SCHEMA_VERSION + 1)
            segment.write_bytes(data)
        with VerdictStore(path) as store:
            assert len(store) == 0
            assert store.plan_count == 0
            assert any(sub.rebuilt for sub in store.recovered_report.shards)
        assert "rebuilt empty" in capsys.readouterr().err
        assert VerdictStore.scan(path).clean

    def test_one_bad_shard_leaves_the_rest(self, tmp_path):
        """Per-shard isolation: a destroyed segment loses only its keys."""
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path, shards=4)
        shard_segs = [
            seg for seg in populated_segments(path)
            if seg.name.startswith("shard-")
        ]
        assert len(shard_segs) > 1
        victim = shard_segs[0]
        victim.write_bytes(b"not a segment")
        with VerdictStore(path) as store:
            assert len(store) > 0  # the other shards' verdicts survive
            assert sum(1 for key in keys if store.get(key) is not None) > 0

    def test_bad_magic_file_rebuilds_as_v2(self, tmp_path):
        path = tmp_path / "s.db"
        path.write_bytes(b"not a store at all")
        with VerdictStore(path) as store:
            assert len(store) == 0
            assert not store.read_only
        assert path.is_dir()
        assert VerdictStore.scan(path).clean

    def test_recovered_store_still_writable(self, tmp_path):
        path = tmp_path / "s.db"
        fill_store(path)
        segment = populated_segments(path)[0]
        with open(segment, "ab") as handle:
            handle.write(b"junk")
        with VerdictStore(path) as store:
            store.mark_run("t", "after-recovery")
        with VerdictStore(path) as store:
            assert ("t", "after-recovery") in store.runs()

    def test_compact_drops_dead_weight(self, tmp_path):
        path = tmp_path / "s.db"
        with VerdictStore(path) as store:
            for i in range(50):
                store.mark_run("tok", f"run-{i}")
            before, after = store.compact()
            assert after < before
            assert store.runs() == [("tok", "run-49")]
        with VerdictStore(path) as store:
            assert store.runs() == [("tok", "run-49")]

    def test_compact_preserves_verdicts(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with VerdictStore(path) as store:
            count = len(store)
            store.compact()
        with VerdictStore(path) as store:
            assert len(store) == count
            for key in keys:
                assert store.contains(key)
        assert VerdictStore.scan(path).clean


def _seg_label(segment):
    """Map ``shard-003.seg`` -> ``shard 3``, ``meta.seg`` -> ``meta``."""
    stem = segment.name[: -len(".seg")]
    if stem == "meta":
        return "meta"
    return f"shard {int(stem.split('-')[1])}"


class TestMultiWriter:
    """The v2 headline: concurrent writers on one store, no lifetime lock."""

    def test_second_opener_allowed(self, tmp_path):
        path = tmp_path / "s.db"
        with VerdictStore(path) as first:
            with VerdictStore(path) as second:
                first.mark_run("a", "one")
                second.mark_run("b", "two")
        with VerdictStore(path) as store:
            assert set(store.runs()) == {("a", "one"), ("b", "two")}

    def test_opener_losing_the_create_race_joins_the_store(
        self, tmp_path, monkeypatch
    ):
        """A concurrent creator finishes right after this opener's first
        look at the path: the opener must join that store, not treat the
        new directory as a stray file."""
        path = tmp_path / "s.db"
        real_stat = Path.stat
        raced = []

        def stat_then_lose_race(self, *args, **kwargs):
            if self == path and not raced:
                raced.append(True)
                with VerdictStore(path) as other:
                    other.mark_run("other", "creator")
                raise FileNotFoundError(2, "absent at first look", str(path))
            return real_stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", stat_then_lose_race)
        with VerdictStore(path) as store:
            store.mark_run("late", "opener")
        assert raced
        with VerdictStore(path) as store:
            assert set(store.runs()) == {
                ("other", "creator"), ("late", "opener")
            }

    def test_tail_fold_makes_concurrent_writes_visible(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(tmp_path / "donor.db")
        with VerdictStore(tmp_path / "donor.db") as donor:
            items = list(donor._verdicts.items())
        assert items
        a = VerdictStore(path)
        b = VerdictStore(path)
        try:
            key, entry = items[0]
            a.put(key, entry)
            assert b.get(key) is None  # not flushed yet: invisible
            a.checkpoint()
            got = b.get(key)  # tail poll folds the flushed record
            assert got is not None
            assert b.foreign(key)
            assert not a.foreign(key)
        finally:
            a.close()
            b.close()

    def test_concurrent_same_key_deduped_on_disk(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(tmp_path / "donor.db")
        with VerdictStore(tmp_path / "donor.db") as donor:
            items = list(donor._verdicts.items())[:3]
        a = VerdictStore(path)
        b = VerdictStore(path)
        try:
            for key, entry in items:
                a.put(key, entry)
                b.put(key, entry)
            a.checkpoint()
            b.checkpoint()  # must skip records a already landed
        finally:
            a.close()
            b.close()
        report = VerdictStore.scan(path)
        assert report.clean
        assert report.verdicts == len(items)

    def test_marker_visibility_across_writers(self, tmp_path):
        path = tmp_path / "s.db"
        a = VerdictStore(path)
        b = VerdictStore(path)
        try:
            a.mark_chunk("tok", 0, 5)
            a.checkpoint()
            assert b.chunk_done("tok", 0, 5)
            assert b.chunks_done("tok") == {(0, 5)}
        finally:
            a.close()
            b.close()

    def test_foreign_hits_counted_in_provenance(self, tmp_path):
        path = tmp_path / "s.db"
        nodes = random_nest(7, depth=2, statements=3, arrays=2, ndim=2, extent=8)
        writer = VerdictStore(path)
        reader = VerdictStore(path)  # opens BEFORE the writer lands records
        try:
            writer_driver = CachedDriver(store=writer)
            build_dependence_graph(nodes, tester=writer_driver)
            writer.checkpoint()
            reader_driver = CachedDriver(store=reader)
            build_dependence_graph(nodes, tester=reader_driver)
            stats = reader_driver.stats
            assert stats.misses == 0
            assert stats.store_hits > 0
            assert stats.store_foreign_hits > 0
            assert "cross-process" in stats.provenance_report()
        finally:
            writer.close()
            reader.close()

    def test_foreign_hits_absent_without_concurrency(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with VerdictStore(path) as store:
            driver = CachedDriver(store=store)
            build_dependence_graph(nodes, tester=driver)
            assert driver.stats.store_hits > 0
            assert driver.stats.store_foreign_hits == 0
            assert "cross-process" not in driver.stats.provenance_report()


class TestLocking:
    def test_lock_released_on_close(self, tmp_path):
        path = tmp_path / "s.db"
        VerdictStore(path).close()
        VerdictStore(path).close()

    def test_sidecar_cleanup_on_close(self, tmp_path):
        path = tmp_path / "s.db"
        with VerdictStore(path) as store:
            store.mark_run("t", "l")
        assert list(path.glob("*.lock")) == []

    def test_lock_survives_holder_death(self, tmp_path):
        """flock dies with its holder: a SIGKILLed writer never wedges."""
        path = tmp_path / "s.db"
        script = (
            "import os, sys; sys.path.insert(0, sys.argv[2]); "
            "from repro.engine import VerdictStore; "
            "s = VerdictStore(sys.argv[1]); s.mark_run('t', 'l'); "
            "os._exit(9)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(path), SRC_DIR],
            capture_output=True,
            timeout=600,
        )
        assert result.returncode == 9
        with VerdictStore(path) as store:  # stale locks must not block
            store.mark_run("t2", "after")
        assert list(path.glob("*.lock")) == []  # dead sidecars tidied

    def test_backoff_is_exponential_with_jitter(self, tmp_path, monkeypatch):
        import repro.engine.store as store_mod

        sleeps = []
        monkeypatch.setattr(store_mod.time, "sleep", sleeps.append)
        lock_path = tmp_path / "seg.lock"
        holder = _SidecarLock(lock_path)
        holder.acquire()
        try:
            with pytest.raises(StoreLockError, match="held by"):
                _SidecarLock(lock_path).acquire(
                    retries=6, backoff=0.01, cap=0.1
                )
        finally:
            holder.release(unlink=True)
        assert len(sleeps) == 5  # no sleep after the final attempt
        for i, slept in enumerate(sleeps):
            base = min(0.01 * (2 ** i), 0.1)
            assert base * 0.5 <= slept < base * 1.5  # jitter window

    def test_lock_starvation_quarantines_shard(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(tmp_path / "donor.db")
        with VerdictStore(tmp_path / "donor.db") as donor:
            key, entry = next(iter(donor._verdicts.items()))
        store = VerdictStore(path, shards=2)
        try:
            segment = store._segments[store._shard_of(key)]
            blocker = _SidecarLock(segment.lock.path)
            blocker.acquire()
            try:
                store.put(key, entry)
                store.checkpoint()  # starves on the held lock: no raise
            finally:
                blocker.release(unlink=True)
            assert segment.quarantined
            assert store.quarantined_shards == [segment.label]
            events = store.drain_events()
            assert len(events) == 1
            assert "quarantined" in events[0][1]
            assert store.drain_events() == []  # drained
            # The key still serves from memory after quarantine.
            assert store.get(key) is entry
        finally:
            store.close()
        # Nothing corrupt was left on disk.
        assert VerdictStore.scan(path).clean

    def test_quarantine_surfaces_as_store_failure_record(self, tmp_path):
        path = tmp_path / "s.db"
        nodes = random_nest(5, depth=2, statements=3, arrays=2, ndim=2, extent=8)
        store = VerdictStore(path, shards=1)
        try:
            blocker = _SidecarLock(store._segments[0].lock.path)
            blocker.acquire()
            try:
                driver = CachedDriver(store=store)
                graph = build_dependence_graph(nodes, tester=driver)
                store.checkpoint()
                driver.drain_store_events()
            finally:
                blocker.release(unlink=True)
            assert graph is not None
            assert driver.persist is store  # NOT degraded wholesale
            kinds = {record.kind for record in driver.stats.failures}
            assert kinds == {"store"}
            assert driver.stats.assumed == 0  # never an assumed verdict
        finally:
            store.close()


class TestCloseDrainsFinalEvents:
    """Events raised *during* the final checkpoint must not vanish.

    ``drain_store_events`` only surfaces events queued so far; a shard
    quarantined by the close-time flush queues its event after the last
    mid-run drain.  ``CachedDriver.close`` (and ``DependenceEngine.close``
    above it) runs the final checkpoint itself and drains once more, so
    the fault report covers the whole run including its last write.
    """

    def test_quarantine_during_final_checkpoint_is_reported(self, tmp_path):
        path = tmp_path / "s.db"
        nodes = random_nest(5, depth=2, statements=3, arrays=2, ndim=2, extent=8)
        # A huge interval keeps every put buffered until the close-time
        # flush — the only checkpoint is the one close() itself runs.
        store = VerdictStore(path, shards=1, checkpoint_interval=10**6)
        try:
            driver = CachedDriver(store=store)
            build_dependence_graph(nodes, tester=driver)
            driver.drain_store_events()
            assert not driver.stats.failures  # clean so far
            # Starve the close-time flush: the quarantine event is
            # queued during close(), after the drain above.
            blocker = _SidecarLock(store._segments[0].lock.path)
            blocker.acquire()
            try:
                driver.close()
            finally:
                blocker.release(unlink=True)
            kinds = {record.kind for record in driver.stats.failures}
            assert kinds == {"store"}
            assert driver.stats.assumed == 0
            assert driver.persist is store  # shard-scoped, not wholesale
        finally:
            store.close()

    def test_failed_final_checkpoint_degrades_with_record(self, tmp_path, monkeypatch):
        store = VerdictStore(tmp_path / "s.db", shards=1)
        driver = CachedDriver(store=store)

        def boom():
            raise OSError("disk gone")

        monkeypatch.setattr(store, "checkpoint", boom)
        driver.close()
        assert driver.persist is None  # whole-store failure: detached
        kinds = {record.kind for record in driver.stats.failures}
        assert kinds == {"store"}
        assert "disk gone" in driver.stats.failures[0].error
        monkeypatch.undo()
        store.close()

    def test_engine_close_surfaces_final_events(self, tmp_path, monkeypatch):
        from repro.engine import DependenceEngine

        store = VerdictStore(tmp_path / "s.db", shards=1)
        engine = DependenceEngine(store=store)
        monkeypatch.setattr(
            store, "checkpoint",
            lambda: (_ for _ in ()).throw(OSError("flush failed")),
        )
        engine.close()
        assert {r.kind for r in engine.stats.failures} == {"store"}
        monkeypatch.undo()
        store.close()


class TestReadOnlyFallbackAndMigration:
    def test_v1_opens_read_only(self, v1_store):
        path, nodes, keys = v1_store
        with VerdictStore(path) as store:
            assert store.read_only
            assert len(store) > 0
            served = sum(1 for key in keys if store.get(key) is not None)
            assert served == len(store._verdicts)
            assert ("tok", "analyze:x.f") in store.runs()
            assert store.chunk_done("tok", 0, 1)
            with pytest.raises(StoreReadOnlyError, match="read-only"):
                store.mark_run("t", "l")
        assert path.is_file()  # fallback never rewrites the v1 file

    def test_checkpoint_log_skips_writes_on_read_only(self, v1_store):
        path, _, _ = v1_store
        with VerdictStore(path) as store:
            log = CheckpointLog(store, "tok")
            assert log.resumable  # prior v1 markers still read
            log.begin_run("label")  # silently skipped, no raise
            log.mark_chunk(0)
            log.mark_routine("kern")

    def test_migrate_round_trip_parity(self, v1_store):
        path, nodes, keys = v1_store
        with VerdictStore(path) as before:
            v1_verdicts = dict(before._verdicts)
            v1_plans = dict(before._plans)
        verdicts, plans = migrate_store(path, shards=4)
        assert verdicts == len(v1_verdicts)
        assert plans == len(v1_plans)
        assert path.is_dir()
        assert not path.with_name(path.name + ".v1").exists()
        report = VerdictStore.scan(path)
        assert report.clean
        assert report.shard_count == 4
        with VerdictStore(path) as after:
            assert not after.read_only
            assert len(after) == len(v1_verdicts)
            for key, entry in v1_verdicts.items():
                got = after.get(key)
                assert got is not None
                assert got.independent == entry.independent
                assert got.vectors == entry.vectors
            for key in v1_plans:
                assert after.get_plan(key) is not None
            assert ("tok", "analyze:x.f") in after.runs()
            assert after.chunk_done("tok", 0, 1)
            after.mark_run("t", "writable-again")

    def test_migrate_rejects_non_v1(self, tmp_path):
        missing = tmp_path / "absent.db"
        with pytest.raises(StoreError, match="does not exist"):
            migrate_store(missing)
        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"nonsense")
        with pytest.raises(StoreError, match="not a readable v1"):
            migrate_store(garbage)
        v2 = tmp_path / "v2.db"
        VerdictStore(v2).close()
        with pytest.raises(StoreError, match="already"):
            migrate_store(v2)


class TestCheckpointLog:
    def test_run_token_stable_and_discriminating(self):
        assert run_token("analyze", "src") == run_token("analyze", "src")
        assert run_token("analyze", "src") != run_token("analyze", "src2")
        assert run_token("a", "bc") != run_token("ab", "c")  # length-prefixed

    def test_markers_and_resume_summary(self, tmp_path):
        path = tmp_path / "s.db"
        token = run_token("analyze", "x")
        with VerdictStore(path) as store:
            log = CheckpointLog(store, token)
            assert not log.resumable
            assert "no checkpoint" in log.resume_summary()
            log.begin_run("analyze:x.f")
            assert log.begin_build() == 0
            log.mark_chunk(0)
            log.mark_chunk(1)
            log.mark_routine("kern")
        with VerdictStore(path) as store:
            log = CheckpointLog(store, token)
            assert log.resumable
            assert log.prior_chunks == {(0, 0), (0, 1)}
            assert log.prior_routines == {"kern"}
            summary = log.resume_summary()
            assert "resuming" in summary
            assert "1 routine(s)" in summary
            assert "2 chunk(s)" in summary
            # A different input's token sees none of it.
            other = CheckpointLog(store, run_token("analyze", "y"))
            assert not other.resumable


class TestProvenance:
    """Cache-tier provenance: memory hit / store hit / miss / assumed."""

    def test_store_hits_counted_separately(self, tmp_path):
        path = tmp_path / "s.db"
        nodes, keys = fill_store(path)
        with VerdictStore(path) as store:
            driver = CachedDriver(store=store)
            build_dependence_graph(nodes, tester=driver)
            stats = driver.stats
            assert stats.misses == 0
            assert stats.store_hits > 0
            assert stats.hit_rate == 1.0  # store hits count as hits
            report = stats.provenance_report()
            assert "0 memory hit(s)" in report
            assert f"{stats.store_hits} store hit(s)" in report
            assert "0 tested" in report
            # Promotion: a second pass over the same body hits memory.
            stats.reset()
            build_dependence_graph(nodes, tester=driver)
            assert stats.store_hits == 0
            assert stats.hits > 0

    def test_store_write_failure_degrades_to_memory(self, tmp_path):
        nodes = random_nest(11, depth=2, statements=3, arrays=2, ndim=2, extent=8)
        store = VerdictStore(tmp_path / "s.db")
        driver = CachedDriver(store=store)
        store.close()  # every write now raises StoreError
        graph = build_dependence_graph(nodes, tester=driver)
        assert graph is not None  # analysis survived
        assert driver.persist is None  # degraded to memory-only
        kinds = {record.kind for record in driver.stats.failures}
        assert kinds == {"store"}
        report = driver.stats.failure_report()
        assert "store" in report
        assert "verdict provenance" in report

    def test_stats_merge_and_str_include_store(self):
        from repro.engine import EngineStats

        a = EngineStats(hits=1, store_hits=2, store_writes=3, misses=4)
        b = EngineStats(store_hits=5, store_writes=1, store_foreign_hits=2)
        a.merge(b)
        assert a.store_hits == 7 and a.store_writes == 4
        assert a.store_foreign_hits == 2
        assert a.lookups == 12
        assert "store: 7 hits, 4 writes" in str(a)
        assert a.as_dict()["store_hits"] == 7
        assert a.as_dict()["store_foreign_hits"] == 2
        a.reset()
        assert a.store_hits == a.store_writes == 0
        assert a.store_foreign_hits == 0
        assert "store:" not in str(a)


class TestStoreCli:
    @pytest.fixture()
    def kernel_file(self, tmp_path):
        path = tmp_path / "kern.f"
        path.write_text(KERNEL)
        return path

    def test_analyze_store_then_resume_hits(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "s.db"
        assert main(["analyze", str(kernel_file), "--store", str(db), "--counts"]) == 0
        first = capsys.readouterr().out
        assert re.search(r"store: 0 hits, [1-9]\d* writes", first)
        assert main(
            ["analyze", str(kernel_file), "--store", str(db), "--resume", "--counts"]
        ) == 0
        second = capsys.readouterr().out
        assert "resuming:" in second
        assert re.search(r"store: [1-9]\d* hits, 0 writes", second)
        assert "0 misses" in second

    def test_store_shards_flag(self, kernel_file, tmp_path):
        db = tmp_path / "s.db"
        assert main(
            ["analyze", str(kernel_file), "--store", str(db),
             "--store-shards", "3"]
        ) == 0
        assert VerdictStore.scan(db).shard_count == 3

    def test_resume_requires_store(self, kernel_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(kernel_file), "--resume"])
        assert excinfo.value.code == 2

    def test_store_rejects_no_cache(self, kernel_file, tmp_path, capsys):
        code = main(
            ["analyze", str(kernel_file), "--no-cache", "--store", str(tmp_path / "s.db")]
        )
        assert code == 4
        assert "--no-cache" in capsys.readouterr().err

    def test_info_and_verify_clean(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "s.db"
        main(["analyze", str(kernel_file), "--store", str(db)])
        capsys.readouterr()
        assert main(["store", "info", str(db)]) == 0
        out = capsys.readouterr().out
        assert "verdict(s)" in out
        assert "shard 0:" in out  # per-shard breakdown
        assert "last checkpoint" in out
        assert "last run: analyze:kern.f" in out
        assert "routines checkpointed: 2" in out
        assert main(["store", "verify", str(db)]) == 0
        verify_out = capsys.readouterr().out
        assert "clean" in verify_out
        assert "recovery drops:" in verify_out  # per-rule counts
        assert "crc-mismatch 0" in verify_out

    def test_verify_reports_corruption(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "s.db"
        main(["analyze", str(kernel_file), "--store", str(db)])
        segment = populated_segments(db)[0]
        with open(segment, "ab") as handle:
            handle.write(b"\x55" * 13)
        capsys.readouterr()
        assert main(["store", "verify", str(db)]) == 4
        assert "PROBLEM" in capsys.readouterr().out

    def test_verify_missing_file(self, tmp_path, capsys):
        assert main(["store", "verify", str(tmp_path / "absent.db")]) == 4
        assert "cannot read" in capsys.readouterr().out

    def test_compact(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "s.db"
        main(["analyze", str(kernel_file), "--store", str(db)])
        main(["analyze", str(kernel_file), "--store", str(db)])
        capsys.readouterr()
        assert main(["store", "compact", str(db)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert main(["store", "verify", str(db)]) == 0

    def test_concurrently_open_store_analyzes_fine(
        self, kernel_file, tmp_path, capsys
    ):
        """The v1 'locked store exits 4' behavior is gone by design: a
        store held open by another process is simply shared."""
        db = tmp_path / "s.db"
        with VerdictStore(db) as other:
            code = main(["analyze", str(kernel_file), "--store", str(db)])
        assert code == 0
        assert VerdictStore.scan(db).verdicts > 0

    def test_v1_store_read_only_hint(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "legacy.db"
        write_v1_store(db, runs=[("tok", "old")])
        assert main(["analyze", str(kernel_file), "--store", str(db)]) == 0
        err = capsys.readouterr().err
        assert "read" in err and "migrate" in err
        assert db.is_file()  # untouched

    def test_migrate_cli(self, kernel_file, tmp_path, capsys):
        db = tmp_path / "s.db"
        write_v1_store(db, chunks=[("tok", 0, 1)], runs=[("tok", "old")])
        assert main(["store", "migrate", str(db), "--shards", "2"]) == 0
        assert "migrated" in capsys.readouterr().out
        assert db.is_dir()
        assert main(["store", "verify", str(db)]) == 0
        capsys.readouterr()
        # And the upgraded store is writable by analyze.
        assert main(["analyze", str(kernel_file), "--store", str(db)]) == 0
        assert VerdictStore.scan(db).verdicts > 0

    def test_migrate_missing_exits_4(self, tmp_path, capsys):
        assert main(["store", "migrate", str(tmp_path / "absent.db")]) == 4
        assert "cannot migrate" in capsys.readouterr().err

    def test_study_store_round_trip(self, tmp_path, capsys):
        db = tmp_path / "study.db"
        args = ["study", "--table", "3", "--suite", "linpack", "--store", str(db)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resuming:" in second
        assert normalize(first) in normalize(second)
        report = VerdictStore.scan(db)
        assert report.clean
        assert report.verdicts > 0


class TestFaultInjection:
    """The new concurrency faults: lock-hold, corrupt-shard, scoped die."""

    def test_lock_hold_parses_and_sleeps(self, monkeypatch):
        from repro.engine import faultinject

        plan = faultinject.parse_spec("lock-hold:0.5:3")
        assert plan.lock_hold == 0.5
        assert plan.lock_hold_shard == 3
        plan = faultinject.parse_spec("lock-hold:1.5:meta")
        assert plan.lock_hold_shard == "meta"
        sleeps = []
        monkeypatch.setenv(faultinject.ENV_VAR, "lock-hold:2.0:1")
        monkeypatch.setattr(faultinject.time, "sleep", sleeps.append)
        faultinject.on_lock_held(0)
        assert sleeps == []  # wrong shard
        faultinject.on_lock_held(1)
        assert sleeps == [2.0]

    def test_store_die_shard_scoping(self):
        from repro.engine import faultinject

        plan = faultinject.parse_spec("store-die:4:meta")
        assert plan.store_die == 4
        assert plan.store_die_shard == "meta"
        plan = faultinject.parse_spec("store-die:4")
        assert plan.store_die_shard is None

    def test_corrupt_shard_injects_torn_tail(self, tmp_path, monkeypatch):
        from repro.engine import faultinject

        path = tmp_path / "s.db"
        fill_store(path, shards=2)
        monkeypatch.setenv(faultinject.ENV_VAR, "corrupt-shard:0")
        faultinject._PLANS.clear()
        faultinject._CORRUPTED.clear()
        with VerdictStore(path) as store:
            # The injected torn tail was repaired under lock on open.
            report = store.recovered_report
            assert any("torn" in p or "corrupt" in p.lower()
                       for p in report.problems)
        monkeypatch.delenv(faultinject.ENV_VAR)
        assert VerdictStore.scan(path).clean

    def test_corrupted_shard_never_yields_spurious_independence(
        self, tmp_path, monkeypatch
    ):
        """The conservative invariant under injected shard corruption:
        dropped records are retested, never guessed."""
        from repro.engine import faultinject

        path = tmp_path / "s.db"
        nodes, keys = fill_store(path, shards=2)
        with VerdictStore(path) as store:
            truth = {
                key: store.get(key).independent
                for key in keys if store.get(key) is not None
            }
        monkeypatch.setenv(faultinject.ENV_VAR, "corrupt-shard:0,corrupt-shard:1")
        faultinject._PLANS.clear()
        faultinject._CORRUPTED.clear()
        with VerdictStore(path) as store:
            driver = CachedDriver(store=store)
            build_dependence_graph(nodes, tester=driver)
            assert driver.stats.assumed == 0
            for key, independent in truth.items():
                entry = store.get(key)
                if entry is not None:
                    assert entry.independent == independent


class TestKillAndResume:
    """The headline property: SIGKILL mid-write, reopen, byte-identical."""

    @pytest.fixture()
    def kernel_file(self, tmp_path):
        path = tmp_path / "kern.f"
        path.write_text(KERNEL)
        return path

    def test_store_die_then_resume_byte_identical(self, kernel_file, tmp_path):
        db = tmp_path / "s.db"
        fresh = run_cli(["analyze", str(kernel_file), "--counts"])
        assert fresh.returncode == 0

        killed = run_cli(
            ["analyze", str(kernel_file), "--store", str(db)],
            faults=f"store-die:{DIE_MID_RUN}",
        )
        assert killed.returncode == 9  # died uncleanly mid-append
        # The first routine's checkpoint made its verdicts durable.
        assert VerdictStore.scan(db).verdicts > 0

        resumed = run_cli(
            [
                "analyze", str(kernel_file),
                "--store", str(db), "--resume", "--counts",
            ]
        )
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        # The dependence output must match an uninterrupted run exactly.
        body = resumed.stdout.split("test applications:")[0]
        banner, _, rest = body.partition("\n")
        assert "resuming" in banner or "no checkpoint" in banner
        fresh_body = fresh.stdout.split("test applications:")[0]
        assert normalize(rest.lstrip("\n")) == normalize(fresh_body)
        # And at least one verdict must have come from the killed run.
        assert re.search(r"store: [1-9]\d* hits", resumed.stdout), resumed.stdout

    def test_killed_run_store_verifies_after_reopen(self, kernel_file, tmp_path):
        db = tmp_path / "s.db"
        killed = run_cli(
            ["analyze", str(kernel_file), "--store", str(db)],
            faults="store-die:3",
        )
        assert killed.returncode == 9
        # First reopen repairs whatever tail the kill left behind...
        with VerdictStore(db) as store:
            assert store.recovered_report is not None
        # ...after which the store verifies clean.
        assert run_cli(["store", "verify", str(db)]).returncode == 0

    def test_parallel_kill_resume(self, kernel_file, tmp_path):
        """Chunk checkpointing: a killed --jobs run resumes cleanly too."""
        db = tmp_path / "s.db"
        killed = run_cli(
            ["analyze", str(kernel_file), "--store", str(db), "--jobs", "2"],
            faults=f"store-die:{DIE_MID_RUN}",
        )
        assert killed.returncode == 9
        resumed = run_cli(
            [
                "analyze", str(kernel_file),
                "--store", str(db), "--resume", "--counts", "--jobs", "2",
            ]
        )
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        fresh = run_cli(["analyze", str(kernel_file), "--counts", "--jobs", "2"])
        body = resumed.stdout.split("test applications:")[0]
        _, _, rest = body.partition("\n")
        fresh_body = fresh.stdout.split("test applications:")[0]
        assert normalize(rest.lstrip("\n")) == normalize(fresh_body)

    def test_two_concurrent_writers_complete(self, kernel_file, tmp_path):
        """Two simultaneous analyze processes sharing one store both
        succeed, and the store stays structurally clean."""
        db = tmp_path / "s.db"
        env = subprocess_env()
        env["REPRO_FAULTS"] = "lock-hold:0.05"  # widen contention windows
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "analyze",
                    str(kernel_file), "--store", str(db), "--counts",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=600) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err[-2000:]
            assert "Traceback" not in err
        report = VerdictStore.scan(db)
        assert report.clean
        assert report.verdicts > 0

    def test_two_writers_killed_then_resume_byte_identical(
        self, kernel_file, tmp_path
    ):
        """Both concurrent writers die mid-append; a resumed run is
        byte-identical and serves the survivors' verdicts."""
        db = tmp_path / "s.db"
        fresh = run_cli(["analyze", str(kernel_file), "--counts"])
        assert fresh.returncode == 0
        # Concurrent writers dedup each other's records on flush, so a
        # writer whose records the other flushed first appends fewer and
        # its kill point may never fire.  The second writer therefore
        # sleeps before each pair test: its first verdict flush comes
        # seconds after the first writer has made all of its own appends,
        # so the first writer reliably dies mid-write.
        procs = []
        for faults in (
            f"store-die:{DIE_MID_RUN}",
            f"store-die:{DIE_MID_RUN},pair-delay:{WRITER_STAGGER_S}",
        ):
            env = subprocess_env()
            env["REPRO_FAULTS"] = faults
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "analyze",
                        str(kernel_file), "--store", str(db),
                    ],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                )
            )
        for p in procs:
            p.communicate(timeout=600)
        codes = {p.returncode for p in procs}
        assert codes <= {0, 9} and 9 in codes, codes
        resumed = run_cli(
            [
                "analyze", str(kernel_file),
                "--store", str(db), "--resume", "--counts",
            ]
        )
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        body = resumed.stdout.split("test applications:")[0]
        _, _, rest = body.partition("\n")
        fresh_body = fresh.stdout.split("test applications:")[0]
        assert normalize(rest.lstrip("\n")) == normalize(fresh_body)
        assert re.search(r"store: [1-9]\d* hits", resumed.stdout)
        assert run_cli(["store", "verify", str(db)]).returncode == 0
