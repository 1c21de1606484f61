"""Crash-safe persistent verdict/plan store — sharded, multi-writer (v2).

The canonical pair key makes a driver verdict a pure function of
structure (see :mod:`repro.engine.canonical`), which is exactly what
makes verdicts safe to persist across processes and runs — and, since
format v2, safe to share between *concurrent* writers: two processes
that compute the same canonical key compute the same entry, so record
interleaving can duplicate work but never corrupt truth.

**Store layout (format v2).**  A store is a *directory*:

* ``manifest`` — 20 bytes: magic ``RVSM``, store format version, shard
  count, a 32-bit hash salt, and a CRC over the preceding fields.
  Created atomically (temp file + rename) and validated on every open;
  a corrupt manifest rebuilds the store empty (verdicts are derived
  data — a rebuild can never lose truth).
* ``shard-NNN.seg`` — N key-prefix shards.  A verdict or plan record
  lands in shard ``crc32(pickle(key), salt) % N``; each shard is an
  independent RVS1-style append-only segment with its own ``.lock``
  sidecar.
* ``meta.seg`` — a dedicated shard for run/chunk checkpoint markers,
  flushed strictly *after* the data shards so a durable marker never
  claims verdicts a crash could have lost.

Each segment file keeps the v1 record format: an 8-byte header (magic
``RVS1`` + little-endian ``u32`` schema version) followed by records of
``[u32 length][u32 crc32][pickled payload]``.  A store created by a v1
build (a single segment *file* at ``path``) still opens — read-only,
with writes refused — and ``repro-deps store migrate`` upgrades it in
place.

**Multi-writer protocol.**  No lock is held for the process lifetime.
Appends are buffered in memory per shard; a :meth:`checkpoint` (or the
automatic one every :data:`CHECKPOINT_INTERVAL` buffered records) takes
each dirty shard's sidecar lock *per append batch*:

1. acquire the shard lock with capped exponential backoff + jitter;
2. re-scan the shard's appended tail, folding records a concurrent
   writer landed since our last look (these become visible to reads and
   count as *cross-process* provenance);
3. drop buffered records another writer already persisted, append the
   rest, ``flush`` + ``fsync``, release.

Readers never lock: a lookup miss polls the key's shard tail (one
``stat``; new bytes are parsed up to the last fully valid record), so
verdicts written by a concurrent process become visible mid-run.  A
torn tail seen without the lock is simply not advanced past — it may be
an in-flight append — while a torn tail seen *under* the lock belongs
to a crashed writer and is truncated.

**Conservative degradation.**  Any shard-scoped failure — lock
starvation, a corrupt segment, ``ENOSPC`` — quarantines *that shard
only*: its buffered records are dropped, further I/O on it is skipped,
and the run continues memory-only for those keys.  The failure is
queued in :attr:`VerdictStore.events` for the engine to surface as a
``"store"`` :class:`~repro.engine.faults.FailureRecord`; it is never a
traceback and never an assumed independence.

Assumed (degraded) verdicts are never written: persistence must not
extend PR 3's contamination guarantee across runs — a faulted pair gets
a fresh test next process, not a stale assumption.

**Report documents and compaction groups.**  Two record kinds beyond
verdicts/plans/markers serve the corpus streaming driver
(:mod:`repro.corpus.stream`):

* ``d`` — a *report document*: an opaque payload keyed by a content
  token (see :func:`~repro.engine.checkpoint.run_token`).  The corpus
  driver stores each routine's rendered report under its content hash;
  the record's presence is the routine-completion marker and its
  payload replays the output byte-identically.  Like verdicts, reports
  for degraded (assumed) analyses are never persisted.
* ``g`` — a *compaction group*: several near-identical record payloads
  delta-compressed against a shared base (the groupcompress idiom) and
  deflated as one frame.  :meth:`VerdictStore.compact` groups plan and
  report payloads this way; :func:`_parse_records` expands groups
  transparently, so folds, polls, scans, and verifies all see the
  member records as if they were written plain.
"""

from __future__ import annotations

import io
import os
import pickle
import random
import struct
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from stat import S_ISDIR
from typing import Dict, List, Optional, Set, Tuple

from repro.core.plan import TestPlan
from repro.engine import DEFAULT_SHARDS, faultinject
from repro.engine.canonical import CacheEntry, CanonicalKey

try:  # POSIX only; on platforms without fcntl the store runs unlocked.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Segment magic: "Repro Verdict Store", record-format generation 1.
MAGIC = b"RVS1"

#: Manifest magic: "Repro Verdict Store Manifest".
MANIFEST_MAGIC = b"RVSM"

#: Store *layout* version written into the manifest.  v1 is the legacy
#: single-segment file (no manifest); v2 is the sharded directory.
STORE_VERSION = 2

#: Schema version of the pickled payloads.  Bump whenever CacheEntry,
#: TestPlan, or the canonical-key layout changes shape; an on-disk
#: mismatch rebuilds the segment instead of deserializing stale data.
SCHEMA_VERSION = 1

#: Sanity bound on the manifest shard count (a corrupt count must not
#: make open() try to create millions of files).
MAX_SHARDS = 1024

#: Name of the marker shard (run/chunk checkpoint records).
META_SHARD = "meta"

_HEADER = struct.Struct("<4sI")
_FRAME = struct.Struct("<II")
#: magic, store version, shard count, salt — followed by a u32 CRC.
_MANIFEST = struct.Struct("<4sIII")

#: Buffered records between automatic fsync'd checkpoints.  Records lost
#: in a crash are bounded by this window (minus explicit chunk/routine
#: checkpoints, which flush eagerly).
CHECKPOINT_INTERVAL = 64

#: A single record larger than this is treated as framing corruption:
#: real records are a few KB, so a length field this big is garbage.
MAX_RECORD_SIZE = 64 * 1024 * 1024

#: Lock-acquisition schedule: attempts, base delay, and delay cap
#: (seconds).  Backoff doubles per attempt and each sleep is jittered by
#: a factor in [0.5, 1.5) so N workers contending on one shard don't
#: retry in lockstep.
LOCK_RETRIES = 8
LOCK_BACKOFF = 0.01
LOCK_BACKOFF_CAP = 0.5

#: Shard-id memo bound (cleared wholesale past this).
_SHARD_MEMO_LIMIT = 1 << 16

#: Members per compaction group.  Bounds the decode cost of one frame
#: (a torn group loses at most this many records) while still letting
#: the shared-base delta + deflate amortize across many payloads.
GROUP_SIZE = 64

#: zlib level for compaction groups: 6 is the speed/size knee.
GROUP_ZLIB_LEVEL = 6


class StoreError(Exception):
    """Base class for verdict-store failures."""


class StoreLockError(StoreError):
    """A shard lock stayed contended through the whole retry schedule."""


class StoreReadOnlyError(StoreError):
    """A write was attempted on a read-only (legacy v1) store."""


#: Recovery-rule names used in :attr:`StoreReport.rule_drops`.
RECOVERY_RULES = (
    "torn-frame",
    "torn-record",
    "crc-mismatch",
    "undecodable",
    "unknown-kind",
)


@dataclass
class StoreReport:
    """What a scan of a store (or one segment) found.

    For a v2 store the top-level report aggregates every segment and
    ``shards`` holds one sub-report per segment (data shards first, meta
    last).  ``problems`` holds one human-readable line per defect;
    ``truncated_at`` is the byte offset a repairing open would cut a
    segment back to (None when the tail is clean); ``rebuilt`` marks a
    magic/schema/manifest mismatch (the affected file is discarded on
    open); ``rule_drops`` counts records each recovery rule discarded;
    ``dead_bytes`` counts bytes compaction would reclaim (superseded
    duplicates, dropped records, torn tails).
    """

    path: Path
    label: str = "store"
    size: int = 0
    version: Optional[int] = None
    shard_count: int = 0
    salt: Optional[int] = None
    verdicts: int = 0
    plans: int = 0
    chunks: int = 0
    runs: int = 0
    reports: int = 0
    records: int = 0
    dropped: int = 0
    dead_bytes: int = 0
    mtime: Optional[float] = None
    truncated_at: Optional[int] = None
    rebuilt: bool = False
    problems: List[str] = field(default_factory=list)
    rule_drops: Dict[str, int] = field(default_factory=dict)
    shards: List["StoreReport"] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every byte of every segment parsed as a valid record."""
        return not self.problems

    def drop_record(self, rule: str, nbytes: int = 0) -> None:
        self.rule_drops[rule] = self.rule_drops.get(rule, 0) + 1
        self.dead_bytes += nbytes

    def fold(self, sub: "StoreReport") -> None:
        """Aggregate one segment sub-report into this store-level report."""
        self.shards.append(sub)
        self.size += sub.size
        self.verdicts += sub.verdicts
        self.plans += sub.plans
        self.chunks += sub.chunks
        self.runs += sub.runs
        self.reports += sub.reports
        self.records += sub.records
        self.dropped += sub.dropped
        self.dead_bytes += sub.dead_bytes
        for rule, count in sub.rule_drops.items():
            self.rule_drops[rule] = self.rule_drops.get(rule, 0) + count
        for problem in sub.problems:
            self.problems.append(f"{sub.label}: {problem}")

    def counts_line(self) -> str:
        return (
            f"  {self.verdicts} verdict(s), {self.plans} plan(s), "
            f"{self.reports} report(s), {self.chunks} chunk marker(s), "
            f"{self.runs} run marker(s) in {self.records} record(s)"
        )

    def compaction_line(self) -> str:
        """Dead/duplicate bytes compaction would reclaim (``store info``)."""
        if self.size <= 0:
            return "  compaction opportunity: none (store is empty)"
        pct = 100.0 * self.dead_bytes / self.size
        return (
            f"  compaction opportunity: {self.dead_bytes} dead byte(s) "
            f"of {self.size} ({pct:.1f}%)"
        )

    def rule_report(self) -> str:
        """One line per recovery rule with its drop count (verify mode)."""
        parts = [
            f"{rule} {self.rule_drops.get(rule, 0)}" for rule in RECOVERY_RULES
        ]
        return "  recovery drops: " + ", ".join(parts)

    def lines(self, per_shard: bool = True) -> List[str]:
        """Line-item report (header, counts, shard breakdown, problems)."""
        if self.version == STORE_VERSION and self.shards:
            data_shards = max(self.shard_count, 0)
            out = [
                f"store {self.path}: v{STORE_VERSION} directory, "
                f"{data_shards} shard(s) + meta, {self.size} bytes",
                self.counts_line(),
            ]
            if per_shard:
                for sub in self.shards:
                    when = (
                        time.strftime(
                            "%Y-%m-%d %H:%M:%S", time.localtime(sub.mtime)
                        )
                        if sub.mtime is not None
                        else "never"
                    )
                    out.append(
                        f"  {sub.label}: {sub.records} record(s) "
                        f"({sub.verdicts} verdicts, {sub.plans} plans, "
                        f"{sub.reports} reports, "
                        f"{sub.chunks + sub.runs} markers), "
                        f"{sub.dead_bytes} dead byte(s), "
                        f"last checkpoint {when}"
                    )
        else:
            out = [
                f"store {self.path}: {self.size} bytes, schema "
                f"{'?' if self.version is None else self.version}",
                self.counts_line(),
            ]
        for problem in self.problems:
            out.append(f"  PROBLEM: {problem}")
        if self.clean:
            out.append("  clean: no corruption found")
        return out


class CompactionResult(tuple):
    """Outcome of :meth:`VerdictStore.compact`.

    Subclasses ``tuple`` so it unpacks as the historical ``(before,
    after)`` byte totals; ``shards`` carries the per-segment breakdown
    as ``(label, before_bytes, after_bytes)`` triples for the CLI's
    reclaimed-bytes report (quarantined/skipped segments are absent).
    """

    shards: List[Tuple[str, int, int]]

    def __new__(
        cls,
        before: int,
        after: int,
        shards: Optional[List[Tuple[str, int, int]]] = None,
    ) -> "CompactionResult":
        self = super().__new__(cls, (before, after))
        self.shards = list(shards or [])
        return self

    @property
    def before(self) -> int:
        return self[0]

    @property
    def after(self) -> int:
        return self[1]

    @property
    def reclaimed(self) -> int:
        return self[0] - self[1]


# ---------------------------------------------------------------------------
# Low-level segment I/O
# ---------------------------------------------------------------------------


def _write_header(handle) -> None:
    handle.write(_HEADER.pack(MAGIC, SCHEMA_VERSION))


def _encode_record(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _atomic_create(path: Path, body: bytes = b"", header: bool = True) -> None:
    """Write header (+ optional body) to a temp file, fsync, rename over."""
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as tmp:
            if header:
                _write_header(tmp)
            if body:
                tmp.write(body)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


def _exclusive_create(path: Path) -> None:
    """Create an empty segment (header only) iff ``path`` is absent.

    The header is written and fsynced to a temp file first and *linked*
    into place, so the segment either does not exist or exists with a
    complete header — a racing opener can never observe a half-written
    header, and the loser of the race adopts the winner's (identical)
    file, preserving any records the winner appended in between.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as tmp:
            _write_header(tmp)
            tmp.flush()
            os.fsync(tmp.fileno())
        try:
            os.link(tmp_name, str(path))
        except FileExistsError:
            return
        _fsync_dir(path.parent)
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - temp already gone
            pass


def _fsync_dir(directory: Path) -> None:
    """Make a rename durable (best-effort on filesystems without dir fds)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic fs
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic fs
        pass
    finally:
        os.close(fd)


#: Identity of one record for on-disk dedup: ``("v", key)``, ``("p",
#: key)``, ``("d", token)``, ``("c", token, build, seq)``.  Routine
#: markers (``r`` records labelled ``routine:<name>``) dedup by value —
#: a corpus re-run marking the same routines must not grow the meta
#: shard unboundedly.  Plain run markers have no identity (None): every
#: ``begin_run`` appends.
RecordId = Optional[Tuple]


def _record_identity(record: Tuple) -> RecordId:
    kind = record[0]
    if kind in ("v", "p", "d"):
        return (kind, record[1])
    if kind == "c":
        return ("c", record[1], record[2], record[3])
    if (
        kind == "r"
        and isinstance(record[2], str)
        and record[2].startswith("routine:")
    ):
        return ("r", record[1], record[2])
    return None


# -- compaction groups (groupcompress idiom) --------------------------------


def _delta_encode(base: bytes, text: bytes) -> Tuple[int, int, bytes]:
    """Encode ``text`` against ``base`` as (prefix, suffix, middle).

    Near-identical pickled payloads (plans for the same subscript shape,
    reports for structurally similar routines) share long prefixes and
    suffixes with the group's base; storing only the differing middle is
    the cheap core of the groupcompress idiom — no suffix trees needed
    for payloads this regular.
    """
    limit = min(len(base), len(text))
    prefix = 0
    while prefix < limit and base[prefix] == text[prefix]:
        prefix += 1
    suffix = 0
    limit -= prefix
    while (
        suffix < limit and base[-1 - suffix] == text[-1 - suffix]
    ):
        suffix += 1
    return prefix, suffix, text[prefix:len(text) - suffix]


def _delta_decode(base: bytes, delta: Tuple[int, int, bytes]) -> bytes:
    prefix, suffix, middle = delta
    tail = base[len(base) - suffix:] if suffix else b""
    return base[:prefix] + middle + tail


def _encode_group(payloads: List[bytes]) -> bytes:
    """Pickle several record payloads as one ``("g", blob)`` record.

    The first payload is stored verbatim as the group base; the rest are
    prefix/suffix deltas against it.  The whole structure is deflated,
    so shared middles compress too.
    """
    base = payloads[0]
    group = [base] + [_delta_encode(base, p) for p in payloads[1:]]
    blob = zlib.compress(pickle.dumps(group, protocol=4), GROUP_ZLIB_LEVEL)
    return pickle.dumps(("g", blob), protocol=4)


def _decode_group(record: Tuple) -> List[bytes]:
    group = pickle.loads(zlib.decompress(record[1]))
    base = group[0]
    return [base] + [_delta_decode(base, d) for d in group[1:]]


def _parse_records(data: bytes, offset: int, report: StoreReport, sink) -> int:
    """Walk ``data`` from ``offset``, decoding records into ``sink``.

    ``sink(record, start, end)`` is called once per decodable record.
    ``report`` accumulates counts, recovery-rule drops, and problems;
    the return value is the end offset of the last fully valid record —
    the safe truncation/resume point.
    """
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            report.truncated_at = offset
            report.drop_record("torn-frame", len(data) - offset)
            report.problems.append(
                f"torn record frame at byte {offset} "
                f"({len(data) - offset} trailing byte(s))"
            )
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if length > MAX_RECORD_SIZE or end > len(data):
            report.truncated_at = offset
            report.drop_record("torn-record", len(data) - offset)
            report.problems.append(
                f"torn record at byte {offset} "
                f"(claims {length} payload byte(s))"
            )
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            report.truncated_at = offset
            report.drop_record("crc-mismatch", len(data) - offset)
            report.problems.append(f"CRC mismatch at byte {offset}")
            break
        report.records += 1
        try:
            record = pickle.loads(payload)
            kind = record[0]
        except Exception as exc:
            # Framing and CRC are sound, so the stream resyncs at the
            # next record: drop just this one.
            report.dropped += 1
            report.drop_record("undecodable", end - offset)
            report.problems.append(
                f"undecodable record at byte {offset} dropped "
                f"({type(exc).__name__})"
            )
            offset = end
            continue
        if kind == "g":
            # A compaction group: expand members and hand each to the
            # sink as if it had been written plain.  An unreadable blob
            # loses only this frame (framing already resynced above).
            try:
                members = [pickle.loads(m) for m in _decode_group(record)]
            except Exception as exc:
                report.dropped += 1
                report.drop_record("undecodable", end - offset)
                report.problems.append(
                    f"undecodable compaction group at byte {offset} "
                    f"dropped ({type(exc).__name__})"
                )
                offset = end
                continue
            # The frame already counted once; members are the logical
            # records it carries.
            report.records += max(len(members) - 1, 0)
            for member in members:
                if _count_record(member, report, offset):
                    sink(member, offset, end)
                else:
                    report.dropped += 1
                    report.drop_record("unknown-kind")
                    report.problems.append(
                        f"unknown record kind {member[0]!r} in group at "
                        f"byte {offset} dropped"
                    )
            offset = end
            continue
        if not _count_record(record, report, offset):
            report.dropped += 1
            report.drop_record("unknown-kind", end - offset)
            report.problems.append(
                f"unknown record kind {kind!r} at byte {offset} dropped"
            )
            offset = end
            continue
        sink(record, offset, end)
        offset = end
    return report.truncated_at if report.truncated_at is not None else offset


def _count_record(record: Tuple, report: StoreReport, offset: int) -> bool:
    """Bump the per-kind counter; False for an unknown kind."""
    kind = record[0]
    if kind == "v":
        report.verdicts += 1
    elif kind == "p":
        report.plans += 1
    elif kind == "c":
        report.chunks += 1
    elif kind == "r":
        report.runs += 1
    elif kind == "d":
        report.reports += 1
    else:
        return False
    return True


def _scan_segment_file(path: Path, label: str) -> Tuple[StoreReport, List[Tuple]]:
    """Parse one segment file without repairing it: (report, records).

    Counts superseded duplicates into ``dead_bytes`` so ``store info``
    can show what compaction would reclaim.
    """
    report = StoreReport(path=path, label=label)
    try:
        stat = path.stat()
        data = path.read_bytes()
    except OSError as exc:
        report.problems.append(f"cannot read: {exc.strerror or exc}")
        return report, []
    report.size = len(data)
    report.mtime = stat.st_mtime
    if len(data) < _HEADER.size:
        report.rebuilt = True
        report.problems.append(
            f"header truncated ({len(data)} bytes, need {_HEADER.size})"
        )
        return report, []
    magic, version = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        report.rebuilt = True
        report.problems.append(f"bad magic {magic!r} (want {MAGIC!r})")
        return report, []
    report.version = version
    if version != SCHEMA_VERSION:
        report.rebuilt = True
        report.problems.append(
            f"schema version {version} (this build writes {SCHEMA_VERSION})"
        )
        return report, []
    records: List[Tuple] = []
    seen: Set[Tuple] = set()
    runs_seen = 0

    def sink(record, start, end):
        nonlocal runs_seen
        identity = _record_identity(record)
        if identity is not None:
            if identity in seen:
                report.dead_bytes += end - start
            seen.add(identity)
        elif record[0] == "r":
            # Only the latest run marker survives compaction.
            if runs_seen:
                report.dead_bytes += end - start
            runs_seen += 1
        records.append(record)

    _parse_records(data, _HEADER.size, report, sink)
    return report, records


# ---------------------------------------------------------------------------
# Sidecar locks
# ---------------------------------------------------------------------------


class _SidecarLock:
    """Advisory exclusive lock on a ``<segment>.lock`` sidecar file.

    ``fcntl.flock`` releases automatically when the holder dies, so a
    crashed writer never wedges a shard; the PID written into the file
    only serves diagnostics.  Acquisition retries with capped
    exponential backoff and per-sleep jitter (factor in [0.5, 1.5)) so
    contending writers spread out instead of retrying in lockstep.

    Sidecar files are unlinked on a clean :meth:`release(unlink=True)
    <release>`; the unlink is race-free because it happens while still
    holding the flock and every acquirer re-checks that the path still
    names the inode it locked (a lock on an orphaned inode is discarded
    and retried).
    """

    def __init__(self, path: Path, rng: Optional[random.Random] = None):
        self.path = path
        self._handle: Optional[io.TextIOWrapper] = None
        self._rng = rng if rng is not None else random.Random()

    @property
    def held(self) -> bool:
        return self._handle is not None

    def acquire(
        self,
        retries: int = LOCK_RETRIES,
        backoff: float = LOCK_BACKOFF,
        cap: float = LOCK_BACKOFF_CAP,
    ) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        delay = backoff
        holder = "an unknown process"
        for attempt in range(1, retries + 1):
            handle = open(self.path, "a+")
            locked = False
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                locked = True
            except OSError:
                holder = self._holder(handle)
            if locked:
                if self._stable(handle):
                    handle.seek(0)
                    handle.truncate()
                    handle.write(f"{os.getpid()}\n")
                    handle.flush()
                    self._handle = handle
                    return
                # We locked an inode that was unlinked/replaced between
                # our open and flock: discard it and take the fresh path.
                locked = False
            handle.close()
            if attempt < retries:
                time.sleep(delay * (0.5 + self._rng.random()))
                delay = min(delay * 2.0, cap)
        raise StoreLockError(
            f"shard lock {self.path} is held by {holder} "
            f"(gave up after {retries} attempts)"
        )

    def _stable(self, handle) -> bool:
        """True when ``path`` still names the inode ``handle`` locked."""
        try:
            return os.stat(self.path).st_ino == os.fstat(handle.fileno()).st_ino
        except OSError:
            return False

    def _holder(self, handle) -> str:
        try:
            handle.seek(0)
            pid = int(handle.read().strip() or "0")
        except (OSError, ValueError):
            return "an unknown process"
        if pid <= 0:
            return "an unknown process"
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            # The flock is held yet the recorded PID is dead: the lock
            # was re-acquired between our flock attempt and this read.
            return f"pid {pid} (stale: process is gone)"
        except PermissionError:  # pragma: no cover - other-user process
            pass
        return f"pid {pid}"

    def release(self, unlink: bool = False) -> None:
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        if fcntl is not None:
            if unlink:
                # Still holding the flock: nobody else can have acquired
                # through this inode, and acquirers re-check the path
                # inode, so removing the sidecar cannot orphan a holder.
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - lock already gone
                pass
        handle.close()

    def cleanup(self) -> None:
        """Best-effort sidecar removal: take the lock without waiting
        (single attempt) and unlink; a live holder keeps its file."""
        if fcntl is None or self._handle is not None:  # pragma: no cover
            return
        try:
            self.acquire(retries=1, backoff=0.0)
        except (StoreLockError, OSError):
            return
        self.release(unlink=True)


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


class _Segment:
    """One append-only segment file of a v2 store (a shard or ``meta``).

    Tracks how far this process has parsed the file (``offset``/``ino``)
    and which record identities it knows are on disk (``keys``) so
    batched appends can skip records a concurrent writer already
    persisted.  ``pending`` holds encoded-but-unflushed records.
    """

    def __init__(self, path: Path, label: str, shard):
        self.path = path
        self.label = label
        self.shard = shard  # int shard id, or META_SHARD
        self.lock = _SidecarLock(path.with_name(path.name + ".lock"))
        self.offset = _HEADER.size
        self.ino: Optional[int] = None
        self.quarantined = False
        self.keys: Set[Tuple] = set()
        self.pending: List[Tuple[RecordId, bytes]] = []


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class VerdictStore:
    """Sharded, crash-safe, multi-writer on-disk verdict and plan store.

    Open-or-create at ``path`` (a directory for v2 stores; a legacy v1
    file opens read-only).  The whole live state loads into memory on
    open, appends buffer per shard, and :meth:`checkpoint` makes them
    durable — taking each dirty shard's lock only for the append batch,
    so any number of processes may write the same store concurrently.
    Lookup misses poll the key's shard tail, making concurrent writers'
    verdicts visible mid-run; :meth:`foreign` reports which resident
    keys arrived from another process.

    Shard-scoped failures quarantine the shard (see ``events``); only
    whole-store failures (closed store, read-only store) raise.
    """

    def __init__(
        self,
        path: os.PathLike,
        shards: Optional[int] = None,
        checkpoint_interval: int = CHECKPOINT_INTERVAL,
    ):
        self.path = Path(path)
        self.checkpoint_interval = max(int(checkpoint_interval), 1)
        if shards is not None and not 1 <= shards <= MAX_SHARDS:
            raise ValueError(
                f"shard count must be in [1, {MAX_SHARDS}], got {shards}"
            )
        self._verdicts: Dict[CanonicalKey, CacheEntry] = {}
        self._plans: Dict[CanonicalKey, TestPlan] = {}
        self._reports: Dict[str, object] = {}
        self._chunks: Set[Tuple[str, int, int]] = set()
        self._runs: List[Tuple[str, str]] = []
        # Membership index over _runs: folding meta at corpus scale
        # (tens of thousands of routine markers) must not be O(n^2).
        self._runs_seen: Set[Tuple[str, str]] = set()
        self._foreign: Set[CanonicalKey] = set()
        self._shard_memo: Dict[CanonicalKey, int] = {}
        self._pending_total = 0
        self._closed = False
        self.read_only = False
        self.salt = 0
        #: Absorbed shard-scoped failures as ``(where, message)`` pairs,
        #: drained by the engine into ``"store"`` failure records.
        self.events: List[Tuple[str, str]] = []
        self._segments: List[_Segment] = []
        self._meta: Optional[_Segment] = None
        self.recovered_report: Optional[StoreReport] = None
        # One stat picks the branch.  With two checks, a concurrent
        # creator's directory could appear between them and be taken for
        # a stray file to delete.
        try:
            mode: Optional[int] = self.path.stat().st_mode
        except (FileNotFoundError, NotADirectoryError):
            mode = None
        if mode is not None and S_ISDIR(mode):
            self._open_v2(shards)
        elif mode is not None:
            if self._looks_like_v1(self.path):
                self._open_v1_read_only()
            else:
                # Not a store at all: discard and start a fresh v2
                # directory (verdicts are derived data).
                report = StoreReport(path=self.path, rebuilt=True)
                report.problems.append("unrecognized store file")
                self.recovered_report = report
                self.path.unlink()
                self._create_v2(shards or DEFAULT_SHARDS)
                print(
                    f"repro-deps: store {self.path}: unrecognized store "
                    "file; rebuilt empty",
                    file=sys.stderr,
                )
        else:
            self._create_v2(shards or DEFAULT_SHARDS)

    # -- open / create ---------------------------------------------------

    @staticmethod
    def _looks_like_v1(path: Path) -> bool:
        try:
            with open(path, "rb") as handle:
                magic = handle.read(len(MAGIC))
        except OSError:
            return False
        return magic == MAGIC

    def _manifest_path(self) -> Path:
        return self.path / "manifest"

    def _shard_path(self, shard: int) -> Path:
        return self.path / f"shard-{shard:03d}.seg"

    def _meta_path(self) -> Path:
        return self.path / f"{META_SHARD}.seg"

    def _write_manifest(self, shard_count: int, salt: int) -> None:
        body = _MANIFEST.pack(MANIFEST_MAGIC, STORE_VERSION, shard_count, salt)
        body += struct.pack("<I", zlib.crc32(body))
        _atomic_create(self._manifest_path(), body, header=False)

    @staticmethod
    def read_manifest(path: Path) -> Tuple[Optional[Tuple[int, int]], str]:
        """Parse ``<dir>/manifest``: ``((shard_count, salt), "")`` or
        ``(None, reason)``."""
        manifest = Path(path) / "manifest"
        try:
            data = manifest.read_bytes()
        except OSError as exc:
            return None, f"manifest unreadable: {exc.strerror or exc}"
        if len(data) != _MANIFEST.size + 4:
            return None, f"manifest truncated ({len(data)} bytes)"
        magic, version, shard_count, salt = _MANIFEST.unpack_from(data, 0)
        (crc,) = struct.unpack_from("<I", data, _MANIFEST.size)
        if magic != MANIFEST_MAGIC:
            return None, f"bad manifest magic {magic!r}"
        if crc != zlib.crc32(data[: _MANIFEST.size]):
            return None, "manifest CRC mismatch"
        if version != STORE_VERSION:
            return None, f"store format v{version} (this build writes v{STORE_VERSION})"
        if not 1 <= shard_count <= MAX_SHARDS:
            return None, f"implausible shard count {shard_count}"
        return (shard_count, salt), ""

    def _create_v2(self, shard_count: int) -> None:
        # Stage the directory with its manifest already inside and
        # rename it into place, so concurrent creators race on a single
        # atomic rename: only the winner's manifest (and salt) is ever
        # visible, and the loser simply opens the winner's store.
        staging = self.path.with_name(f"{self.path.name}.create-{os.getpid()}")
        if staging.exists():
            import shutil

            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        salt = struct.unpack("<I", os.urandom(4))[0]
        body = _MANIFEST.pack(MANIFEST_MAGIC, STORE_VERSION, shard_count, salt)
        body += struct.pack("<I", zlib.crc32(body))
        _atomic_create(staging / "manifest", body, header=False)
        try:
            os.rename(staging, self.path)
        except OSError:
            import shutil

            shutil.rmtree(staging, ignore_errors=True)
            self._open_v2(shard_count)
            return
        _fsync_dir(self.path.parent)
        self._build_segments(shard_count, salt)
        report = StoreReport(
            path=self.path, version=STORE_VERSION,
            shard_count=shard_count, salt=salt,
        )
        for segment in self._all_segments():
            self._recover_segment(segment, report)
        self.recovered_report = report

    def _open_v2(self, shards: Optional[int]) -> None:
        parsed, reason = self.read_manifest(self.path)
        if parsed is None:
            # A corrupt or missing manifest cannot be trusted for shard
            # assignment; rebuild it with a fresh salt.  Existing
            # segments are still folded (lookups use the global map), so
            # prior verdicts survive — only future shard placement moves.
            shard_count = shards or DEFAULT_SHARDS
            salt = struct.unpack("<I", os.urandom(4))[0]
            self._write_manifest(shard_count, salt)
            print(
                f"repro-deps: store {self.path}: {reason}; manifest rebuilt",
                file=sys.stderr,
            )
        else:
            shard_count, salt = parsed
        self._build_segments(shard_count, salt)
        report = StoreReport(
            path=self.path, version=STORE_VERSION,
            shard_count=shard_count, salt=salt,
        )
        if parsed is None:
            report.problems.append(f"{reason}; manifest rebuilt")
        for segment in self._all_segments():
            self._recover_segment(segment, report)
        self.recovered_report = report

    def _build_segments(self, shard_count: int, salt: int) -> None:
        self.salt = salt
        self._segments = [
            _Segment(self._shard_path(i), f"shard {i}", i)
            for i in range(shard_count)
        ]
        self._meta = _Segment(self._meta_path(), META_SHARD, META_SHARD)

    def _all_segments(self) -> List[_Segment]:
        return self._segments + ([self._meta] if self._meta else [])

    def _recover_segment(self, segment: _Segment, report: StoreReport) -> None:
        """Open-time recovery of one segment, under its lock.

        A torn tail found here belongs to a crashed writer (live writers
        only append while holding the lock) and is truncated back to the
        last valid record boundary.  A magic/schema mismatch rebuilds
        the segment empty.  Lock starvation or I/O failure quarantines
        the segment instead of failing the open.
        """
        try:
            faultinject.on_segment_open(segment.path, segment.shard)
            _exclusive_create(segment.path)
            segment.lock.acquire()
        except StoreLockError as exc:
            self._quarantine(segment, exc)
            report.fold(StoreReport(path=segment.path, label=segment.label,
                                    problems=[str(exc)]))
            return
        except OSError as exc:
            self._quarantine(segment, exc)
            report.fold(StoreReport(path=segment.path, label=segment.label,
                                    problems=[f"cannot create: {exc}"]))
            return
        try:
            faultinject.on_lock_held(segment.shard)
            sub, records = _scan_segment_file(segment.path, segment.label)
            if sub.rebuilt:
                _atomic_create(segment.path)
                print(
                    f"repro-deps: store {self.path} {segment.label}: "
                    f"{sub.problems[0]}; rebuilt empty",
                    file=sys.stderr,
                )
                sub.records = sub.verdicts = sub.plans = 0
                sub.chunks = sub.runs = sub.size = 0
                segment.offset = _HEADER.size
            else:
                for record in records:
                    self._fold(segment, record, foreign=False)
                if sub.truncated_at is not None:
                    with open(segment.path, "r+b") as handle:
                        handle.truncate(sub.truncated_at)
                        handle.flush()
                        os.fsync(handle.fileno())
                    print(
                        f"repro-deps: store {self.path} {segment.label}: "
                        f"dropped corrupt tail at byte {sub.truncated_at} "
                        f"({sub.problems[-1]})",
                        file=sys.stderr,
                    )
                    segment.offset = sub.truncated_at
                else:
                    segment.offset = _HEADER.size + max(sub.size - _HEADER.size, 0)
            segment.ino = os.stat(segment.path).st_ino
            report.fold(sub)
        except OSError as exc:
            self._quarantine(segment, exc)
            report.fold(StoreReport(path=segment.path, label=segment.label,
                                    problems=[f"recovery failed: {exc}"]))
        finally:
            segment.lock.release()

    def _open_v1_read_only(self) -> None:
        """Legacy single-segment file: serve reads, refuse writes."""
        self.read_only = True
        report, records = _scan_segment_file(self.path, "store")
        report.version = report.version if report.version is not None else None
        if report.rebuilt:
            # Even read-only fallback refuses to deserialize a wrong
            # schema; the store opens empty (lookups all miss).
            self.recovered_report = report
            return
        shim = _Segment(self.path, "store", 0)
        for record in records:
            self._fold(shim, record, foreign=False)
        self.recovered_report = report

    # -- record folding ---------------------------------------------------

    def _fold(self, segment: _Segment, record: Tuple, foreign: bool) -> None:
        """Adopt one on-disk record into the in-memory view."""
        kind = record[0]
        identity = _record_identity(record)
        if identity is not None:
            segment.keys.add(identity)
        if kind == "v":
            if record[1] not in self._verdicts:
                self._verdicts[record[1]] = record[2]
                if foreign:
                    self._foreign.add(record[1])
        elif kind == "p":
            self._plans.setdefault(record[1], record[2])
        elif kind == "d":
            self._reports.setdefault(record[1], record[2])
        elif kind == "c":
            self._chunks.add((record[1], record[2], record[3]))
        elif kind == "r":
            # A compaction-triggered re-parse replays markers already
            # resident; dedup every marker by value.
            marker = (record[1], record[2])
            if marker not in self._runs_seen:
                self._runs_seen.add(marker)
                self._runs.append(marker)

    def _quarantine(self, segment: _Segment, exc: Exception, dropped: int = 0) -> None:
        """Degrade one shard to memory-only after an absorbed failure."""
        if segment.quarantined:
            return
        segment.quarantined = True
        segment.pending.clear()
        note = f"{type(exc).__name__}: {exc}"
        if dropped:
            note += f" ({dropped} buffered record(s) not persisted)"
        self.events.append(
            (
                f"store {self.path} [{segment.label}]",
                f"{note}; shard quarantined, continuing memory-only",
            )
        )

    def drain_events(self) -> List[Tuple[str, str]]:
        """Return and clear absorbed shard-failure events."""
        events, self.events = self.events, []
        return events

    @property
    def quarantined_shards(self) -> List[str]:
        return [s.label for s in self._all_segments() if s.quarantined]

    # -- shard routing -----------------------------------------------------

    def _shard_of(self, key: CanonicalKey) -> int:
        shard = self._shard_memo.get(key)
        if shard is None:
            blob = pickle.dumps(key, protocol=4)
            shard = zlib.crc32(blob, self.salt) % max(len(self._segments), 1)
            if len(self._shard_memo) >= _SHARD_MEMO_LIMIT:
                self._shard_memo.clear()
            self._shard_memo[key] = shard
        return shard

    def _segment_for(self, key: CanonicalKey) -> Optional[_Segment]:
        if not self._segments:
            return None
        return self._segments[self._shard_of(key)]

    # -- sizes -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._verdicts)

    @property
    def plan_count(self) -> int:
        return len(self._plans)

    @property
    def report_count(self) -> int:
        return len(self._reports)

    @property
    def closed(self) -> bool:
        return self._closed

    def size(self) -> int:
        """Total on-disk bytes across every segment (0 for a v1 store's
        directory form; v1 files report their own size)."""
        if self.read_only:
            try:
                return self.path.stat().st_size
            except OSError:
                return 0
        total = 0
        for segment in self._all_segments():
            try:
                total += segment.path.stat().st_size
            except OSError:
                continue
        return total

    # -- tail polling (cross-process visibility) --------------------------

    def _poll(self, segment: Optional[_Segment]) -> bool:
        """Fold records a concurrent writer appended to ``segment``.

        Lock-free: a torn tail may be an in-flight append, so parsing
        stops at the first invalid record without advancing past it (the
        next poll retries).  Returns True when anything was folded.
        """
        if (
            segment is None
            or segment.quarantined
            or self._closed
            or self.read_only
        ):
            return False
        try:
            stat = os.stat(segment.path)
        except OSError:
            return False
        if stat.st_ino == segment.ino and stat.st_size <= segment.offset:
            return False
        try:
            data = segment.path.read_bytes()
        except OSError:
            return False
        start = segment.offset
        if stat.st_ino != segment.ino or len(data) < segment.offset:
            # Replaced (compacted) or shrunk: re-parse from the header.
            # Folding is idempotent, so records already resident are
            # simply skipped.
            if len(data) < _HEADER.size or data[:4] != MAGIC:
                return False
            start = _HEADER.size
        folded = False
        scratch = StoreReport(path=segment.path, label=segment.label)
        before = (
            len(self._verdicts) + len(self._plans)
            + len(self._reports) + len(self._chunks)
        )

        def sink(record, _start, _end):
            known = _record_identity(record)
            if known is not None and known in segment.keys:
                return
            self._fold(segment, record, foreign=True)

        end = _parse_records(data, start, scratch, sink)
        folded = (
            len(self._verdicts) + len(self._plans)
            + len(self._reports) + len(self._chunks)
        ) > before
        segment.offset = end
        segment.ino = stat.st_ino
        return folded

    def foreign(self, key: CanonicalKey) -> bool:
        """True when ``key``'s resident entry arrived from a concurrent
        process (folded from a shard tail after this store opened)."""
        return key in self._foreign

    # -- reads -----------------------------------------------------------

    def get(self, key: CanonicalKey) -> Optional[CacheEntry]:
        entry = self._verdicts.get(key)
        if entry is None and self._segments:
            if self._poll(self._segment_for(key)):
                entry = self._verdicts.get(key)
        return entry

    def contains(self, key: CanonicalKey) -> bool:
        return self.get(key) is not None

    def get_plan(self, key: CanonicalKey) -> Optional[TestPlan]:
        plan = self._plans.get(key)
        if plan is None and self._segments:
            if self._poll(self._segment_for(key)):
                plan = self._plans.get(key)
        return plan

    def get_report(self, token: str) -> Optional[object]:
        """The report document stored under ``token`` (or None).

        Misses poll the token's shard tail like verdict reads, so a
        sibling corpus writer's completed routines become skippable
        mid-run.
        """
        value = self._reports.get(token)
        if value is None and self._segments:
            if self._poll(self._segment_for(token)):
                value = self._reports.get(token)
        return value

    def chunk_done(self, token: str, build: int, seq: int) -> bool:
        if (token, build, seq) in self._chunks:
            return True
        self._poll(self._meta)
        return (token, build, seq) in self._chunks

    def chunks_done(self, token: str) -> Set[Tuple[int, int]]:
        """Completed ``(build, seq)`` markers recorded under ``token``."""
        self._poll(self._meta)
        return {(b, s) for t, b, s in self._chunks if t == token}

    def runs(self) -> List[Tuple[str, str]]:
        """Every ``(token, label)`` run marker, in append order."""
        self._poll(self._meta)
        return list(self._runs)

    # -- writes ----------------------------------------------------------

    def _check_writable(self) -> None:
        if self._closed:
            raise StoreError(f"store {self.path} is closed")
        if self.read_only:
            raise StoreReadOnlyError(
                f"store {self.path} is a legacy v1 file opened read-only "
                "(run `repro-deps store migrate` to upgrade it)"
            )

    def _queue(self, segment: Optional[_Segment], identity: RecordId,
               record: Tuple) -> None:
        if segment is None or segment.quarantined:
            return  # memory-only for this shard
        segment.pending.append(
            (identity, _encode_record(pickle.dumps(record, protocol=4)))
        )
        self._pending_total += 1
        if self._pending_total >= self.checkpoint_interval:
            self.checkpoint()

    def put(self, key: CanonicalKey, entry: CacheEntry) -> None:
        """Persist one verdict.  Assumed (degraded) verdicts are refused."""
        self._check_writable()
        faultinject.on_store_put()
        if entry.assumed:
            raise StoreError(
                "assumed verdicts are never persisted "
                "(conservative-degradation contamination guarantee)"
            )
        if self._verdicts.get(key) is not None:
            return
        self._verdicts[key] = entry
        self._queue(self._segment_for(key), ("v", key), ("v", key, entry))

    def put_plan(self, key: CanonicalKey, plan: TestPlan) -> None:
        self._check_writable()
        faultinject.on_store_put()
        if self._plans.get(key) is not None:
            return
        self._plans[key] = plan
        self._queue(self._segment_for(key), ("p", key), ("p", key, plan))

    def put_report(self, token: str, value: object) -> None:
        """Persist one report document under its content token.

        The record doubles as a completion marker: the corpus driver
        only writes it after a routine (or file) analyzed cleanly, so
        presence implies the payload replays a healthy run's output.
        Degraded reports must not be offered here — like assumed
        verdicts, they would contaminate later runs.
        """
        self._check_writable()
        faultinject.on_store_put()
        if token in self._reports:
            return
        self._reports[token] = value
        self._queue(self._segment_for(token), ("d", token), ("d", token, value))

    def mark_chunk(self, token: str, build: int, seq: int) -> None:
        self._check_writable()
        marker = (token, build, seq)
        if marker in self._chunks:
            return
        self._chunks.add(marker)
        self._queue(self._meta, ("c",) + marker, ("c", token, build, seq))

    def mark_run(self, token: str, label: str) -> None:
        self._check_writable()
        marker = (token, label)
        identity = _record_identity(("r", token, label))
        if identity is not None and marker in self._runs_seen:
            return  # routine markers dedup: re-runs must not grow meta
        self._runs_seen.add(marker)
        self._runs.append(marker)
        self._queue(self._meta, identity, ("r", token, label))

    # -- durability -------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush and fsync buffered appends (a durability barrier).

        Data shards flush before the meta shard, so a chunk/run marker
        is never durable before the verdicts it covers — the resume
        protocol's ordering invariant, preserved across shards.
        """
        if self._closed or self.read_only:
            return
        for segment in self._segments:
            if segment.pending:
                self._flush(segment)
        if self._meta is not None and self._meta.pending:
            self._flush(self._meta)

    def _flush(self, segment: _Segment) -> None:
        """Append one shard's buffered records under its lock."""
        pending, segment.pending = segment.pending, []
        self._pending_total -= len(pending)
        if segment.quarantined:
            return
        try:
            segment.lock.acquire()
        except StoreLockError as exc:
            self._quarantine(segment, exc, dropped=len(pending))
            return
        try:
            faultinject.on_lock_held(segment.shard)
            self._sync_under_lock(segment)
            with open(segment.path, "r+b") as handle:
                handle.seek(segment.offset)
                for identity, encoded in pending:
                    if identity is not None and identity in segment.keys:
                        continue  # a concurrent writer beat us to it
                    handle.write(encoded)
                    if identity is not None:
                        segment.keys.add(identity)
                    faultinject.on_store_append(segment.shard)
                handle.flush()
                os.fsync(handle.fileno())
                segment.offset = handle.tell()
                segment.ino = os.fstat(handle.fileno()).st_ino
        except (OSError, StoreError) as exc:
            self._quarantine(segment, exc, dropped=len(pending))
        finally:
            segment.lock.release()

    def _sync_under_lock(self, segment: _Segment) -> None:
        """Catch up with concurrent writers while holding the lock.

        Folds any tail records another process appended since our last
        look.  A torn tail seen *under the lock* cannot be in-flight —
        writers only touch the file locked — so it is a crashed writer's
        residue and is truncated before we append after it.
        """
        stat = os.stat(segment.path)
        start = segment.offset
        if stat.st_ino != segment.ino and segment.ino is not None:
            start = _HEADER.size  # replaced by a compaction: re-parse
        elif stat.st_size < segment.offset:
            start = _HEADER.size
        elif stat.st_size == segment.offset:
            segment.ino = stat.st_ino
            return
        data = segment.path.read_bytes()
        if len(data) < _HEADER.size or data[:4] != MAGIC:
            # The segment was destroyed under us; rebuild it empty.
            _atomic_create(segment.path)
            segment.keys.clear()
            segment.offset = _HEADER.size
            segment.ino = os.stat(segment.path).st_ino
            return
        scratch = StoreReport(path=segment.path, label=segment.label)

        def sink(record, _start, _end):
            identity = _record_identity(record)
            if identity is not None and identity in segment.keys:
                return
            self._fold(segment, record, foreign=True)

        end = _parse_records(data, start, scratch, sink)
        if end < len(data):
            with open(segment.path, "r+b") as handle:
                handle.truncate(end)
                handle.flush()
                os.fsync(handle.fileno())
        segment.offset = end
        segment.ino = stat.st_ino

    # -- maintenance ------------------------------------------------------

    def compact(self) -> "CompactionResult":
        """Rewrite every shard's live state as fresh, delta-packed segments.

        Verdicts rewrite as plain records (the hot replay path stays
        cheap to poll); plans and report documents — near-identical
        pickles — are grouped :data:`GROUP_SIZE` at a time and
        delta-compressed against a shared base (``g`` records, the
        groupcompress idiom), which is what keeps a corpus-scale store
        small.  Returns a :class:`CompactionResult` (unpacks as the
        historical ``(before, after)`` byte totals; per-shard deltas
        ride in ``.shards``).

        Each shard is rewritten under its lock via temp file + atomic
        rename, so a crash mid-compaction leaves that shard's old
        segment intact and every other shard either fully old or fully
        new — never mixed within one segment.  Quarantined shards are
        skipped.  Chunk markers and deduped routine markers survive
        (resume state must not be lost to maintenance); of the plain
        run markers only the latest is kept.
        """
        self._check_writable()
        self.checkpoint()
        before_total = self.size()
        shard_sizes: List[Tuple[str, int, int]] = []
        for segment in self._all_segments():
            if segment.quarantined:
                continue
            try:
                segment.lock.acquire()
            except StoreLockError as exc:
                self._quarantine(segment, exc)
                continue
            try:
                faultinject.on_lock_held(segment.shard)
                self._sync_under_lock(segment)
                try:
                    seg_before = segment.path.stat().st_size
                except OSError:
                    seg_before = 0
                body = io.BytesIO()
                keys: Set[Tuple] = set()
                for identity in sorted(
                    (i for i in segment.keys if i[0] == "v"),
                    key=lambda i: repr(i[1]),
                ):
                    entry = self._verdicts.get(identity[1])
                    if entry is None:
                        continue
                    body.write(_encode_record(
                        pickle.dumps(("v", identity[1], entry), protocol=4)
                    ))
                    keys.add(identity)
                for kind, live in (("p", self._plans), ("d", self._reports)):
                    payloads: List[bytes] = []
                    for identity in sorted(
                        (i for i in segment.keys if i[0] == kind),
                        key=lambda i: repr(i[1]),
                    ):
                        value = live.get(identity[1])
                        if value is None:
                            continue
                        payloads.append(pickle.dumps(
                            (kind, identity[1], value), protocol=4
                        ))
                        keys.add(identity)
                    for start in range(0, len(payloads), GROUP_SIZE):
                        body.write(_encode_record(
                            _encode_group(payloads[start:start + GROUP_SIZE])
                        ))
                if segment is self._meta:
                    for token, build, seq in sorted(self._chunks):
                        body.write(_encode_record(pickle.dumps(
                            ("c", token, build, seq), protocol=4
                        )))
                        keys.add(("c", token, build, seq))
                    kept: List[Tuple[str, str]] = []
                    last_plain: Optional[Tuple[str, str]] = None
                    for marker in self._runs:
                        if marker[1].startswith("routine:"):
                            kept.append(marker)  # _runs is already deduped
                        else:
                            last_plain = marker
                    if last_plain is not None:
                        kept.append(last_plain)
                    self._runs = kept
                    self._runs_seen = set(kept)
                    for token, label in kept:
                        record = ("r", token, label)
                        body.write(_encode_record(
                            pickle.dumps(record, protocol=4)
                        ))
                        identity = _record_identity(record)
                        if identity is not None:
                            keys.add(identity)
                faultinject.on_compact(segment.shard)
                _atomic_create(segment.path, body.getvalue())
                segment.keys = keys
                segment.offset = _HEADER.size + len(body.getvalue())
                segment.ino = os.stat(segment.path).st_ino
                shard_sizes.append(
                    (segment.label, seg_before, segment.offset)
                )
            except (OSError, StoreError) as exc:
                self._quarantine(segment, exc)
            finally:
                segment.lock.release()
        return CompactionResult(before_total, self.size(), shard_sizes)

    def close(self) -> None:
        """Checkpoint, then release and tidy shard sidecars (idempotent).

        Sidecar ``.lock`` files are unlinked when no other process holds
        them, so dead-holder locks never accumulate next to the store.
        """
        if self._closed:
            return
        if not self.read_only:
            try:
                self.checkpoint()
            finally:
                for segment in self._all_segments():
                    segment.lock.cleanup()
        self._closed = True

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        if self.read_only:
            state += ", read-only v1"
        return (
            f"VerdictStore({str(self.path)!r}, {len(self)} verdicts, "
            f"{self.plan_count} plans, {state})"
        )

    # -- offline scanning --------------------------------------------------

    @classmethod
    def scan(cls, path: os.PathLike) -> StoreReport:
        """Parse a store (v2 directory or v1 file) without repairing it.

        Used by ``repro-deps store verify``/``info``.  For a v2 store the
        report aggregates every segment; per-segment sub-reports are in
        ``report.shards``.
        """
        path = Path(path)
        if path.is_dir():
            parsed, reason = cls.read_manifest(path)
            report = StoreReport(path=path, version=STORE_VERSION)
            if parsed is None:
                report.rebuilt = True
                report.problems.append(reason)
                return report
            shard_count, salt = parsed
            report.shard_count = shard_count
            report.salt = salt
            for i in range(shard_count):
                sub, _ = _scan_segment_file(
                    path / f"shard-{i:03d}.seg", f"shard {i}"
                )
                report.fold(sub)
            sub, _ = _scan_segment_file(path / f"{META_SHARD}.seg", META_SHARD)
            report.fold(sub)
            return report
        report, _ = _scan_segment_file(path, "store")
        return report


# ---------------------------------------------------------------------------
# v1 → v2 migration
# ---------------------------------------------------------------------------


def migrate_store(
    path: os.PathLike, shards: int = DEFAULT_SHARDS
) -> Tuple[int, int]:
    """Upgrade a legacy v1 store *file* to a v2 shard directory in place.

    Returns ``(verdicts, plans)`` migrated.  The new directory is built
    beside the original, the v1 file is renamed to ``<name>.v1``, the
    directory takes its place, and the backup is removed — so a crash at
    any point leaves either the intact v1 file or a complete v2 store
    (plus, mid-swap, the ``.v1`` backup to recover from by hand).

    Raises :class:`StoreError` when ``path`` is not a readable v1 store
    (an existing v2 directory is reported as already migrated).
    """
    path = Path(path)
    if path.is_dir():
        raise StoreError(f"store {path} is already a v{STORE_VERSION} directory")
    if not path.exists():
        raise StoreError(f"store {path} does not exist")
    report, records = _scan_segment_file(path, "store")
    if report.rebuilt:
        raise StoreError(
            f"store {path} is not a readable v1 store ({report.problems[0]})"
        )
    staging = path.with_name(path.name + ".migrate")
    if staging.exists():
        import shutil

        shutil.rmtree(staging)
    store = VerdictStore(staging, shards=shards)
    try:
        verdicts = plans = 0
        for record in records:
            kind = record[0]
            if kind == "v" and not getattr(record[2], "assumed", False):
                store.put(record[1], record[2])
                verdicts += 1
            elif kind == "p":
                store.put_plan(record[1], record[2])
                plans += 1
            elif kind == "c":
                store.mark_chunk(record[1], record[2], record[3])
            elif kind == "r":
                store.mark_run(record[1], record[2])
    finally:
        store.close()
    backup = path.with_name(path.name + ".v1")
    os.replace(path, backup)
    os.replace(staging, path)
    _fsync_dir(path.parent)
    try:
        os.unlink(backup)
    except OSError:  # pragma: no cover - backup already gone
        pass
    return verdicts, plans
