"""Write-ahead log: append-only, checksummed, torn-tail tolerant.

Logical operations (``insert`` / ``delete`` / ``insert_many``) are
framed as binary records::

    <payload length: u32 LE> <CRC32(payload): u32 LE> <payload bytes>

An ``insert_many`` whose items are all ``(int, int)`` pairs with exact
int keys and values in int64 range is written in the packed form of
:mod:`repro.core.codec`: tag byte 0x02, a little-endian u32 count, then
a key column and a value column, each the narrowest of int32/int64 that
holds its entries.  Every other record — ``insert``, ``delete``, epoch
markers, and batches holding floats, strings, tuples, ``None``,
``bool`` or ints beyond int64 — is the ``repr`` of a Python literal.
A v3 snapshot body (:mod:`repro.core.persist`) is a run of these same
framed ``insert_many`` records, so exactly the key/value types a
snapshot can hold are loggable.  Packed tags sit in
0x01-0x1F, where no ``repr`` starts, so the decoder picks the form from
the first payload byte and logs written before the packed form existed
replay unchanged.  The reverse does not hold: older code counts a
packed record as corruption, so a log holding packed records (and a
primary shipping them to replicas) needs current readers.

Records accumulate in numbered segment files (``wal-00000001.seg``, ...)
inside a directory; a segment that outgrows ``segment_bytes`` is closed
and a new one started, so a checkpoint's truncation deletes whole files.

Durability is governed by the fsync policy:

* ``"always"`` — flush + fsync after every append; an acknowledged write
  survives any crash.
* ``"interval"`` — fsync every ``_FSYNC_INTERVAL`` (64) appends (and on
  rotation/close); bounded loss window, much cheaper.  **An
  interval-mode acknowledgement is NOT durable until the next fsync**:
  the append has only been flushed to the OS page cache when the call
  returns, so a crash inside the window loses up to ``_FSYNC_INTERVAL``
  acknowledged records.  The ``unsynced_acks`` counter tracks exactly
  how many acknowledgements were handed out before their bytes were
  fsynced, so tests (and operators) can see the loss window.
* ``"none"`` — leave it to the OS page cache (every ack is unsynced).
* ``"group"`` — **group commit**: appends from any number of writer
  threads are enqueued on a bounded queue and coalesced by a dedicated
  flusher thread into a single ``write + fsync``; every writer in the
  batch is released together once that one fsync returns.  Same crash
  guarantee as ``"always"`` (no acknowledgement before the batch's
  fsync), at a fraction of the fsync count under concurrency.  Writers
  can also *pipeline*: ``submit_*`` returns a :class:`CommitTicket`
  immediately and ``CommitTicket.result()`` awaits durability later.

Every walk over framed records — replay, the replication reader, the
scrubber, offline verify and the v3 snapshot body — goes through one
loop, :class:`FrameScan`, and judges where it stopped by one rule,
:func:`is_damage`: a torn frame at the end of the newest segment is an
append in flight and harmless; a torn frame below the tail, a checksum
failure or a missing middle segment is damage.  Each caller keeps only
its response.  Replay (:func:`replay_wal`) never raises: it ends at
the first stop, harmless or not, and reports what was dropped, and
:func:`repair_wal` then truncates the log back to its last valid
record so post-recovery appends are never hidden behind garbage.  The
reader (:class:`WALReader`) raises :class:`WALStreamError` at damage
and returns at a harmless stop.  Segment reads start at the caller's
offset, so a tailing reader reads only the bytes past its cursor.
"""

from __future__ import annotations

import ast
import errno
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Optional, Union

from ..concurrency import sanitizer
from ..testing import faults
from . import codec
from .health import HealthMonitor, ReadOnlyError, RetryPolicy
from .node import Key

_HEADER = struct.Struct("<II")
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"

#: Logical op tags used in record payloads.
OP_INSERT = "i"
OP_DELETE = "d"
OP_INSERT_MANY = "m"
#: Replication epoch marker: ``("e", epoch)``.  Carries no tree data —
#: it stamps the primary's epoch into the record stream so replicas can
#: detect a deposed primary (see :mod:`repro.replication`).
OP_EPOCH = "e"

_FSYNC_POLICIES = ("always", "interval", "none", "group")

#: Appends between fsyncs under ``fsync="interval"``.
_FSYNC_INTERVAL = 64
#: Records that may wait for the group-commit flusher before writers
#: block (backpressure).
_GROUP_QUEUE_MAX = 8192
#: Transient-fault retry for every append, fsync and segment open, and
#: for the owning DurableTree's snapshot writes.
_RETRY = RetryPolicy()


class WALError(ValueError):
    """Raised for unloggable values or misuse of the WAL API."""


class WALDeadError(WALError):
    """The group-commit flusher died and can never acknowledge again.

    Every :class:`CommitTicket` that was pending when the flusher died —
    drained or still queued — is failed with this error, so callers
    blocked in ``wait()``/``sync()`` return immediately instead of
    hanging against a dead thread.  ``__cause__`` carries the exception
    that killed the flusher.
    """


class CommitTicket:
    """Asynchronous durability acknowledgement for one WAL append.

    A ticket is *resolved* when the record's batch fsync has returned
    (the write is durable) and *failed* when the flusher could not make
    it durable — :meth:`wait` / :meth:`result` then re-raise the
    flusher's exception in the waiting thread, so an injected crash or
    fsync failure is never silently converted into an acknowledgement.

    ``value`` carries the logical result of the op the caller paired
    with this append (e.g. ``delete``'s existed-bool); the submitting
    facade assigns it before handing the ticket out, so any thread that
    legitimately holds a ticket may read it after :meth:`result`.

    Under the non-group fsync policies the submit APIs degrade to the
    synchronous path and return an already-resolved ticket, so callers
    can be written against tickets regardless of policy.
    """

    __slots__ = ("_event", "_exc", "value")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._exc: Optional[BaseException] = None
        self.value: Any = None

    def done(self) -> bool:
        """True once the ticket is resolved or failed (non-blocking)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until durable; re-raise the flusher's failure, if any."""
        if not self._event.wait(timeout):
            raise WALError(
                f"commit ticket not resolved within {timeout}s"
            )
        exc = self._exc
        if exc is not None:
            raise exc

    def result(self, timeout: Optional[float] = None) -> Any:
        """:meth:`wait`, then return the op's logical result."""
        self.wait(timeout)
        return self.value

    # -- flusher side --------------------------------------------------

    def _resolve(self) -> None:
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._exc = exc
        self._event.set()


def _encode(op: tuple) -> bytes:
    """Serialize an op tuple: packed for an all-int ``insert_many``,
    else as a Python literal.

    Round-trippability is enforced at append time so a bad value
    corrupts nothing: the packer's exact-type and range checks, or a
    ``literal_eval`` of the repr, reject the record before any byte
    hits the log.  A record whose fields are all plain scalars
    (:func:`codec.is_plain`: single-key ops and epoch markers, usually)
    needs no parse to prove it; floats keep the check, since
    ``repr(nan)`` does not parse.
    """
    if op[0] == OP_INSERT_MANY:
        packed = codec.pack(op[1])
        if packed is not None and packed[0] == codec.TAG_PAIRS:
            return packed
    text = repr(op)
    if not codec.is_plain(op):
        try:
            ast.literal_eval(text)
        except (ValueError, SyntaxError):
            raise WALError(
                f"op {text!r} is not a Python literal; only literal "
                "keys/values can be logged"
            ) from None
    return text.encode("utf-8")


def frame_record(op: tuple) -> bytes:
    """One framed record, ``<len><crc32><payload>``, for ``op``."""
    payload = _encode(op)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode(payload: bytes) -> tuple:
    """Inverse of :func:`_encode`; raises ``ValueError`` or
    ``SyntaxError`` on a payload that is neither form."""
    if codec.is_packed(payload):
        if payload[0] != codec.TAG_PAIRS:
            raise codec.CodecError(
                f"packed WAL record has tag 0x{payload[0]:02x}, not "
                f"insert_many pairs (0x{codec.TAG_PAIRS:02x})"
            )
        return (OP_INSERT_MANY, codec.unpack(payload))
    return ast.literal_eval(payload.decode("utf-8"))


def segment_paths(directory: Union[str, Path]) -> list[Path]:
    """Existing WAL segment files in ``directory``, in replay order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p for p in directory.iterdir()
        if p.name.startswith(_SEGMENT_PREFIX)
        and p.name.endswith(_SEGMENT_SUFFIX)
    )


def _segment_seq(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])


@dataclass
class WALReplayResult:
    """Outcome of scanning a WAL directory.

    Attributes:
        ops: decoded op tuples, in log order, up to the first damage.
        records: number of valid records decoded.
        segments_scanned: segment files examined.
        checksum_failures: records whose CRC32 did not match (replay
            stops at the first, so this is 0 or 1).
        truncated_tail: True when the log ended mid-record (torn write).
        tail_bytes_dropped: bytes from the first damaged record onward,
            across all remaining segments.
        corrupt_segment: segment file where replay stopped, if any.
        valid_offset: byte offset of the last valid record boundary in
            ``corrupt_segment`` (used by :func:`repair_wal`).
        sequence_gap: True when replay stopped because a *middle*
            segment is missing (``corrupt_segment`` is then the first
            post-gap segment, whole but orphaned).
        read_failures: segment read attempts that raised ``OSError``
            (each is retried; persistent failure marks ``unreadable``).
        unreadable: True when a segment could not be read at all —
            :func:`repair_wal` refuses to act on it, since the bytes on
            the medium may be intact.
    """

    ops: list[tuple] = field(default_factory=list)
    records: int = 0
    segments_scanned: int = 0
    checksum_failures: int = 0
    truncated_tail: bool = False
    tail_bytes_dropped: int = 0
    corrupt_segment: Optional[Path] = None
    valid_offset: int = 0
    sequence_gap: bool = False
    read_failures: int = 0
    unreadable: bool = False

    @property
    def clean(self) -> bool:
        """True when the whole log was intact."""
        return self.corrupt_segment is None


#: Transient-fault retry for every segment and snapshot read: a flaky
#: read must never fail a recovery or declare corruption.  No health
#: monitor — a flaky read does not make the tree read-only.
_READ_RETRY = RetryPolicy(
    attempts=3, base_delay=0.001, max_delay=0.01, deadline=0.25
)

#: Full re-parses of a damaged segment before the damage is believed:
#: a checksum failure that heals on re-read was read-path noise, one
#: that persists is media rot.
_REREAD_ATTEMPTS = 3


def read_whole(
    path: Path, read: Callable[[], bytes], offset: int = 0
) -> bytes:
    """``read()`` — a shimmed read of ``path`` from ``offset`` to its
    end — retried on transient faults, a short read counted as one.

    A short read is indistinguishable from a torn tail by content, but
    not by length: believing it would let repair truncate acknowledged
    records or fail a snapshot load, so it becomes a transient ``EIO``.
    The size is stat'ed *before* the read, so a concurrent append can
    never trip the check.  An ``offset`` past the end of the file
    raises :class:`WALTruncatedError`.
    """

    def attempt() -> bytes:
        size = path.stat().st_size
        if offset > size:
            raise WALTruncatedError(
                f"offset {offset} is beyond the end of {path.name} "
                f"({size} bytes; it was repaired or rewritten)"
            )
        data = read()
        if len(data) < size - offset:
            raise OSError(
                errno.EIO,
                f"short read: {len(data)} of {size - offset} bytes",
                str(path),
            )
        return data

    return _READ_RETRY.run(attempt)


def _read_segment(path: Path, offset: int = 0) -> bytes:
    """One segment's bytes from ``offset`` on, read through the fault
    shim with :func:`read_whole`'s retry and short-read check."""
    return read_whole(
        path, lambda: faults.read_bytes("io.wal.read", path, offset), offset
    )


#: Why a scan stopped short of the end: the bytes ran out inside a
#: frame, a frame failed its checksum (or did not decode), or the
#: segment sequence skips a number.
TORN = "torn record"
CHECKSUM = "checksum failure"
GAP = "sequence gap"


def is_damage(stop: Optional[str], *, newest: bool) -> bool:
    """The one rule for when a scan stop is damage.

    A torn frame at the end of the newest segment is harmless: it is an
    append in flight (or, after a crash, one that never finished).
    Every other stop is damage: a torn frame below the tail, a checksum
    failure, or a missing middle segment.  A snapshot body is a closed
    run of frames, so its callers pass ``newest=False``.
    """
    return stop is not None and not (newest and stop == TORN)


class FrameScan:
    """The one loop over framed records, ``<len><crc32><payload>``.

    Iterating yields ``(offset, end, payload, crc)`` for each intact
    frame of ``data`` and ends at the end of the data or at the first
    torn or checksum-failing frame.  Then ``offset`` is where the scan
    ended and ``stop`` is None, :data:`TORN` or :data:`CHECKSUM`; a
    consumer that breaks out leaves ``offset`` at the frame it was
    handed last.
    """

    __slots__ = ("data", "offset", "stop")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0
        self.stop: Optional[str] = None

    def __iter__(self) -> Iterator[tuple[int, int, bytes, int]]:
        data = self.data
        n = len(data)
        offset = self.offset
        while offset < n:
            start = offset + _HEADER.size
            if start > n:
                self.stop = TORN
                return
            length, crc = _HEADER.unpack_from(data, offset)
            end = start + length
            if end > n:
                self.stop = TORN
                return
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                self.stop = CHECKSUM
                return
            yield offset, end, payload, crc
            self.offset = offset = end


@dataclass
class SegmentParse:
    """Prefix-valid parse of one segment's bytes."""

    ops: list[tuple]
    offset: int  # last valid record boundary
    size: int
    stop: Optional[str] = None  # TORN, CHECKSUM, GAP or "unreadable"

    @property
    def truncated(self) -> bool:
        return self.stop == TORN

    @property
    def checksum_failures(self) -> int:
        return int(self.stop == CHECKSUM)

    @property
    def intact(self) -> bool:
        return self.stop is None


def parse_segment(data: bytes) -> SegmentParse:
    """Decode the valid prefix of a run of framed records.

    Stops where the :class:`FrameScan` stops, or at the first frame
    that does not decode (a :data:`CHECKSUM` stop); the result says
    where and why.  Shared by replay, the scrubber and the v3 snapshot
    body (:mod:`repro.core.persist`), which is framed the same way.
    """
    ops: list[tuple] = []
    scan = FrameScan(data)
    stop = None
    for _, _, payload, _ in scan:
        try:
            ops.append(_decode(payload))
        except (ValueError, SyntaxError):
            stop = CHECKSUM
            break
    return SegmentParse(ops, scan.offset, len(data), stop or scan.stop)


def _follows(prev: Path, seg: Path) -> bool:
    """True when ``seg`` is the segment numbered right after ``prev``."""
    return _segment_seq(seg) == _segment_seq(prev) + 1


def replay_wal(directory: Union[str, Path]) -> WALReplayResult:
    """Scan every segment in ``directory``; never raises on damage.

    Replay is strictly prefix-valid: it ends at the first stop of any
    kind — a torn or checksum-failing record, or a *gap* in the segment
    sequence (a missing middle segment) — and everything at or after
    that point, including later segments whose records were appended
    after the damage, counts as dropped tail bytes.  Reads go through
    the :mod:`repro.testing.faults` shim with a transient retry, and a
    stop that :func:`is_damage` calls damage is re-read before it is
    believed, so read-path noise (a flaky cable, an injected one-shot
    fault) never masquerades as media corruption.
    """
    result = WALReplayResult()
    segments = segment_paths(directory)
    for index, seg in enumerate(segments):
        if result.corrupt_segment is not None:
            # Records here were logged after the damage; applying them
            # would reorder history, so they are dropped too.
            result.tail_bytes_dropped += seg.stat().st_size
            continue
        newest = index == len(segments) - 1
        parse: Optional[SegmentParse] = None
        if index and not _follows(segments[index - 1], seg):
            # The post-gap records are newer than the hole they sit
            # behind: stop at the gap.
            parse = SegmentParse([], 0, seg.stat().st_size, GAP)
        else:
            result.segments_scanned += 1
            for _ in range(_REREAD_ATTEMPTS):
                try:
                    parse = parse_segment(_read_segment(seg))
                except ReadOnlyError:
                    result.read_failures += 1
                    continue
                if not is_damage(parse.stop, newest=newest):
                    break
        if parse is None:
            # Unreadable after retries: stop replay here but leave the
            # bytes alone — see WALReplayResult.unreadable.
            result.unreadable = True
            parse = SegmentParse([], 0, seg.stat().st_size, "unreadable")
        result.ops.extend(parse.ops)
        result.records += len(parse.ops)
        if parse.stop is not None:
            result.corrupt_segment = seg
            result.valid_offset = parse.offset
            result.tail_bytes_dropped += parse.size - parse.offset
            result.checksum_failures = parse.checksum_failures
            result.truncated_tail = parse.truncated
            result.sequence_gap = parse.stop == GAP
    return result


def repair_wal(
    directory: Union[str, Path], result: WALReplayResult
) -> None:
    """Truncate the log back to its last valid record boundary.

    The damaged segment is cut at ``result.valid_offset`` and every later
    segment is deleted — without this, records appended after recovery
    would sit behind the damaged region and be invisible to the next
    replay.

    Two special cases never touch the damaged segment itself:

    * ``unreadable`` — the segment failed to *read*; its bytes on the
      medium may be intact, and truncating on the basis of a failed
      read would destroy acknowledged history.  No repair happens.
    * ``sequence_gap`` — the damage is a missing *middle* segment; the
      surviving post-gap segments (``corrupt_segment`` onward) are
      orphaned history and are deleted whole, so the next replay sees a
      consecutive clean prefix.
    """
    corrupt = result.corrupt_segment
    if corrupt is None or result.unreadable:
        return
    if not result.sequence_gap:
        with open(corrupt, "r+b") as fh:
            fh.truncate(result.valid_offset)
            fh.flush()
            if sanitizer.enabled():
                sanitizer.note_fsync("wal.repair")
            os.fsync(fh.fileno())
    drop_from = _segment_seq(corrupt) + (0 if result.sequence_gap else 1)
    for seg in segment_paths(directory):
        if _segment_seq(seg) >= drop_from:
            seg.unlink()
    _fsync_dir(Path(directory))


def _fsync_dir(directory: Path, label: str = "wal.dir") -> None:
    """fsync a directory so renames/unlinks inside it are durable.

    Best-effort: not every platform supports opening a directory.
    ``label`` names the fsync for the lock sanitizer.
    """
    if sanitizer.enabled():
        sanitizer.note_fsync(label)
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True, order=True)
class WALPosition:
    """A durable cursor into a WAL directory: ``(segment_seq, offset)``.

    Positions order lexicographically — segment sequence numbers are
    monotonically increasing for the lifetime of a WAL directory (they
    survive rotation *and* truncation, which never reuses a sequence
    number), so a larger position always denotes a later point in the
    logical stream.
    """

    segment: int
    offset: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.segment}:{self.offset}"


@dataclass
class WALRecord:
    """One framed record as read by :class:`WALReader`.

    The raw ``payload``/``crc`` pair is kept so a *consumer* (e.g. a
    replica applying a shipped record) can re-verify the checksum at its
    end of the wire rather than trusting the reader's copy.
    """

    position: WALPosition
    next_position: WALPosition
    payload: bytes
    crc: int

    @property
    def op(self) -> tuple:
        """Decode the payload into its logical op tuple."""
        return _decode(self.payload)

    def verify(self) -> bool:
        """Recompute the CRC32 over the payload bytes."""
        return zlib.crc32(self.payload) == self.crc


class WALTruncatedError(WALError):
    """The requested position precedes the oldest surviving WAL record.

    Raised by :class:`WALReader` when a checkpoint truncated (or a
    repair trimmed) the segments a tailing reader had not consumed yet.
    The reader cannot recover the gap — the caller must re-bootstrap
    from a snapshot that covers it.
    """


class WALStreamError(WALError):
    """Damage strictly *below* the tail of the log.

    A torn record in a segment that is followed by a newer segment, a
    checksum failure, or a missing middle segment cannot be an in-flight
    append — it is real corruption, and skipping it would reorder
    history.
    """


def first_position(directory: Union[str, Path]) -> Optional[WALPosition]:
    """Start of the oldest surviving segment, or None when empty."""
    segments = segment_paths(directory)
    if not segments:
        return None
    return WALPosition(_segment_seq(segments[0]), 0)


class WALReader:
    """Incremental, resumable reader over a live WAL directory.

    Unlike :func:`replay_wal` (a one-shot crash-recovery scan), the
    reader *tails* the log: it reads every complete record from a given
    :class:`WALPosition`, reading each segment only from the cursor on,
    follows rotation across consecutive segment files, stops cleanly at
    an incomplete record at the very tail (an append may be in flight;
    call :meth:`read` again later), and detects when its position has
    been truncated away underneath it.  Damage is judged by
    :func:`is_damage`, the rule replay uses, so a missing middle
    segment ends the stream exactly where replay would stop.

    The reader holds no file handles between calls and keeps no state of
    its own — the position returned by :meth:`read` is the only cursor,
    so it can be persisted and handed to a different reader (or a
    different process) to resume.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def read(
        self,
        position: WALPosition,
        *,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> tuple[list[WALRecord], WALPosition]:
        """All complete records from ``position``; returns ``(records,
        resume_position)``.

        Raises:
            WALTruncatedError: ``position`` points below the oldest
                surviving record or past the end of its segment (the
                caller must re-bootstrap).
            WALStreamError: damage by :func:`is_damage` — a torn or
                checksum-failing record below the tail, or a missing
                middle segment — or a segment unreadable after retries.
        """
        records: list[WALRecord] = []
        pos = position
        segments = segment_paths(self.directory)
        if not segments or pos.segment > _segment_seq(segments[-1]):
            if pos.offset == 0:
                return records, pos  # next segment not created yet
            raise WALTruncatedError(
                f"position {pos} points into a deleted segment"
            )
        ordered = [s for s in segments if _segment_seq(s) >= pos.segment]
        if _segment_seq(ordered[0]) != pos.segment:
            raise WALTruncatedError(
                f"segment {pos.segment} was deleted (WAL was truncated; "
                "re-bootstrap)"
            )
        bytes_read = 0
        for idx, seg in enumerate(ordered):
            seq = _segment_seq(seg)
            base = pos.offset if idx == 0 else 0
            newest = idx == len(ordered) - 1
            if idx and not _follows(ordered[idx - 1], seg):
                stop: Optional[str] = GAP
            else:
                try:
                    scan = FrameScan(_read_segment(seg, base))
                except ReadOnlyError as exc:
                    raise WALStreamError(
                        f"segment {seq} unreadable after retries: {exc}"
                    ) from exc
                for start, end, payload, crc in scan:
                    if (
                        max_records is not None and len(records) >= max_records
                        or max_bytes is not None and bytes_read >= max_bytes
                    ):
                        return records, pos
                    pos = WALPosition(seq, base + end)
                    records.append(WALRecord(
                        WALPosition(seq, base + start), pos, payload, crc
                    ))
                    bytes_read += end - start
                stop = scan.stop
                base += scan.offset
            if is_damage(stop, newest=newest):
                raise WALStreamError(
                    f"{stop} at {seq}:{base} below the tail"
                )
            if stop is not None:
                return records, pos  # append in flight
            if not newest:
                # Segment fully consumed and a newer one exists, so this
                # one is closed for good: advance the cursor past it.
                pos = WALPosition(_segment_seq(ordered[idx + 1]), 0)
        return records, pos

    def bytes_behind(self, position: WALPosition) -> int:
        """Bytes on disk at or after ``position`` (replication lag).

        Best-effort: segments may rotate underneath the stat calls, so
        treat the result as a gauge, not an exact count.
        """
        behind = 0
        for seg in segment_paths(self.directory):
            seq = _segment_seq(seg)
            if seq < position.segment:
                continue
            size = seg.stat().st_size
            if seq == position.segment:
                behind += max(0, size - position.offset)
            else:
                behind += size
        return behind


class WriteAheadLog:
    """Appender over a WAL directory.

    Args:
        directory: created if missing; holds the segment files.
        fsync: ``"always"`` / ``"interval"`` / ``"none"`` / ``"group"``.
        segment_bytes: rotation threshold for the active segment.
        health: monitor shared with the owner (a :class:`DurableTree`
            passes its own); a private one is made when omitted.

    A fresh appender always starts a new segment rather than appending
    to the previous one: the previous tail may hold bytes that were
    never fsynced, and mixing acknowledged records into the same file
    would entangle their durability.  Thread-safe: appends serialize on
    an internal lock (the tree above has its own locking).

    **Group commit** (``fsync="group"``).  Writers do not write or
    fsync at all: :meth:`_append` encodes the record, enqueues it under
    the short ``wal.group.queue`` lock, and waits on a
    :class:`CommitTicket`.  A dedicated flusher thread drains the whole
    queue, writes every drained record under ``wal.append`` (rotating
    as needed, one ``os.write`` per contiguous segment run), issues a
    **single fsync**, and only then resolves every ticket in the batch.
    No acknowledgement ever precedes its batch's fsync; a crash tears
    at most the tail of one batch, which replay drops exactly as it
    drops a torn single-record tail.  The ``submit_*`` variants return
    the ticket instead of waiting, which is what lets callers pipeline.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        fsync: str = "always",
        segment_bytes: int = 4 * 1024 * 1024,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise WALError(
                f"fsync must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes <= 0:
            raise WALError(f"segment_bytes must be positive, got {segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Write-path health: transient I/O faults are retried per
        #: ``_RETRY``; exhausted retries flip the monitor to READ_ONLY
        #: and surface as :class:`ReadOnlyError`.  A DurableTree shares
        #: its own monitor with the WAL so the whole stack degrades as
        #: one unit.
        self.health = (
            health
            if health is not None
            else HealthMonitor(name=f"wal:{self.directory.name}")
        )
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.records_appended = 0
        self.bytes_appended = 0
        self.syncs = 0
        self.rotations = 0
        #: Acks handed out before their bytes were fsynced ("interval" /
        #: "none" policies): the size of the durability loss window.
        self.unsynced_acks = 0
        #: Group-commit observability: batches flushed, records across
        #: all batches (mean = records / batches), and the largest batch.
        self.group_batches = 0
        self.group_batch_records = 0
        self.group_batch_max = 0
        self._lock = sanitizer.make_lock("wal.append")
        self._fh = None
        self._since_sync = 0
        self._active_size = 0
        existing = segment_paths(self.directory)
        self._seq = _segment_seq(existing[-1]) + 1 if existing else 1
        # Group-commit state.  The queue lock ("wal.group.queue" in
        # LOCK_ORDER) guards only enqueue/drain of `_group_pending`; the
        # flusher never holds it across the write+fsync, and writers
        # never hold it while waiting on a ticket.
        self._group_lock = sanitizer.make_lock("wal.group.queue")
        self._group_pending: list[tuple[bytes, CommitTicket]] = []
        self._group_wake = threading.Event()
        self._group_space = threading.Event()
        self._group_closing = False
        self._group_dead: Optional[BaseException] = None
        self._flusher: Optional[threading.Thread] = None
        if fsync == "group":
            self._flusher = threading.Thread(
                target=self._flusher_loop,
                name=f"wal-group-flusher-{self.directory.name}",
                daemon=True,
            )
            self._flusher.start()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def log_insert(self, key: Key, value: Any = None) -> None:
        """Log a single upsert."""
        self._append((OP_INSERT, key, value))

    def log_delete(self, key: Key) -> None:
        """Log a single delete."""
        self._append((OP_DELETE, key))

    def log_insert_many(self, items: list[tuple[Key, Any]]) -> None:
        """Log a batched upsert as one record (one fsync per batch)."""
        self._append((OP_INSERT_MANY, items))

    def log_epoch(self, epoch: int) -> None:
        """Stamp a replication epoch marker into the record stream.

        Carries no tree data; recovery skips it, replicas use it to
        track which primary's tenure the following records belong to.
        """
        self._append((OP_EPOCH, int(epoch)))

    # -- asynchronous (pipelined) appends ------------------------------

    def submit_insert(self, key: Key, value: Any = None) -> CommitTicket:
        """Enqueue an upsert record; the ticket resolves at durability."""
        return self._submit_op((OP_INSERT, key, value))

    def submit_delete(self, key: Key) -> CommitTicket:
        """Enqueue a delete record; the ticket resolves at durability."""
        return self._submit_op((OP_DELETE, key))

    def submit_insert_many(
        self, items: list[tuple[Key, Any]]
    ) -> CommitTicket:
        """Enqueue a batched upsert as one record (one queue slot)."""
        return self._submit_op((OP_INSERT_MANY, items))

    def _submit_op(self, op: tuple) -> CommitTicket:
        """Async append: a ticket that resolves when ``op`` is durable.

        Under ``fsync="group"`` the record is enqueued for the flusher
        and the ticket resolves after its batch's fsync.  Under every
        other policy the append happens synchronously right here (with
        that policy's durability semantics) and the ticket comes back
        already resolved — callers get one programming model for all
        policies.
        """
        if self.fsync_policy != "group":
            self._append(op)
            ticket = CommitTicket()
            ticket._resolve()
            return ticket
        return self._enqueue_group(op)

    def tail_position(self) -> WALPosition:
        """Position one past the last appended byte.

        Records appended after this call land at or after the returned
        position; a reader that has caught up to it has seen everything.
        """
        with self._lock:
            if self._fh is None:
                return WALPosition(self._seq, 0)
            return WALPosition(self._seq - 1, self._active_size)

    def _append(self, op: tuple) -> None:
        if self.fsync_policy == "group":
            # Synchronous call under group commit: enqueue, then block
            # until the batch carrying this record has been fsynced —
            # identical ack semantics to "always", amortized fsync cost.
            self._enqueue_group(op).wait()
            return
        record = frame_record(op)
        with self._lock:
            faults.fire("wal.before_append")
            fh = self._fh
            if fh is None or self._active_size + len(record) > self.segment_bytes:
                fh = self._rotate_locked()
            self._write_locked(fh, record)
            self._active_size += len(record)
            self.records_appended += 1
            self.bytes_appended += len(record)
            self._since_sync += 1
            policy = self.fsync_policy
            if policy == "always":
                self._sync_locked(fh)
            elif policy == "interval":
                fh.flush()
                if self._since_sync >= _FSYNC_INTERVAL:
                    self._sync_locked(fh)
                else:
                    # This ack is NOT durable yet: it rides the page
                    # cache until the interval's next fsync.
                    self.unsynced_acks += 1
            else:  # "none": every ack is unsynced by definition.
                self.unsynced_acks += 1
            faults.fire("wal.after_append")

    # ------------------------------------------------------------------
    # Group commit: writer side
    # ------------------------------------------------------------------

    def _enqueue_group(self, op: tuple) -> CommitTicket:
        """Encode ``op`` and hand it to the flusher; returns its ticket.

        Blocks (bounded backpressure) while the queue holds
        ``_GROUP_QUEUE_MAX`` records.  The returned ticket resolves only
        after the batch containing this record has been fsynced.
        """
        record = frame_record(op)
        faults.fire("wal.before_append")
        ticket = CommitTicket()
        while True:
            with self._group_lock:
                if self._group_dead is not None:
                    raise WALError(
                        "group-commit flusher is dead "
                        f"({self._group_dead!r}); the WAL accepts no "
                        "further appends"
                    )
                if self._group_closing:
                    raise WALError("WAL is closed")
                if len(self._group_pending) < _GROUP_QUEUE_MAX:
                    self._group_pending.append((record, ticket))
                    break
                # Full: wait for the flusher to drain, then retry.  The
                # event is cleared before releasing the lock so a drain
                # that happens in between still wakes us.
                self._group_space.clear()
            self._group_space.wait(0.05)
        self._group_wake.set()
        faults.fire("wal.after_append")
        return ticket

    def _rotate_locked(self) -> IO[bytes]:
        """Close the active segment (fsynced) and open the next one."""
        if self._fh is not None:
            faults.fire("wal.before_rotate")
            self._sync_locked(self._fh)
            self._fh.close()
            self.rotations += 1
        path = (
            self.directory
            / f"{_SEGMENT_PREFIX}{self._seq:08d}{_SEGMENT_SUFFIX}"
        )
        self._seq += 1
        # Unbuffered: every record write is an os.write, so a simulated
        # crash can never leave bytes in a Python-level buffer that a
        # later GC flush would resurrect behind a repaired tail.
        self._fh = _RETRY.run(
            lambda: open(path, "ab", buffering=0),
            monitor=self.health,
        )
        self._active_size = self._fh.tell()
        _fsync_dir(self.directory)
        return self._fh

    def _write_locked(self, fh: IO[bytes], data: bytes) -> None:  # holds: wal.append
        """Append ``data`` through the fault shim, retrying transients.

        A failed attempt may have torn a prefix of ``data`` onto the
        tail; the recovery hook rewinds to the last acknowledged
        boundary before the rewrite, or the retried copy would sit
        behind garbage and be invisible to replay.

        The first attempt is inlined (and the retry closures built only
        after it fails): this is every append's hot path, and the
        fault-free cost must stay at one shim call over a bare write.
        """
        try:
            faults.write("io.wal.write", fh, data)
        except OSError as exc:
            base = self._active_size

            def rewind() -> None:
                fh.truncate(base)

            _RETRY.resume(
                lambda: faults.write("io.wal.write", fh, data),
                exc,
                monitor=self.health,
                recover=rewind,
            )
        else:
            self.health.record_success()

    def _sync_locked(self, fh: IO[bytes]) -> None:  # holds: wal.append
        fh.flush()
        faults.fire("wal.before_fsync")
        if sanitizer.enabled():
            sanitizer.note_fsync("wal.segment")
        try:
            faults.fsync("io.wal.fsync", fh)
        except OSError as exc:
            _RETRY.resume(
                lambda: faults.fsync("io.wal.fsync", fh),
                exc,
                monitor=self.health,
            )
        else:
            self.health.record_success()
        self.syncs += 1
        self._since_sync = 0

    # ------------------------------------------------------------------
    # Group commit: flusher side
    # ------------------------------------------------------------------

    def _flusher_loop(self) -> None:
        """Drain → write → one fsync → release the whole batch.

        Runs on the dedicated flusher thread.  An ordinary exception
        (injected fsync failure, disk error) fails only that batch's
        tickets and the flusher keeps serving; a ``SimulatedCrash`` (or
        any other ``BaseException``) models process death — every
        pending ticket is failed with it and the flusher exits, leaving
        the WAL dead to further appends.  A :class:`ReadOnlyError`
        (write-path retries exhausted) additionally fails everything
        still queued *fast* — nobody should sit blocked behind a disk
        that has already degraded the tree to read-only.

        The whole loop body — drain and wake machinery included — runs
        under a last-resort guard: if anything outside ``_flush_batch``
        raises, every pending ticket settles with a descriptive
        :class:`WALDeadError` instead of leaving callers blocked in
        ``wait()``/``sync()`` against a silently dead thread.
        """
        batch: list[tuple[bytes, CommitTicket]] = []
        try:
            while True:
                self._group_wake.wait(0.05)
                self._group_wake.clear()
                with self._group_lock:
                    if self._group_dead is not None:
                        return  # abort(): a dead process flushes nothing
                    batch = self._group_pending
                    if batch:
                        self._group_pending = []
                    closing = self._group_closing
                self._group_space.set()
                if batch:
                    try:
                        self._flush_batch(batch)
                    except ReadOnlyError as exc:
                        self._settle(batch, exc)
                        self._fail_queued(exc)
                    except Exception as exc:
                        # Recoverable failure: nobody in this batch is
                        # acknowledged, but the flusher stays up.
                        self._settle(batch, exc)
                    except BaseException as exc:
                        self._settle(batch, exc)
                        self._group_die(exc)
                        return
                    batch = []
                    continue  # drain again before honoring `closing`
                if closing:
                    return
        except BaseException as exc:
            dead = WALDeadError(
                "group-commit flusher died outside a batch flush "
                f"({exc!r}); pending commits can never be acknowledged"
            )
            dead.__cause__ = exc
            self._settle(batch, dead)
            self._group_die(dead)

    @staticmethod
    def _settle(
        batch: list[tuple[bytes, CommitTicket]], exc: BaseException
    ) -> None:
        """Fail every ticket in ``batch`` with ``exc``."""
        for _, ticket in batch:
            ticket._fail(exc)

    def _fail_queued(self, exc: BaseException) -> None:
        """Fail-fast every ticket still waiting in the queue.

        Used when the write path degrades to read-only: the queued
        records can never become durable on this disk, so their writers
        learn it now rather than after a retry-deadline each.
        """
        with self._group_lock:
            leftover = self._group_pending
            self._group_pending = []
        for _, ticket in leftover:
            ticket._fail(exc)
        self._group_space.set()

    def _flush_batch(
        self, batch: list[tuple[bytes, CommitTicket]]
    ) -> None:
        """Write every record of ``batch``, fsync once, resolve all.

        Contiguous records (no rotation in between) are written with a
        single ``os.write``; empty records are :meth:`sync` barriers —
        they claim no bytes but share the batch's fsync.
        """
        with self._lock:
            fh = self._fh
            run: list[bytes] = []
            run_len = 0
            for record, _ in batch:
                if not record:
                    continue  # sync barrier
                if fh is None or (
                    self._active_size + run_len + len(record)
                    > self.segment_bytes
                ):
                    if run:
                        self._write_locked(fh, b"".join(run))
                        self._active_size += run_len
                        run = []
                        run_len = 0
                    fh = self._rotate_locked()
                run.append(record)
                run_len += len(record)
                self.records_appended += 1
                self.bytes_appended += len(record)
            if run:
                self._write_locked(fh, b"".join(run))
                self._active_size += run_len
            faults.fire("wal.group.pre_fsync")
            if fh is not None:
                self._sync_locked(fh)
            faults.fire("wal.group.post_fsync")
            self.group_batches += 1
            self.group_batch_records += len(batch)
            if len(batch) > self.group_batch_max:
                self.group_batch_max = len(batch)
        # Acks strictly after the fsync returned, outside every lock.
        faults.fire("wal.group.ack")
        for _, ticket in batch:
            ticket._resolve()

    def _group_die(self, exc: BaseException) -> None:
        """Mark the group pipeline dead and fail every queued ticket."""
        with self._group_lock:
            self._group_dead = exc
            leftover = self._group_pending
            self._group_pending = []
        for _, ticket in leftover:
            ticket._fail(exc)
        self._group_space.set()

    def _flusher_alive(self) -> bool:
        flusher = self._flusher
        return flusher is not None and flusher.is_alive()

    def abort(self) -> None:
        """Simulate process death for the group pipeline.

        Stops the flusher **without flushing**: queued records are
        dropped (their tickets fail) and nothing further reaches the
        filesystem — the on-disk state is exactly what a real crash at
        this moment would leave.  Used by crash tests and the chaos
        harness's ``kill()``; a no-op under non-group policies, where
        an inert appender already writes nothing on its own.
        """
        flusher = self._flusher
        if flusher is None:
            return
        self._group_die(WALError("WAL aborted (simulated process death)"))
        self._group_wake.set()
        if flusher.is_alive():
            flusher.join(timeout=5.0)
        self._flusher = None

    def sync(self) -> None:
        """Force an fsync covering everything appended so far.

        Under group commit this is a *barrier*: an empty record is
        enqueued and the call returns once the batch carrying it has
        been fsynced, so every record enqueued before the barrier is
        durable on return.
        """
        if self.fsync_policy == "group" and self._flusher_alive():
            ticket = CommitTicket()
            with self._group_lock:
                if self._group_dead is None and not self._group_closing:
                    self._group_pending.append((b"", ticket))
                else:
                    ticket = None
            if ticket is not None:
                self._group_wake.set()
                ticket.wait()
                return
        with self._lock:
            if self._fh is not None:
                self._sync_locked(self._fh)

    # ------------------------------------------------------------------
    # Truncation (checkpoint) and lifecycle
    # ------------------------------------------------------------------

    def truncate(self) -> int:
        """Delete every segment (the snapshot now covers their ops).

        Returns the number of segment files removed.  Deletion is
        oldest-first: a crash mid-truncate leaves a suffix of the log,
        and replaying a suffix of already-snapshotted ops is idempotent,
        whereas a surviving *prefix* with a missing middle would not be.
        """
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
                self._active_size = 0
            removed = 0
            for seg in segment_paths(self.directory):
                faults.fire("wal.before_truncate_segment")
                seg.unlink()
                removed += 1
            _fsync_dir(self.directory)
            return removed

    def close(self) -> None:
        """Flush, fsync, and close the active segment.

        Under group commit the flusher is drained first: records already
        enqueued are flushed (their tickets resolve), then the thread
        exits; appends racing with close fail with :class:`WALError`.
        """
        flusher = self._flusher
        if flusher is not None:
            with self._group_lock:
                self._group_closing = True
            self._group_wake.set()
            if flusher.is_alive():
                flusher.join(timeout=10.0)
            self._flusher = None
            # If the flusher died rather than drained, fail stragglers.
            self._group_die(WALError("WAL is closed"))
        with self._lock:
            if self._fh is not None:
                self._sync_locked(self._fh)
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        # A SimulatedCrash must not reach the close() cleanup: a dead
        # process flushes nothing.  Anything else — KeyboardInterrupt
        # included — leaves a live process that must still flush.
        if exc_info[0] is not None and issubclass(
            exc_info[0], faults.SimulatedCrash
        ):
            # Stop the group flusher *without* flushing: queued records
            # die with the process, exactly as a real crash would.
            self.abort()
            return
        self.close()
