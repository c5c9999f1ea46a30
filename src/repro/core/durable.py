"""Crash-safe facade: WAL + checksummed snapshots + recovery.

:class:`DurableTree` wraps any tree variant — or a
:class:`~repro.concurrency.concurrent_tree.ConcurrentTree` around one —
and makes its *logical* operations durable:

* every ``insert`` / ``delete`` / ``insert_many`` is appended to a
  :class:`~repro.core.wal.WriteAheadLog` **before** it touches the tree
  (log-then-apply), so an acknowledged write survives a crash under
  ``fsync="always"``;
* :meth:`DurableTree.checkpoint` writes a v3 (per-record CRC32) snapshot
  via the atomic temp-file + ``os.replace`` path of
  :func:`repro.core.persist.save_tree` and then truncates the WAL;
* :meth:`DurableTree.recover` rebuilds state from ``snapshot + WAL``,
  tolerating a torn WAL tail, and reports exactly what it did in a
  :class:`RecoveryReport`.

The WAL records logical ops, not pages: replaying an op twice must be a
no-op, which upsert-``insert`` and ``delete`` satisfy.  That is what
makes the crash window between the snapshot replace and the WAL truncate
safe — the next recovery double-replays ops the snapshot already
contains, idempotently.

Fast-path metadata (``lil``/``pole``/``tail`` pointers) is *derived*
state and is never logged; after replay it is rebuilt implicitly and
then audited by ``scrub()``, which resets anything inconsistent instead
of trusting it blindly (see DESIGN.md).

Directory layout::

    <directory>/snapshot.quit   latest checkpoint (absent before first)
    <directory>/wal/wal-*.seg   log segments since that checkpoint
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Type, Union

from ..concurrency.locks import RWLock
from ..testing import faults
from .bptree import BPlusTree
from .config import TreeConfig
from .health import HealthMonitor, HealthState
from .node import Key
from .persist import load_tree, save_tree
from .stats import ScrubReport, TreeStats
from .wal import (
    OP_DELETE,
    OP_EPOCH,
    OP_INSERT,
    OP_INSERT_MANY,
    CommitTicket,
    WALError,
    WALPosition,
    WriteAheadLog,
    _RETRY,
    repair_wal,
    replay_wal,
)

SNAPSHOT_NAME = "snapshot.quit"
WAL_DIRNAME = "wal"
#: Written by :mod:`repro.replication`: a node's fencing epoch, and a
#: replica's applied stream position (its presence marks a replica).
EPOCH_FILENAME = "EPOCH"
CURSOR_FILENAME = "replica.cursor"


def read_epoch(directory: Path) -> int:
    """Epoch persisted in ``directory`` (0 when never written)."""
    try:
        return int((Path(directory) / EPOCH_FILENAME).read_text().strip())
    except (FileNotFoundError, ValueError):
        return 0


@dataclass
class RecoveryReport:
    """What :meth:`DurableTree.recover` found and did.

    Attributes:
        snapshot_loaded: a checkpoint snapshot existed and was loaded.
        snapshot_entries: entries restored from that snapshot.
        segments_scanned: WAL segment files examined.
        records_replayed: valid WAL records applied.
        entries_replayed: logical entries those records carried (an
            ``insert_many`` record counts its batch size).
        checksum_failures: WAL records rejected by CRC32 (replay stops
            at the first, so 0 or 1).
        truncated_tail: the WAL ended mid-record (torn write).
        tail_bytes_dropped: WAL bytes at/after the first damage,
            discarded by replay and trimmed by repair.
        unknown_records: intact records whose op tag this version does
            not understand (skipped, never fatal).
        sequence_gap: replay stopped at a missing middle segment; the
            orphaned post-gap segments were deleted by repair.
        epoch_markers: replication epoch markers seen in the log (they
            carry no tree data and are not counted as entries).
        last_epoch: highest epoch stamped in the log, 0 if none — a
            restarting primary resumes at least past it.
        scrub: fast-path metadata audit run after replay, if any.
    """

    snapshot_loaded: bool = False
    snapshot_entries: int = 0
    segments_scanned: int = 0
    records_replayed: int = 0
    entries_replayed: int = 0
    checksum_failures: int = 0
    truncated_tail: bool = False
    tail_bytes_dropped: int = 0
    unknown_records: int = 0
    sequence_gap: bool = False
    epoch_markers: int = 0
    last_epoch: int = 0
    scrub: Optional[ScrubReport] = None

    @property
    def clean(self) -> bool:
        """True when nothing was dropped, rejected, or repaired."""
        return (
            self.checksum_failures == 0
            and not self.truncated_tail
            and self.tail_bytes_dropped == 0
            and self.unknown_records == 0
            and not self.sequence_gap
            and (self.scrub is None or self.scrub.clean)
        )


class DurableTree:
    """Durability facade over a tree variant (or ConcurrentTree).

    Args:
        tree: the index to make durable.  Anything exposing ``insert`` /
            ``delete`` / ``insert_many`` plus the read API — all tree
            variants and ``ConcurrentTree`` qualify.
        directory: durability root (created if missing); holds the
            snapshot file and the WAL subdirectory.
        fsync: WAL fsync policy — ``"always"`` (acknowledged writes
            survive any crash), ``"interval"``, ``"none"``, or
            ``"group"`` (batched fsync: "always"-grade acks at a
            fraction of the fsync cost under concurrent writers; see
            :mod:`repro.core.wal`).
        segment_bytes: WAL segment rotation threshold.

    Thread-safety follows the wrapped tree: wrap a ``ConcurrentTree``
    for concurrent writers (WAL appends serialize internally either
    way).  Mutations not routed through this facade bypass the log and
    forfeit durability — use the facade's methods.

    Log-then-apply is made atomic with respect to :meth:`checkpoint` by
    the facade's own reader-writer gate: every mutation holds it shared
    across *WAL append + tree apply*, while the checkpoint holds it
    exclusive across *snapshot + truncate*.  Without the gate a
    checkpoint could run between a writer's append and its apply,
    snapshotting a tree that lacks the op while truncating the WAL
    record that held it — a lost acknowledged write.
    """

    def __init__(
        self,
        tree: Any,
        directory: Union[str, Path],
        *,
        fsync: str = "always",
        segment_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        self.tree = tree
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: One health monitor for the whole write path, shared with the
        #: WAL: exhausted retries anywhere (append, fsync, snapshot)
        #: degrade the facade as a unit.  Mutations consult it first;
        #: reads never do.
        self.health = HealthMonitor(name=self.directory.name or "durable")
        self.wal = WriteAheadLog(
            self.directory / WAL_DIRNAME,
            fsync=fsync,
            segment_bytes=segment_bytes,
            health=self.health,
        )
        self.checkpoints = 0
        self.last_recovery: Optional[RecoveryReport] = None
        #: WAL tail at the moment of the last checkpoint's truncate:
        #: the stream position the on-disk snapshot corresponds to.
        #: ``None`` until the first checkpoint of this facade's life.
        self.last_checkpoint_position: Optional[WALPosition] = None
        # Checkpoint gate: mutations hold it shared across log+apply,
        # checkpoint holds it exclusive across snapshot+truncate, so a
        # logged-but-unapplied op can never be truncated out of the WAL
        # while missing from the snapshot.  Separate from any lock in
        # the wrapped tree (the RW locks are not reentrant): concurrent
        # writers still run in parallel under the shared side.
        self._gate = RWLock(name="durable.gate")

    # ------------------------------------------------------------------
    # Logged mutations
    # ------------------------------------------------------------------

    def insert(self, key: Key, value: Any = None) -> None:
        """Durable upsert: WAL append (per the fsync policy), then apply."""
        self.health.require_writable()
        with self._gate.read_locked():
            self.wal.log_insert(key, value)
            self.tree.insert(key, value)

    def __setitem__(self, key: Key, value: Any) -> None:
        self.insert(key, value)

    def delete(self, key: Key) -> bool:
        """Durable delete; returns whether the key existed.

        The delete is logged even when the key turns out to be absent —
        log-then-apply cannot know beforehand, and replaying a delete of
        a missing key is a no-op.
        """
        self.health.require_writable()
        with self._gate.read_locked():
            self.wal.log_delete(key)
            return self.tree.delete(key)

    def insert_many(self, items: Iterable[tuple[Key, Any]]) -> int:
        """Durable batched upsert: the whole batch is one WAL record
        (one fsync per batch under ``fsync="always"``), then applied
        through the tree's run-carving batch path.  Returns the number
        of new keys added."""
        batch = [(k, v) for k, v in items]
        if not batch:
            return 0
        self.health.require_writable()
        with self._gate.read_locked():
            self.wal.log_insert_many(batch)
            return self.tree.insert_many(batch)

    # ------------------------------------------------------------------
    # Pipelined (submit/await) mutations
    # ------------------------------------------------------------------

    def submit_insert(self, key: Key, value: Any = None) -> CommitTicket:
        """Pipelined upsert: enqueue the WAL record, apply to the tree,
        and return a :class:`~repro.core.wal.CommitTicket` immediately.

        The op is visible to reads as soon as this returns, but it is
        **acknowledged** (durable) only when the ticket resolves —
        under ``fsync="group"`` that is when the batch carrying the
        record has been fsynced.  ``ticket.result()`` returns ``None``
        (upserts have no result).  Under non-group policies the append
        is synchronous and the ticket comes back already resolved, so
        callers get one programming model for every policy.
        """
        self.health.require_writable()
        with self._gate.read_locked():
            ticket = self.wal.submit_insert(key, value)
            self.tree.insert(key, value)
        return ticket

    def submit_delete(self, key: Key) -> CommitTicket:
        """Pipelined delete; ``ticket.result()`` is whether the key
        existed at apply time."""
        self.health.require_writable()
        with self._gate.read_locked():
            ticket = self.wal.submit_delete(key)
            ticket.value = self.tree.delete(key)
        return ticket

    def submit_many(self, items: Iterable[tuple[Key, Any]]) -> CommitTicket:
        """Pipelined batched upsert: one WAL record, one queue slot;
        ``ticket.result()`` is the number of new keys added.  An empty
        batch returns an already-resolved ticket with result 0."""
        batch = [(k, v) for k, v in items]
        if not batch:
            ticket = CommitTicket()
            ticket.value = 0
            ticket._resolve()
            return ticket
        self.health.require_writable()
        with self._gate.read_locked():
            ticket = self.wal.submit_insert_many(batch)
            ticket.value = self.tree.insert_many(batch)
        return ticket

    # ------------------------------------------------------------------
    # Reads (pure delegation)
    # ------------------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        return self.tree.get(key, default)

    def __getitem__(self, key: Key) -> Any:
        sentinel = object()
        value = self.tree.get(key, sentinel)
        if value is sentinel:
            raise KeyError(key)
        return value

    def get_many(self, keys: Iterable[Key], default: Any = None) -> list[Any]:
        return self.tree.get_many(keys, default)

    def range_query(self, start: Key, end: Key) -> list[tuple[Key, Any]]:
        return self.tree.range_query(start, end)

    def range_iter(self, start: Key, end: Key) -> Iterator[tuple[Key, Any]]:
        return self.tree.range_iter(start, end)

    def range_page(
        self, start: Key, end: Key, limit: int, exclusive: bool = False
    ) -> tuple[list[Key], list[Any], bool]:
        return self.tree.range_page(start, end, limit, exclusive)

    def count_range(self, start: Key, end: Key) -> int:
        return self.tree.count_range(start, end)

    def __len__(self) -> int:
        return len(self.tree)

    def __contains__(self, key: Key) -> bool:
        sentinel = object()
        return self.tree.get(key, sentinel) is not sentinel

    @property
    def config(self) -> TreeConfig:
        return self.tree.config

    @property
    def stats(self) -> TreeStats:
        """The wrapped tree's counters.  The WAL, health and scrub
        counters live on their owners: ``wal``, ``health`` and the
        attached :class:`~repro.core.scrubber.Scrubber`."""
        return self.tree.stats

    def items(self) -> Iterable[tuple[Key, Any]]:
        return self.tree.items()

    def validate(self, check_min_fill: bool = False) -> None:
        self.tree.validate(check_min_fill=check_min_fill)

    def check(self, check_min_fill: bool = False) -> list[str]:
        return self.tree.check(check_min_fill=check_min_fill)

    def scrub(self) -> ScrubReport:
        return self.tree.scrub()

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_NAME

    def checkpoint(self) -> int:
        """Write a v3 snapshot atomically, then truncate the WAL.

        Returns the number of entries snapshotted.  Crash-safety of each
        window between the steps:

        * during the temp-file write — temp is discarded, old snapshot
          and full WAL intact;
        * after the replace, before the truncate — new snapshot plus a
          WAL whose ops it already contains: replay is idempotent;
        * mid-truncate — segments are deleted oldest-first, so only a
          *suffix* of already-snapshotted ops can survive, which
          re-applies idempotently.

        Concurrent writers are excluded for the whole snapshot+truncate
        span by the facade's checkpoint gate, held exclusively here and
        shared by every mutation across its log+apply pair — so no op
        can be logged but not yet applied while the checkpoint runs
        (such an op would be truncated from the WAL without being in
        the snapshot: a lost acknowledged write).  For a
        ``ConcurrentTree`` its structural write lock is additionally
        taken so the snapshot sees a consistent cut even if some writer
        bypasses the facade.
        """
        with self._gate.write_locked():
            base = self.tree
            exclusive = getattr(base, "exclusive", None)
            if exclusive is not None:
                with exclusive():
                    return self._checkpoint_inner(base.tree)
            return self._checkpoint_inner(base)

    def _checkpoint_inner(self, snapshot_source: Any) -> int:  # holds: durable.gate
        count = save_tree(
            snapshot_source,
            self.snapshot_path,
            retry=_RETRY,
            health=self.health,
        )
        faults.fire("checkpoint.before_truncate")
        # Captured before the truncate, under the exclusive gate: the
        # snapshot covers exactly the records below this position, so a
        # replication reader caught up to it has missed nothing.
        self.last_checkpoint_position = self.wal.tail_position()
        self.wal.truncate()
        faults.fire("checkpoint.after_truncate")
        self.checkpoints += 1
        # A full snapshot landed and the WAL restarted on a fresh
        # segment: the disk demonstrably takes writes again, so a
        # degraded or read-only tree is healed by exactly this call.
        # (FAILED is terminal; restore() refuses it.)
        if self.health.state is not HealthState.HEALTHY:
            self.health.restore()
        return count

    def close(self) -> None:
        """Flush and close the WAL (the tree itself is in-memory)."""
        self.wal.close()

    def abort(self) -> None:
        """Simulate process death: stop the group flusher **without**
        flushing, so queued-but-unacked records are lost exactly as a
        real crash would lose them.  No-op under non-group policies."""
        self.wal.abort()

    def __enter__(self) -> "DurableTree":
        return self

    def __exit__(self, *exc_info) -> None:
        # Only a SimulatedCrash models a dead process (which flushes
        # nothing).  Any other exception — including BaseExceptions
        # like KeyboardInterrupt — leaves a live process, so the final
        # flush/fsync must still happen.
        if exc_info[0] is not None and issubclass(
            exc_info[0], faults.SimulatedCrash
        ):
            self.abort()
            return
        self.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory: Union[str, Path],
        tree_class: Type[BPlusTree] = BPlusTree,
        config: Optional[TreeConfig] = None,
        *,
        fsync: str = "always",
        segment_bytes: int = 4 * 1024 * 1024,
        scrub: bool = True,
    ) -> tuple["DurableTree", RecoveryReport]:
        """Rebuild a durable tree from ``directory``.

        Loads the snapshot (if one exists), replays the WAL up to the
        first damaged record, trims the damage so future appends are
        visible, audits fast-path metadata, and opens a fresh WAL
        segment for new writes.  Never raises on WAL damage — that is
        the expected aftermath of a crash — and reports it instead.

        Args:
            directory: durability root written by a previous facade.
            tree_class: variant to rebuild into (need not match the one
                that wrote the state; the log is logical).
            config: overrides the snapshotted node capacities.
            fsync / segment_bytes: as for the constructor.
            scrub: audit + repair fast-path metadata after replay.

        Returns:
            ``(durable_tree, report)``.
        """
        directory = Path(directory)
        report = RecoveryReport()
        snap = directory / SNAPSHOT_NAME
        # A crash between temp write and replace leaves a stale temp
        # file; it was never acknowledged as a snapshot, so drop it.
        snap.with_name(snap.name + ".tmp").unlink(missing_ok=True)
        if snap.exists():
            tree = load_tree(snap, tree_class, config)
            report.snapshot_loaded = True
            report.snapshot_entries = len(tree)
        else:
            tree = tree_class(config)
        wal_dir = directory / WAL_DIRNAME
        replay = replay_wal(wal_dir)
        if replay.unreadable:
            # The damage is a segment that cannot be *read*, not one
            # that is provably corrupt: its bytes (and the acked writes
            # inside them) may be intact on the medium.  Recovering
            # past it would serve a state silently missing those acks,
            # and repairing it would destroy them — refuse both,
            # explicitly.
            raise WALError(
                f"WAL segment {replay.corrupt_segment} is unreadable "
                f"after retries ({replay.read_failures} failed reads); "
                "refusing destructive repair — restore the medium, or "
                "rebuild this node from its replica"
            )
        report.segments_scanned = replay.segments_scanned
        report.checksum_failures = replay.checksum_failures
        report.truncated_tail = replay.truncated_tail
        report.tail_bytes_dropped = replay.tail_bytes_dropped
        report.sequence_gap = replay.sequence_gap
        for op in replay.ops:
            tag = op[0]
            if tag == OP_INSERT:
                tree.insert(op[1], op[2])
                report.entries_replayed += 1
            elif tag == OP_DELETE:
                tree.delete(op[1])
                report.entries_replayed += 1
            elif tag == OP_INSERT_MANY:
                tree.insert_many(op[1])
                report.entries_replayed += len(op[1])
            elif tag == OP_EPOCH:
                report.epoch_markers += 1
                report.last_epoch = max(report.last_epoch, op[1])
            else:
                report.unknown_records += 1
                continue
            report.records_replayed += 1
        repair_wal(wal_dir, replay)
        if scrub:
            report.scrub = tree.scrub()
        durable = cls(tree, directory, fsync=fsync, segment_bytes=segment_bytes)
        durable.last_recovery = report
        return durable, report
