"""Replica: bootstrap from a snapshot, then tail the primary's WAL.

A replica is itself locally durable — shipped records are applied
through its own :class:`~repro.core.durable.DurableTree` (log-then-apply
into its own directory), so its state is ``fetched snapshot + local
WAL`` and survives its own restarts.  That is also what makes promotion
cheap: the promoted node's directory already *is* a primary-shaped
durability root.

State machine::

    IDLE --bootstrap()--> FOLLOWING --promote()--> PROMOTED
      ^                      |  ^
      |                      |  `-- resume() after a restart
      `---- (re-bootstrap on WAL truncation / re-attach) ----'

While ``FOLLOWING``, :meth:`Replica.poll` pulls one batch through the
transport and applies it:

* every record's CRC32 is re-verified on this side of the wire;
* records at or below ``applied_lsn`` are deduplicated (the transport
  may re-deliver);
* a snapshot or batch from a primary whose epoch is *older* than the
  replica's means a deposed primary is still talking, and is rejected
  with :class:`StaleEpochError`;
* ``OP_EPOCH`` markers move the replica's epoch forward; a marker below
  it is the serving primary's own earlier tenure, still in its retained
  log after a restart without a checkpoint, and is replayed;
* the cursor (``applied_lsn``) is persisted after each applied batch,
  *after* an fsync of the local WAL, so a restart never resumes ahead
  of its own durable state (re-applying the overlap is idempotent).

Reads are served under a reader-writer lock against the applying
thread, so a replica can answer ``get``/``range_query`` traffic while
streaming — the read-scale-out half of the replication story.
"""

from __future__ import annotations

import enum
import os
import shutil
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Type, Union

from ..concurrency import sanitizer
from ..concurrency.locks import RWLock
from ..core.bptree import BPlusTree
from ..core.config import TreeConfig
from ..core.durable import (
    CURSOR_FILENAME,
    EPOCH_FILENAME,
    SNAPSHOT_NAME,
    WAL_DIRNAME,
    DurableTree,
)
from ..core.persist import PersistenceError
from ..core.scrubber import Scrubber
from ..core.stats import ScrubReport
from ..core.wal import (
    OP_DELETE,
    OP_EPOCH,
    OP_INSERT,
    OP_INSERT_MANY,
    WALError,
    WALPosition,
)
from ..testing import faults
from .primary import Primary
from .transport import (
    ReplicationError,
    ReplicationTransport,
    StaleEpochError,
    TransportError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coordinator import EpochRegistry


class ReplicaState(enum.Enum):
    IDLE = "idle"
    FOLLOWING = "following"
    PROMOTED = "promoted"
    STOPPED = "stopped"


class Replica:
    """A read-serving follower of a :class:`Primary`'s WAL stream.

    Args:
        directory: this replica's own durability root.
        transport: link to the primary (swap via :meth:`attach` after a
            failover).
        tree_class / config: variant to rebuild into.
        fsync: local WAL fsync policy; the cursor is only persisted
            after an explicit sync, so even ``"none"`` cannot resume
            ahead of durable state.
        segment_bytes: local WAL segment rotation size.
        name: node identity (used as ``node_id`` on promotion).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        transport: ReplicationTransport,
        *,
        tree_class: Type[BPlusTree] = BPlusTree,
        config: Optional[TreeConfig] = None,
        fsync: str = "none",
        segment_bytes: int = 4 * 1024 * 1024,
        name: str = "replica",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.transport = transport
        self.tree_class = tree_class
        self.config = config
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self.name = name
        self.state = ReplicaState.IDLE
        self.alive = True
        self.durable: Optional[DurableTree] = None
        self.position: Optional[WALPosition] = None
        self.epoch = 0
        self.lag_bytes = 0
        self.records_applied = 0
        self.entries_applied = 0
        self.duplicates_skipped = 0
        self.crc_failures = 0
        self.stale_epoch_rejects = 0
        self.bootstraps = 0
        self.peer_heals = 0
        self._lock = RWLock(name="repl.replica")

    #: ``applied_lsn`` is the durable cursor: the stream position of the
    #: last record applied (and persisted) by this replica.
    @property
    def applied_lsn(self) -> Optional[WALPosition]:
        return self.position

    # -- lifecycle -----------------------------------------------------

    def attach(self, transport: ReplicationTransport) -> None:
        """Point this replica at a (new) primary.

        Positions are meaningless across primaries — call
        :meth:`bootstrap` afterwards.
        """
        self.transport = transport

    def _wipe_local_state(self) -> None:  # holds: repl.replica
        if self.durable is not None:
            self.durable.close()
            self.durable = None
        for name in (SNAPSHOT_NAME, EPOCH_FILENAME, CURSOR_FILENAME):
            (self.directory / name).unlink(missing_ok=True)
        (self.directory / (SNAPSHOT_NAME + ".tmp")).unlink(missing_ok=True)
        shutil.rmtree(self.directory / WAL_DIRNAME, ignore_errors=True)

    def bootstrap(self) -> None:
        """(Re)build local state from the primary's latest snapshot.

        Refuses a primary older than this replica's epoch before
        touching local state, and otherwise adopts the primary's epoch.
        """
        self._check_alive()
        payload = self.transport.fetch_snapshot()
        if payload.epoch < self.epoch:
            self.stale_epoch_rejects += 1
            raise StaleEpochError(
                f"replica {self.name} (epoch {self.epoch}) refused a "
                f"snapshot from a deposed primary (epoch {payload.epoch})"
            )
        with self._lock.write_locked():
            self._wipe_local_state()
            if payload.data is not None:
                snap = self.directory / SNAPSHOT_NAME
                tmp = snap.with_name(snap.name + ".tmp")
                tmp.write_bytes(payload.data)
                os.replace(tmp, snap)
            self.durable, _ = DurableTree.recover(
                self.directory, self.tree_class, self.config,
                fsync=self.fsync, segment_bytes=self.segment_bytes,
            )
            self.position = payload.base
            self.epoch = payload.epoch
            self._persist_cursor_locked()
            self.state = ReplicaState.FOLLOWING
            self.bootstraps += 1

    def resume(self) -> None:
        """Restart from local disk (crash recovery of the replica).

        Rebuilds ``snapshot + local WAL`` and resumes streaming from the
        persisted cursor; falls back to a full bootstrap when no cursor
        was ever written — or when the local artifacts are too damaged
        to replay (corrupt snapshot, unreadable WAL): a replica always
        has a stronger copy one fetch away, so it rebuilds from the
        primary instead of refusing to start the way a standalone
        :meth:`DurableTree.recover` must.
        """
        self.alive = True
        cursor = self._read_cursor()
        if cursor is None:
            self.bootstrap()
            return
        try:
            with self._lock.write_locked():
                if self.durable is not None:
                    self.durable.close()
                    self.durable = None
                self.durable, _ = DurableTree.recover(
                    self.directory, self.tree_class, self.config,
                    fsync=self.fsync, segment_bytes=self.segment_bytes,
                )
                self.epoch, self.position = cursor
                self.state = ReplicaState.FOLLOWING
        except (PersistenceError, WALError):
            self.bootstrap()

    def heal_from_peer(self) -> bool:
        """Rebuild this node from its primary after local corruption.

        This is the :class:`~repro.core.scrubber.Scrubber`'s
        ``peer_heal`` hook: when a scrub finds a rotted local artifact
        (already quarantined — the wipe below leaves ``quarantine/``
        untouched), the replica throws its damaged local state away,
        re-bootstraps from the primary's snapshot, and streams back to
        the tail.  Returns True on success; False when the peer is
        unreachable or this node is not following (the scrubber then
        falls back to its local repair, or leaves the quarantine for an
        operator).
        """
        if not self.alive or self.state is not ReplicaState.FOLLOWING:
            return False
        try:
            self.bootstrap()
            self.catch_up()
        except (TransportError, ReplicationError):
            return False
        self.peer_heals += 1
        return True

    def make_scrubber(self, **kwargs: Any) -> Scrubber:
        """A :class:`Scrubber` bound to this replica's *current* tree.

        The provider indirection matters: every bootstrap (including a
        peer heal) replaces ``self.durable``, so the scrubber must
        re-resolve it each cycle rather than hold a stale reference.
        """
        def current() -> DurableTree:
            durable = self.durable
            if durable is None:
                raise ReplicationError(
                    f"replica {self.name} has no local state to scrub "
                    "(bootstrap first)"
                )
            return durable

        kwargs.setdefault("peer_heal", self.heal_from_peer)
        return Scrubber(current, **kwargs)

    def kill(self) -> None:
        """Simulate process death (nothing flushed, nothing closed).

        The local WAL's group flusher — if the replica persists with
        ``fsync="group"`` — is aborted without a final flush, exactly
        as a dead process would leave it."""
        self.alive = False
        self.state = ReplicaState.STOPPED
        if self.durable is not None:
            self.durable.abort()

    def close(self) -> None:
        if self.durable is not None:
            self.durable.close()
        self.state = ReplicaState.STOPPED

    def _check_alive(self) -> None:
        if not self.alive:
            raise TransportError(f"replica {self.name} is dead")

    # -- cursor persistence --------------------------------------------

    def _persist_cursor_locked(self) -> None:  # holds: repl.replica
        # Local WAL first: the cursor on disk must never be ahead of the
        # applied records it stands for.
        self.durable.wal.sync()
        path = self.directory / CURSOR_FILENAME
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w") as fh:
            fh.write(
                f"{self.epoch} {self.position.segment} "
                f"{self.position.offset}\n"
            )
            fh.flush()
            if sanitizer.enabled():
                sanitizer.note_fsync("replica.cursor")
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _read_cursor(self) -> Optional[tuple[int, WALPosition]]:
        try:
            text = (self.directory / CURSOR_FILENAME).read_text()
            epoch_s, seg_s, off_s = text.split()
            return int(epoch_s), WALPosition(int(seg_s), int(off_s))
        except (FileNotFoundError, ValueError):
            return None

    # -- streaming -----------------------------------------------------

    def poll(self, *, max_records: int = 512) -> int:
        """Fetch and apply one batch; returns records applied.

        Transparently re-bootstraps when the primary reports the cursor
        was truncated away by a checkpoint.
        """
        self._check_alive()
        if self.state is not ReplicaState.FOLLOWING:
            raise ReplicationError(
                f"replica {self.name} is {self.state.value}, not following"
            )
        result = self.transport.fetch_records(
            self.position, max_records=max_records
        )
        if result.truncated:
            self.bootstrap()
            result = self.transport.fetch_records(
                self.position, max_records=max_records
            )
            if result.truncated:
                raise ReplicationError(
                    f"replica {self.name}: position {self.position} still "
                    "truncated immediately after bootstrap"
                )
        if result.epoch < self.epoch:
            self.stale_epoch_rejects += 1
            raise StaleEpochError(
                f"replica {self.name} (epoch {self.epoch}) refused a "
                f"batch from a deposed primary (epoch {result.epoch})"
            )
        if result.epoch > self.epoch:
            # A newer tenure than the one our cursor belongs to: WAL
            # positions are meaningless across primaries (each node
            # numbers its own segments), so resuming by position against
            # a new primary could silently mis-apply.  Re-bootstrap.
            self.bootstrap()
            result = self.transport.fetch_records(
                self.position, max_records=max_records
            )
            if result.truncated or result.epoch != self.epoch:
                raise ReplicationError(
                    f"replica {self.name}: unstable primary during "
                    f"re-bootstrap (epoch {result.epoch} vs {self.epoch})"
                )
        self.lag_bytes = result.lag_bytes
        applied = 0
        for record in result.records:
            if (
                self.position is not None
                and record.next_position <= self.position
            ):
                self.duplicates_skipped += 1
                continue
            faults.fire("repl.apply_record")
            if not record.verify():
                self.crc_failures += 1
                raise ReplicationError(
                    f"replica {self.name}: CRC mismatch in shipped record "
                    f"at {record.position}"
                )
            try:
                op = record.op
            except (ValueError, SyntaxError):
                self.crc_failures += 1
                raise ReplicationError(
                    f"replica {self.name}: undecodable record at "
                    f"{record.position}"
                ) from None
            with self._lock.write_locked():
                self._apply_locked(op)
                self.position = record.next_position
            applied += 1
            self.records_applied += 1
        moved = applied > 0
        if self.position is None or result.position > self.position:
            # Adopt the primary's resume cursor even when it is ahead of
            # the last record delivered: a checkpoint truncate can leave
            # a segment-boundary gap (or an empty WAL) after the stream
            # base, and the primary only ever skips ranges that held no
            # records beyond what this replica already applied.
            with self._lock.write_locked():
                self.position = result.position
            moved = True
        if moved:
            with self._lock.write_locked():
                self._persist_cursor_locked()
        return applied

    def _apply_locked(self, op: tuple) -> None:
        tag = op[0]
        if tag == OP_INSERT:
            self.durable.insert(op[1], op[2])
            self.entries_applied += 1
        elif tag == OP_DELETE:
            self.durable.delete(op[1])
            self.entries_applied += 1
        elif tag == OP_INSERT_MANY:
            self.durable.insert_many(op[1])
            self.entries_applied += len(op[1])
        elif tag == OP_EPOCH:
            # The batch carrying this marker passed the fencing check on
            # the primary's current epoch, so a lower marker is that
            # primary's own earlier tenure: history, not a deposed node.
            self.epoch = max(self.epoch, op[1])
        # Unknown tags are skipped: a newer primary may ship op kinds
        # this replica version does not know; they carry no data it can
        # mis-apply (same policy as recovery).

    def catch_up(
        self,
        target: Optional[WALPosition] = None,
        *,
        max_rounds: int = 8,
        deadline: Optional[float] = None,
    ) -> WALPosition:
        """Poll until ``applied_lsn`` reaches ``target`` (or the tail).

        Raises :class:`TransportError` when ``max_rounds`` polls cannot
        get there (link too lossy, primary gone) or when ``deadline``
        (absolute ``time.monotonic()`` seconds, checked between polls)
        passes first — the caller decides whether that fails an ack or
        just retries later.
        """
        self._check_alive()
        if target is not None and self.position is not None \
                and self.position >= target:
            return self.position
        for _ in range(max_rounds):
            if deadline is not None and time.monotonic() >= deadline:
                raise TransportError(
                    f"replica {self.name}: catch-up deadline expired at "
                    f"{self.position} (target {target})"
                )
            self.poll()
            if target is not None and self.position >= target:
                return self.position
            if target is None and self.lag_bytes == 0:
                return self.position
        if target is not None and self.position >= target:
            return self.position
        if target is None and self.lag_bytes == 0:
            return self.position
        raise TransportError(
            f"replica {self.name} stuck at {self.position} "
            f"(target {target}, lag {self.lag_bytes}B) "
            f"after {max_rounds} polls"
        )

    # -- promotion -----------------------------------------------------

    def promote(
        self,
        *,
        epoch: int,
        registry: Optional["EpochRegistry"] = None,
        required_acks: int = 0,
    ) -> tuple[Primary, Any]:
        """Become the primary of ``epoch``.

        Scrubs fast-path metadata first (replayed state never trusts
        derived pointers — same discipline as crash recovery), then
        wraps this node's durable tree in a :class:`Primary` and
        checkpoints so new replicas bootstrap from a fresh snapshot.

        Returns ``(primary, scrub_report)``.
        """
        self._check_alive()
        with self._lock.write_locked():
            scrub_report = self.durable.scrub()
            self.state = ReplicaState.PROMOTED
        primary = Primary(
            self.durable,
            epoch=epoch,
            registry=registry,
            node_id=self.name,
            required_acks=required_acks,
        )
        primary.checkpoint()
        return primary, scrub_report

    # -- reads ---------------------------------------------------------

    def _state_or_raise(self) -> DurableTree:
        durable = self.durable
        if durable is None:
            raise ReplicationError(
                f"replica {self.name} has no local state "
                "(bootstrap first)"
            )
        return durable

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock.read_locked():
            return self._state_or_raise().get(key, default)

    def get_many(self, keys: Iterable[Any], default: Any = None) -> list[Any]:
        with self._lock.read_locked():
            return self._state_or_raise().get_many(keys, default)

    def range_query(self, start: Any, end: Any) -> list[tuple[Any, Any]]:
        with self._lock.read_locked():
            return self._state_or_raise().range_query(start, end)

    def items(self) -> list[tuple[Any, Any]]:
        with self._lock.read_locked():
            return list(self._state_or_raise().items())

    def __len__(self) -> int:
        with self._lock.read_locked():
            return len(self.durable) if self.durable is not None else 0

    def check(self, check_min_fill: bool = False) -> list[str]:
        with self._lock.read_locked():
            return self._state_or_raise().check(check_min_fill=check_min_fill)

    def range_iter(self, start: Any, end: Any) -> Iterator[tuple[Any, Any]]:
        """Range scan with the lazy-iterator surface of the other tree
        facades.  The replica applies shipped records under its write
        lock, so the result is materialized under the read lock and the
        snapshot iterated — an open cursor must never pin the lock
        across caller-controlled iteration."""
        with self._lock.read_locked():
            snapshot = self._state_or_raise().range_query(start, end)
        return iter(snapshot)

    def scrub(self) -> ScrubReport:
        """Scrub the local tree's derived state (what :meth:`promote`
        runs before serving writes), exposed for facade parity."""
        with self._lock.write_locked():
            return self._state_or_raise().scrub()
