"""Primary: a :class:`~repro.core.durable.DurableTree` that ships its WAL.

The primary owns the authoritative copy of the index.  Every mutation is
made durable locally (log-then-apply, exactly as ``DurableTree`` alone)
and the resulting WAL is exposed to replicas as a *stream*:

* :meth:`Primary.snapshot_payload` serves the latest checkpoint snapshot
  plus the WAL position it corresponds to (bootstrap);
* :meth:`Primary.fetch_records` serves framed records from any position
  a replica resumes at, following rotation, and answers ``truncated``
  when a checkpoint has folded the requested range into the snapshot.

**Epochs and fencing.**  Each primary tenure has an epoch number,
persisted in an ``EPOCH`` file beside the snapshot and stamped into the
WAL as an ``OP_EPOCH`` marker record, so the stream itself carries the
tenure it belongs to.  Before acknowledging any write the primary
confirms it still holds the current epoch against the
:class:`~repro.replication.coordinator.EpochRegistry` (the stand-in for
a lease/consensus service): if the registry is unreachable or reports a
newer epoch, the write is **rejected** with :class:`FencedError` rather
than acknowledged — a deposed or partitioned primary fails safe instead
of silently diverging (split-brain).

**Acknowledgement modes.**  With ``required_acks=0`` a write is
acknowledged once locally durable (asynchronous replication: a failover
may lose the tail not yet shipped).  With ``required_acks=k`` the write
is additionally shipped synchronously and acknowledged only after *k*
attached replicas have applied it — the mode the chaos harness uses to
assert that no acknowledged write is ever lost across failovers.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

from ..concurrency import sanitizer
from ..core.durable import EPOCH_FILENAME, DurableTree, read_epoch
from ..core.stats import ScrubReport
from ..core.wal import (
    CommitTicket,
    WALPosition,
    WALReader,
    WALStreamError,
    WALTruncatedError,
    first_position,
)
from ..testing import faults
from .transport import FetchResult, ReplicationError, SnapshotPayload, TransportError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.wal import WriteAheadLog
    from .coordinator import EpochRegistry
    from .replica import Replica


class FencedError(ReplicationError):
    """Write rejected: this primary no longer holds the current epoch
    (or cannot prove it does).  The caller must not treat the write as
    acknowledged."""


class AckQuorumError(ReplicationError):
    """Write durable locally but not replicated to ``required_acks``
    replicas; it is **not acknowledged** (it may still surface after a
    failover that keeps this node's log — surviving is allowed, being
    relied on is not)."""

    def __init__(self, message: str, *, acks: int, required: int) -> None:
        super().__init__(message)
        self.acks = acks
        self.required = required


class QuorumTimeoutError(AckQuorumError):
    """The ack quorum did not confirm within the configured
    ``ack_deadline``.  Same contract as :class:`AckQuorumError` — the
    write is durable locally but **not acknowledged** — but typed so
    callers can tell "replicas refused/failed" from "replicas are slow
    or hung": the former warrants a topology look, the latter a retry
    after backoff.  Without a deadline a single hung replica transport
    blocks acked writers forever; this is the bound."""


def write_epoch(directory: Path, epoch: int) -> None:
    """Persist ``epoch`` atomically (tmp + replace + fsync)."""
    path = Path(directory) / EPOCH_FILENAME
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as fh:
        fh.write(f"{epoch}\n")
        fh.flush()
        if sanitizer.enabled():
            sanitizer.note_fsync("repl.epoch_file")
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class Primary:
    """Replication-aware facade over a :class:`DurableTree`.

    Args:
        durable: the locally durable index this node serves.
        epoch: tenure number; defaults to the persisted ``EPOCH`` file
            (or the registry's current epoch, or 1).  Never goes
            backwards relative to the persisted value.
        registry: epoch registry to confirm leadership against before
            each acknowledgement; ``None`` runs unfenced (single-node).
        node_id: this node's identity at the registry.
        required_acks: replicas that must apply a write before it is
            acknowledged (0 = asynchronous replication).
        ack_deadline: seconds any single quorum wait may take before it
            degrades to :class:`QuorumTimeoutError` (``None`` preserves
            the historical unbounded wait).  Applies to the implicit
            wait after every synchronous write and, unless overridden
            per call, to :meth:`drain_acks`.
    """

    def __init__(
        self,
        durable: DurableTree,
        *,
        epoch: Optional[int] = None,
        registry: Optional["EpochRegistry"] = None,
        node_id: str = "primary",
        required_acks: int = 0,
        ack_deadline: Optional[float] = None,
    ) -> None:
        self.durable = durable
        self.registry = registry
        self.node_id = node_id
        self.required_acks = required_acks
        self.ack_deadline = ack_deadline
        #: Quorum waits that hit ``ack_deadline`` and degraded to
        #: :class:`QuorumTimeoutError` instead of blocking on.
        self.quorum_timeouts = 0
        self.alive = True
        self.fenced = False
        self.fenced_by: Optional[int] = None
        self.writes_rejected = 0
        self.batches_served = 0
        self.records_served = 0
        #: Quorum-confirmation rounds run by :meth:`_await_acks` — with
        #: the pipelined submit surface one round covers a whole batch
        #: of writes, so ``ack_rounds`` ≪ writes is the amortization.
        self.ack_rounds = 0
        #: Serve-time corruption repairs: a :class:`WALStreamError`
        #: while shipping records (bit rot below the tail) healed by a
        #: checkpoint — the live tree still holds every acked write, so
        #: snapshotting it and truncating the damaged log is a full
        #: repair; the asking replica re-bootstraps from the result.
        self.stream_repairs = 0
        self._replicas: list["Replica"] = []
        #: Commit tickets handed out by ``submit_*`` whose quorum
        #: confirmation is still owed; drained (one shipping round for
        #: all of them) by :meth:`drain_acks`.  Guarded by `_meta_lock`.
        self._pending_tickets: list[CommitTicket] = []
        self._meta_lock = sanitizer.make_lock("repl.primary.meta")
        self._reader = WALReader(self.wal.directory)
        stored = read_epoch(self.directory)
        if epoch is None:
            epoch = registry.current() if registry is not None else max(stored, 1)
        self.epoch = max(int(epoch), stored)
        if self.epoch != stored:
            write_epoch(self.directory, self.epoch)
        # Stream base: the position a bootstrapping replica must stream
        # from after loading the snapshot this primary serves.
        base = durable.last_checkpoint_position
        if base is None:
            base = first_position(self.wal.directory) or self.wal.tail_position()
        self._base: WALPosition = base
        # Stamp the tenure into the stream before any data record.
        self.wal.log_epoch(self.epoch)

    # -- plumbing ------------------------------------------------------

    @property
    def wal(self) -> "WriteAheadLog":
        return self.durable.wal

    @property
    def directory(self) -> Path:
        return self.durable.directory

    @property
    def tree(self) -> Any:
        return self.durable.tree

    def tail_position(self) -> WALPosition:
        return self.wal.tail_position()

    # -- replica management --------------------------------------------

    def attach(self, replica: "Replica") -> None:
        """Register a replica as a synchronous-ack target."""
        if replica not in self._replicas:
            self._replicas.append(replica)

    def detach(self, replica: "Replica") -> None:
        if replica in self._replicas:
            self._replicas.remove(replica)

    @property
    def replicas(self) -> tuple:
        return tuple(self._replicas)

    # -- fencing -------------------------------------------------------

    def fence(self, epoch: int) -> None:
        """Decree from the coordinator: ``epoch`` has been elected."""
        if epoch > self.epoch:
            self.fenced = True
            self.fenced_by = epoch

    def _check_leadership(self) -> None:
        if self.fenced:
            self.writes_rejected += 1
            raise FencedError(
                f"{self.node_id} (epoch {self.epoch}) was fenced by "
                f"epoch {self.fenced_by}"
            )
        if self.registry is None:
            return
        try:
            current = self.registry.current_for(self.node_id)
        except TransportError as exc:
            # Fail safe: a primary that cannot confirm its lease must
            # not acknowledge writes (it may already be deposed).
            self.writes_rejected += 1
            raise FencedError(
                f"{self.node_id} cannot confirm epoch {self.epoch}: {exc}"
            ) from exc
        if current != self.epoch:
            self.fenced = True
            self.fenced_by = current
            self.writes_rejected += 1
            raise FencedError(
                f"{self.node_id} (epoch {self.epoch}) superseded by "
                f"epoch {current}"
            )

    # -- writes --------------------------------------------------------

    def insert(self, key: Any, value: Any = None) -> None:
        """Fenced, locally durable, and (in sync mode) replicated upsert."""
        self._check_leadership()
        self.durable.insert(key, value)
        self._await_acks()

    def __setitem__(self, key: Any, value: Any) -> None:
        self.insert(key, value)

    def delete(self, key: Any) -> bool:
        self._check_leadership()
        existed = self.durable.delete(key)
        self._await_acks()
        return existed

    def insert_many(self, items: Iterable[tuple]) -> int:
        self._check_leadership()
        added = self.durable.insert_many(items)
        self._await_acks()
        return added

    # -- pipelined writes ----------------------------------------------

    def submit_insert(self, key: Any, value: Any = None) -> CommitTicket:
        """Pipelined fenced upsert: returns the local-durability ticket.

        Leadership is checked *at submit* (a fenced primary must not
        even enqueue).  The ticket resolves at local durability — under
        ``fsync="group"``, when the batch's fsync returns.  In sync
        mode (``required_acks > 0``) the write is quorum-confirmed only
        at the next :meth:`drain_acks`, which ships **one** catch-up
        round for every ticket submitted since the last drain — that is
        how quorum acks amortize over group-commit batch boundaries.
        """
        self._check_leadership()
        ticket = self.durable.submit_insert(key, value)
        self._track_ticket(ticket)
        return ticket

    def submit_delete(self, key: Any) -> CommitTicket:
        """Pipelined fenced delete; ``result()`` is whether it existed."""
        self._check_leadership()
        ticket = self.durable.submit_delete(key)
        self._track_ticket(ticket)
        return ticket

    def submit_many(self, items: Iterable[tuple]) -> CommitTicket:
        """Pipelined fenced batched upsert (one WAL record)."""
        self._check_leadership()
        ticket = self.durable.submit_many(items)
        self._track_ticket(ticket)
        return ticket

    def _track_ticket(self, ticket: CommitTicket) -> None:
        if self.required_acks <= 0:
            return
        with self._meta_lock:
            self._pending_tickets.append(ticket)

    def drain_acks(self, timeout: Optional[float] = None) -> int:
        """Await local durability of every pending submit, then run one
        quorum round covering all of them.

        ``timeout`` bounds the whole drain (local waits + quorum round);
        when ``None`` it falls back to the primary's ``ack_deadline``
        (which may itself be ``None`` = unbounded).  Returns the number
        of tickets drained.  Raises the first ticket's failure (never
        acked), :class:`FencedError`, :class:`AckQuorumError`, or —
        when the bound trips during the quorum round —
        :class:`QuorumTimeoutError`, exactly as the synchronous write
        path would; the replica catch-up cost is paid once per drain,
        not once per write.
        """
        if timeout is None:
            timeout = self.ack_deadline
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._meta_lock:
            pending = self._pending_tickets
            self._pending_tickets = []
        for ticket in pending:
            remaining = (
                None
                if deadline is None
                else max(0.001, deadline - time.monotonic())
            )
            ticket.wait(remaining)
        if pending:
            self._check_leadership()
            self._await_acks(deadline)
        return len(pending)

    def _await_acks(self, deadline: Optional[float] = None) -> None:
        if self.required_acks <= 0:
            return
        if deadline is None and self.ack_deadline is not None:
            deadline = time.monotonic() + self.ack_deadline
        self.ack_rounds += 1
        target = self.wal.tail_position()
        acks = 0
        timed_out = False
        for replica in list(self._replicas):
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                break
            try:
                if replica.epoch != self.epoch:
                    # The replica's cursor belongs to a different tenure;
                    # positions are not comparable across primaries, so a
                    # catch_up early-exit would be meaningless.  Force a
                    # poll — it re-bootstraps into this tenure (or raises
                    # StaleEpochError when *we* are the deposed one).
                    replica.poll()
                    if replica.epoch != self.epoch:
                        continue
                replica.catch_up(target, deadline=deadline)
                acks += 1
            except (TransportError, ReplicationError, faults.FaultError):
                continue
            if acks >= self.required_acks:
                return
        if timed_out or (
            deadline is not None and time.monotonic() >= deadline
        ):
            self.quorum_timeouts += 1
            raise QuorumTimeoutError(
                f"write durable locally but only {acks}/"
                f"{self.required_acks} required replicas confirmed "
                f"within the ack deadline",
                acks=acks,
                required=self.required_acks,
            )
        raise AckQuorumError(
            f"write durable locally but replicated to {acks}/"
            f"{self.required_acks} required replicas",
            acks=acks,
            required=self.required_acks,
        )

    # -- reads (delegation) --------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        return self.durable.get(key, default)

    def __getitem__(self, key: Any) -> Any:
        return self.durable[key]

    def __contains__(self, key: Any) -> bool:
        return key in self.durable

    def get_many(self, keys: Iterable[Any], default: Any = None) -> list[Any]:
        return self.durable.get_many(keys, default)

    def range_query(self, start: Any, end: Any) -> list[tuple[Any, Any]]:
        return self.durable.range_query(start, end)

    def range_iter(self, start: Any, end: Any) -> Iterator[tuple]:
        """Lazy range scan over the locally durable tree.  Like every
        read on the primary it is served unfenced — reads never need the
        epoch check because they acknowledge nothing."""
        return self.durable.range_iter(start, end)

    def range_page(
        self, start: Any, end: Any, limit: int, exclusive: bool = False
    ) -> tuple[list[Any], list[Any], bool]:
        """One bounded page of a range read (the served ``SCAN``),
        unfenced like every read."""
        return self.durable.range_page(start, end, limit, exclusive)

    def items(self) -> Iterable[tuple[Any, Any]]:
        return self.durable.items()

    def __len__(self) -> int:
        return len(self.durable)

    def check(self, check_min_fill: bool = False) -> list[str]:
        return self.durable.check(check_min_fill=check_min_fill)

    def scrub(self) -> ScrubReport:
        return self.durable.scrub()

    # -- serving the stream --------------------------------------------

    def snapshot_payload(self) -> SnapshotPayload:
        """Bootstrap payload: snapshot bytes + the stream base position.

        Consistent pair: the base only moves at :meth:`checkpoint`,
        which replaces the snapshot and updates the base under the same
        lock this read takes.
        """
        with self._meta_lock:
            base = self._base
            snap = self.durable.snapshot_path
            data = snap.read_bytes() if snap.exists() else None
        return SnapshotPayload(data=data, base=base, epoch=self.epoch)

    def fetch_records(
        self,
        position: WALPosition,
        *,
        max_records: int = 512,
        max_bytes: int = 1 << 20,
    ) -> FetchResult:
        """Serve records from ``position``; ``truncated`` when the
        position falls outside the retained WAL window."""
        faults.fire("repl.ship_record")
        with self._meta_lock:
            base = self._base
        tail = self.wal.tail_position()
        if position < base or position > tail:
            return FetchResult(
                records=[], position=position, epoch=self.epoch,
                tail=tail, truncated=True,
            )
        try:
            try:
                records, resume = self._reader.read(
                    position, max_records=max_records, max_bytes=max_bytes
                )
            except WALTruncatedError:
                # position == base whose segment a checkpoint deleted:
                # nothing exists between the base and the earliest
                # surviving byte, so skip the cursor ahead rather than
                # re-bootstrap.
                restart = first_position(self.wal.directory)
                if restart is None:
                    # Truncate emptied the directory and no append has
                    # recreated a segment yet: everything at or below
                    # the base is in the snapshot, so the cursor jumps
                    # straight to the tail.
                    return FetchResult(
                        records=[], position=tail, epoch=self.epoch,
                        tail=tail, lag_bytes=0, truncated=False,
                    )
                if restart < position:
                    return FetchResult(
                        records=[], position=position, epoch=self.epoch,
                        tail=tail, truncated=True,
                    )
                records, resume = self._reader.read(
                    restart, max_records=max_records, max_bytes=max_bytes
                )
        except WALStreamError:
            # Bit rot below the tail, caught while *serving*: the bytes
            # on disk are damaged, but the live tree applied every one
            # of those records before they rotted.  Checkpoint — a fresh
            # snapshot of authoritative state plus a WAL truncate — is a
            # complete repair; answering ``truncated`` sends the replica
            # to that snapshot instead of the corrupt range.
            self.stream_repairs += 1
            self.checkpoint()
            return FetchResult(
                records=[], position=position, epoch=self.epoch,
                tail=self.wal.tail_position(), truncated=True,
            )
        self.batches_served += 1
        self.records_served += len(records)
        return FetchResult(
            records=records,
            position=resume,
            epoch=self.epoch,
            tail=tail,
            lag_bytes=self._reader.bytes_behind(resume),
            truncated=False,
        )

    # -- lifecycle -----------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot + WAL truncate, then advance the stream base."""
        count = self.durable.checkpoint()
        with self._meta_lock:
            self._base = self.durable.last_checkpoint_position
        return count

    def kill(self) -> None:
        """Simulate process death: transports refuse, nothing flushes.

        The WAL's group flusher (if any) is aborted without a final
        flush — queued records die with the process."""
        self.alive = False
        self.durable.abort()

    def close(self) -> None:
        self.durable.close()

    def __enter__(self) -> "Primary":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if exc_info[0] is not None and issubclass(
            exc_info[0], faults.SimulatedCrash
        ):
            return
        self.close()
