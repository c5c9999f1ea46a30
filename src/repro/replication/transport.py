"""Replication transport: how replicas reach their primary.

The wire protocol is three calls — ``ping`` (health), ``fetch_snapshot``
(bootstrap), ``fetch_records`` (stream) — plus ``fence`` (coordinator →
primary decree).  :class:`ReplicationTransport` is the pluggable
interface; :class:`InProcessTransport` is the reference implementation
that talks to a :class:`~repro.replication.primary.Primary` object in
the same process (the unit the chaos harness runs against).  A network
transport implements the same four methods over its favourite RPC stack
and everything above it — :class:`~repro.replication.replica.Replica`,
:class:`~repro.replication.coordinator.FailoverCoordinator` — is
unchanged.

Link faults go through the one registry, :mod:`repro.testing.faults`:
``fetch_records`` reaches the link sites ``repl.transport.drop`` /
``delay`` / ``reorder`` (dropped, partial and replayed delivery, so
replicas must deduplicate by position) and ``fetch_snapshot`` fires
``repl.snapshot_fetch``.  The replication layer treats an injected
:class:`~repro.testing.faults.FaultError` exactly like a
:class:`TransportError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core.wal import WALPosition, WALRecord
from ..testing import faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .primary import Primary


class TransportError(RuntimeError):
    """The peer is unreachable (partitioned, dead, or refusing)."""


class ReplicationError(RuntimeError):
    """Base class for replication-protocol failures."""


class StaleEpochError(ReplicationError):
    """A record stream (or fetch) from a deposed primary was rejected."""


@dataclass
class SnapshotPayload:
    """Bootstrap material served by a primary.

    Attributes:
        data: raw bytes of the primary's checkpoint snapshot file, or
            ``None`` when the primary has never checkpointed (the
            replica then starts from an empty tree).
        base: WAL position the snapshot state corresponds to — the
            replica streams records from here.
        epoch: the serving primary's epoch.
    """

    data: Optional[bytes]
    base: WALPosition
    epoch: int


@dataclass
class FetchResult:
    """One batch of shipped WAL records.

    Attributes:
        records: complete, CRC-framed records in log order (possibly
            empty — nothing new, or a chaos drop).
        position: cursor to resume from after applying ``records``.
        epoch: the serving primary's current epoch.
        tail: the primary's WAL tail when the batch was cut.
        lag_bytes: bytes between ``position`` and ``tail`` (gauge).
        truncated: the requested position predates the primary's
            retained WAL — re-bootstrap from a snapshot.
    """

    records: list[WALRecord] = field(default_factory=list)
    position: WALPosition = WALPosition(0, 0)
    epoch: int = 0
    tail: WALPosition = WALPosition(0, 0)
    lag_bytes: int = 0
    truncated: bool = False


class ReplicationTransport:
    """Interface a replica (and the coordinator) speaks to a primary."""

    def ping(self) -> None:
        """Health probe; raises :class:`TransportError` when down."""
        raise NotImplementedError

    def fetch_snapshot(self) -> SnapshotPayload:
        """Bootstrap payload: snapshot bytes + base position + epoch."""
        raise NotImplementedError

    def fetch_records(
        self,
        position: WALPosition,
        *,
        max_records: int = 512,
        max_bytes: int = 1 << 20,
    ) -> FetchResult:
        """Records at/after ``position``, bounded by the caps."""
        raise NotImplementedError

    def fence(self, epoch: int) -> None:
        """Deliver a fencing decree: a newer epoch has been elected."""
        raise NotImplementedError


class InProcessTransport(ReplicationTransport):
    """Reference transport: direct calls into a same-process primary.

    Partitions are modelled explicitly (:meth:`partition` /
    :meth:`heal`): while partitioned every call raises
    :class:`TransportError`, exactly what a socket timeout becomes in a
    network implementation.
    """

    def __init__(self, primary: "Primary") -> None:
        self.primary = primary
        self.partitioned = False
        self._last_batch: Optional[FetchResult] = None

    # -- link state ----------------------------------------------------

    def partition(self) -> None:
        """Sever the link (both directions)."""
        self.partitioned = True

    def heal(self) -> None:
        """Restore the link."""
        self.partitioned = False

    def _check_link(self) -> None:
        if self.partitioned:
            raise TransportError("link partitioned")
        if not getattr(self.primary, "alive", True):
            raise TransportError("primary process is dead")

    # -- protocol ------------------------------------------------------

    def ping(self) -> None:
        self._check_link()

    def fetch_snapshot(self) -> SnapshotPayload:
        self._check_link()
        faults.fire("repl.snapshot_fetch")
        return self.primary.snapshot_payload()

    def fetch_records(
        self,
        position: WALPosition,
        *,
        max_records: int = 512,
        max_bytes: int = 1 << 20,
    ) -> FetchResult:
        self._check_link()
        if faults.link("repl.transport.drop") is not None:
            # Lost response: the replica's cursor stays put and it
            # simply retries later.
            return FetchResult(
                position=position, epoch=self.primary.epoch,
                tail=self.primary.tail_position(),
            )
        last = self._last_batch
        if (
            last is not None
            and last.records
            and faults.link("repl.transport.reorder") is not None
        ):
            # Duplicate delivery (a retried request whose first answer
            # was not lost after all): serve the previous batch again.
            # The replica must deduplicate by position.
            return last
        result = self.primary.fetch_records(
            position, max_records=max_records, max_bytes=max_bytes
        )
        if len(result.records) > 1:
            fault = faults.link("repl.transport.delay")
            if fault is not None:
                # Slow link: only a prefix arrives this round.
                kept = result.records[
                    : fault.rng.randrange(1, len(result.records))
                ]
                result = FetchResult(
                    records=kept,
                    position=kept[-1].next_position,
                    epoch=result.epoch,
                    tail=result.tail,
                    lag_bytes=result.lag_bytes,
                )
        self._last_batch = result
        return result

    def fence(self, epoch: int) -> None:
        self._check_link()
        self.primary.fence(epoch)
