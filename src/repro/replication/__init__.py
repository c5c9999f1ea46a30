"""WAL-shipping replication: primary/replica trees with failover.

Built entirely on the durability substrate (:mod:`repro.core.wal`,
:mod:`repro.core.durable`): a :class:`Primary` streams its write-ahead
log to :class:`Replica` nodes that bootstrap from checkpoint snapshots,
apply records with CRC verification, serve reads, and can be promoted
by a :class:`FailoverCoordinator` when the primary dies — with epoch
fencing against split-brain.  See DESIGN.md §7.
"""

from ..core.durable import CURSOR_FILENAME, EPOCH_FILENAME, read_epoch
from .coordinator import (
    ClusterStatus,
    EpochRegistry,
    FailoverCoordinator,
    FailoverQuorumError,
    PromotionReport,
)
from .primary import (
    AckQuorumError,
    FencedError,
    Primary,
    QuorumTimeoutError,
    write_epoch,
)
from .replica import Replica, ReplicaState
from .transport import (
    FetchResult,
    InProcessTransport,
    ReplicationError,
    ReplicationTransport,
    SnapshotPayload,
    StaleEpochError,
    TransportError,
)

__all__ = [
    "AckQuorumError",
    "ClusterStatus",
    "CURSOR_FILENAME",
    "EPOCH_FILENAME",
    "EpochRegistry",
    "FailoverCoordinator",
    "FailoverQuorumError",
    "FencedError",
    "FetchResult",
    "InProcessTransport",
    "Primary",
    "PromotionReport",
    "QuorumTimeoutError",
    "read_epoch",
    "Replica",
    "ReplicaState",
    "ReplicationError",
    "ReplicationTransport",
    "SnapshotPayload",
    "StaleEpochError",
    "TransportError",
    "write_epoch",
]
