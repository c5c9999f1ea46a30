"""Failover: health checks, leader election, fencing, promotion.

:class:`EpochRegistry` stands in for the consensus/lease service every
real deployment keeps outside the data path (etcd, ZooKeeper, a Raft
group): a single monotonically increasing epoch number, plus explicit
per-node reachability so tests can partition a primary *from the
registry* deterministically instead of racing wall-clock lease timeouts.
A primary consults it before every acknowledgement (see
``Primary._check_leadership``), which is the deterministic equivalent of
"only serve writes while holding a live lease".

:class:`FailoverCoordinator` drives the control loop:

* :meth:`tick` health-checks the primary through its transport;
  ``failure_threshold`` consecutive failures trigger :meth:`failover`.
* :meth:`failover` elects among the reachable replicas — refusing to
  act below a majority of the replica set (promoting from a minority
  could choose a node that missed synchronously acknowledged writes) —
  drains each candidate as far as the links allow, promotes the one
  with the highest ``applied_lsn``, bumps the registry epoch (which
  instantly fences the old primary's acknowledgements), delivers a
  best-effort fencing decree over the old transport, and re-points the
  remaining replicas at the new primary.

Why "most caught-up wins" is safe with quorum acks: positions within
one primary's stream are totally ordered, so the maximal replica's log
is a superset of every other replica's.  With ``required_acks`` a
majority and election refusing to run below a majority of replicas, any
acknowledged write lives on at least one electable node — and therefore
on the winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..concurrency import sanitizer
from ..testing import faults
from .primary import Primary
from .replica import Replica
from .transport import ReplicationTransport, TransportError


class FailoverQuorumError(RuntimeError):
    """Too few reachable replicas to elect safely; the cluster stays
    unavailable rather than risking acknowledged-write loss (CP over
    AP)."""


class EpochRegistry:
    """Monotone epoch counter with modelled per-node reachability."""

    def __init__(self, epoch: int = 1) -> None:
        self._epoch = epoch
        self._lock = sanitizer.make_lock("repl.epoch")
        self._partitioned: set[str] = set()

    def current(self) -> int:
        """The registry's own view (the coordinator is co-located)."""
        with self._lock:
            return self._epoch

    def current_for(self, node_id: str) -> int:
        """The epoch as seen by ``node_id`` — or unreachable."""
        with self._lock:
            if node_id in self._partitioned:
                raise TransportError(
                    f"registry unreachable from {node_id!r}"
                )
            return self._epoch

    def bump(self) -> int:
        """Start a new epoch (election); fences all older tenures."""
        with self._lock:
            self._epoch += 1
            return self._epoch

    def partition(self, node_id: str) -> None:
        """Cut ``node_id`` off from the registry (lease expiry model)."""
        with self._lock:
            self._partitioned.add(node_id)

    def heal(self, node_id: str) -> None:
        with self._lock:
            self._partitioned.discard(node_id)

    def heal_all(self) -> None:
        with self._lock:
            self._partitioned.clear()


@dataclass
class PromotionReport:
    """What one failover did."""

    old_node: str
    new_node: str
    old_epoch: int
    new_epoch: int
    winner_lsn: object
    candidates: int
    rebootstrapped: int
    scrub_issues: int
    scrub_repairs: int
    fencing_delivered: bool


@dataclass
class ClusterStatus:
    """Snapshot of the coordinator's view (for CLIs and tests)."""

    primary: str
    epoch: int
    strikes: int
    failovers: int
    primary_health: str = "healthy"
    replicas: list = field(default_factory=list)


class FailoverCoordinator:
    """Health-checks a primary and promotes a replica when it dies.

    Args:
        primary: current primary.
        primary_transport: the coordinator's own link to it.
        replicas: the follower set.
        registry: shared epoch registry.
        transport_factory: builds a replica→primary transport for the
            newly promoted primary (in-process:
            ``lambda p: InProcessTransport(p)``).
        failure_threshold: consecutive failed health checks before
            :meth:`tick` triggers a failover.

    Election needs :attr:`election_quorum` reachable replicas: a
    majority of the current replica set.
    """

    def __init__(
        self,
        primary: Primary,
        primary_transport: ReplicationTransport,
        replicas: List[Replica],
        registry: EpochRegistry,
        *,
        transport_factory: Callable[[Primary], ReplicationTransport],
        failure_threshold: int = 3,
    ) -> None:
        self.primary = primary
        self.primary_transport = primary_transport
        self.replicas = list(replicas)
        self.registry = registry
        self.transport_factory = transport_factory
        self.failure_threshold = failure_threshold
        self.strikes = 0
        self.failovers = 0
        self.health_checks = 0

    @property
    def election_quorum(self) -> int:
        return len(self.replicas) // 2 + 1

    # -- health loop ---------------------------------------------------

    def tick(self) -> Optional[PromotionReport]:
        """One health-check round; returns a report when it failed over.

        A primary that answers pings but has degraded to read-only (its
        :class:`~repro.core.health.HealthMonitor` tripped on exhausted
        write retries) is just as unable to acknowledge writes as a dead
        one — it strikes the same way, so the cluster fails over to a
        replica whose disk still works instead of serving errors.
        """
        faults.fire("repl.health_check")
        self.health_checks += 1
        try:
            self.primary_transport.ping()
            healthy = self.primary.durable.health.writable
        except (TransportError, faults.FaultError):
            healthy = False
        if not healthy:
            self.strikes += 1
            if self.strikes >= self.failure_threshold:
                return self.failover()
            return None
        self.strikes = 0
        return None

    # -- election ------------------------------------------------------

    def _reachable_replicas(self) -> List[Replica]:
        return [
            r
            for r in self.replicas
            if r.alive and r.durable is not None
        ]

    def failover(self) -> PromotionReport:
        """Elect, fence, promote, re-point.  See module docstring."""
        candidates = self._reachable_replicas()
        if len(candidates) < self.election_quorum:
            raise FailoverQuorumError(
                f"only {len(candidates)} of {len(self.replicas)} replicas "
                f"reachable; quorum is {self.election_quorum} — refusing "
                "to elect (an acknowledged write could be lost)"
            )
        # Drain: pull whatever the links still deliver, so the election
        # compares the freshest positions available.
        for replica in candidates:
            try:
                replica.catch_up(max_rounds=2)
            except Exception:
                pass  # best-effort: a dead link just loses the drain
        # Elect on (epoch, position): positions are only comparable
        # within one tenure, and a newer tenure's primary holds every
        # write acknowledged in older tenures (by induction through
        # elections), so lexicographic max is the most-caught-up node.
        winner = max(candidates, key=lambda r: (r.epoch, r.position))
        old_primary = self.primary
        old_epoch = self.registry.current()
        new_epoch = self.registry.bump()
        # From this instant the old primary can no longer confirm its
        # lease: every later acknowledgement attempt raises FencedError
        # even if the decree below never reaches it.
        faults.fire("repl.fence")
        fencing_delivered = True
        try:
            self.primary_transport.fence(new_epoch)
        except (TransportError, faults.FaultError):
            fencing_delivered = False
        faults.fire("repl.promote")
        new_primary, scrub_report = winner.promote(
            epoch=new_epoch,
            registry=self.registry,
            required_acks=old_primary.required_acks,
        )
        self.replicas.remove(winner)
        rebootstrapped = 0
        for replica in self.replicas:
            if not replica.alive:
                continue
            replica.attach(self.transport_factory(new_primary))
            try:
                replica.bootstrap()
                new_primary.attach(replica)
                rebootstrapped += 1
            except (TransportError, faults.FaultError):
                continue
        self.primary = new_primary
        self.primary_transport = self.transport_factory(new_primary)
        self.strikes = 0
        self.failovers += 1
        return PromotionReport(
            old_node=old_primary.node_id,
            new_node=new_primary.node_id,
            old_epoch=old_epoch,
            new_epoch=new_epoch,
            winner_lsn=winner.position,
            candidates=len(candidates),
            rebootstrapped=rebootstrapped,
            scrub_issues=len(scrub_report.issues),
            scrub_repairs=scrub_report.repairs,
            fencing_delivered=fencing_delivered,
        )

    # -- bookkeeping ---------------------------------------------------

    def add_replica(self, replica: Replica) -> None:
        """Register a (rejoined) follower with the cluster."""
        if replica not in self.replicas:
            self.replicas.append(replica)
        self.primary.attach(replica)

    def status(self) -> ClusterStatus:
        return ClusterStatus(
            primary=self.primary.node_id,
            epoch=self.registry.current(),
            strikes=self.strikes,
            failovers=self.failovers,
            primary_health=self.primary.durable.health.state.value,
            replicas=[
                {
                    "name": r.name,
                    "state": r.state.value,
                    "alive": r.alive,
                    "applied_lsn": str(r.position),
                    "lag_bytes": r.lag_bytes,
                    "epoch": r.epoch,
                    "health": (
                        r.durable.health.state.value
                        if r.durable is not None
                        else "n/a"
                    ),
                }
                for r in self.replicas
            ],
        )
