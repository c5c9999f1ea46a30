"""Chaos-soak harness for the replication layer.

Runs a seeded, fully deterministic schedule of writes against a
primary + N-replica cluster while injecting faults between operations —
primary kills and partitions, replica kills and restarts, checkpoint
truncations under the stream, and seeded link faults (dropped, partial
and replayed deliveries, armed at the ``repl.transport.*`` sites of
:mod:`repro.testing.faults`) — then heals everything, lets the cluster
converge, and checks the two properties the replication design
promises:

1. **No acknowledged write is ever lost.**  The harness keeps an
   :class:`~repro.testing.oracle.AckOracle` (shared by every soak): the
   last op per key is recorded only when the primary of the current
   epoch acknowledged it (synchronous quorum acks).  A rejected write
   (``FencedError`` before any state change, or ``AckQuorumError``
   after local durability but below quorum) makes the key *uncertain*
   and drops it from the oracle — surviving is allowed, being relied on
   is not.  At the end, every certain key must hold its certain value
   on the final primary.
2. **Replicas converge byte-for-byte.**  After healing and draining,
   every replica's ``items()`` must equal the final primary's
   ``items()``, and the final primary's durability directory must
   recover to exactly its in-memory state.

The harness *returns* a :class:`ChaosReport` rather than asserting, so
tests can layer their own expectations (and CI can print the counters
of a failing seed verbatim).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Type, Union

from ..core.bptree import BPlusTree
from ..core.config import TreeConfig
from ..core.durable import DurableTree
from ..core.health import HealthState, ReadOnlyError
from ..core.quit_tree import QuITTree
from ..core.wal import segment_paths
from ..replication import (
    AckQuorumError,
    EpochRegistry,
    FailoverCoordinator,
    FailoverQuorumError,
    FencedError,
    InProcessTransport,
    Primary,
    Replica,
    TransportError,
)
from . import faults
from .oracle import AckOracle

#: Per-fetch probability of a partial delivery on a chaos-soak link.
DELAY_PROBABILITY = 0.08


@dataclass
class ChaosConfig:
    """One soak schedule.  Everything is derived from ``seed``."""

    seed: int = 0
    ops: int = 1000
    n_replicas: int = 3
    #: replicas that must apply a write before it is acknowledged;
    #: ``None`` means a majority of the replica set (the setting under
    #: which most-caught-up election provably preserves acked writes).
    required_acks: Optional[int] = None
    failure_threshold: int = 2
    #: per-op probability that a fault event fires before the op.
    event_probability: float = 0.03
    #: per-fetch probabilities of a dropped and a replayed delivery.
    drop_probability: float = 0.08
    duplicate_probability: float = 0.08
    key_space: int = 400
    batch_max: int = 12
    checkpoint_every: int = 150
    fsync: str = "none"
    leaf_capacity: int = 8
    segment_bytes: int = 2048
    tree_class: Type[BPlusTree] = QuITTree

    def majority(self) -> int:
        return self.n_replicas // 2 + 1


@dataclass
class ChaosReport:
    """Counters and verdicts from one soak run."""

    seed: int = 0
    ops: int = 0
    acked: int = 0
    fenced_rejects: int = 0
    ack_failures: int = 0
    unavailable: int = 0
    failovers: int = 0
    quorum_refusals: int = 0
    primary_kills: int = 0
    primary_restarts: int = 0
    replica_kills: int = 0
    replica_restarts: int = 0
    partitions: int = 0
    heals: int = 0
    checkpoints: int = 0
    rejoins: int = 0
    bootstraps: int = 0
    #: link faults that acted, per ``"site:kind"``.
    injected: dict = field(default_factory=dict)
    final_epoch: int = 0
    certain_keys: int = 0
    final_entries: int = 0
    lost_writes: list = field(default_factory=list)
    divergent_replicas: list = field(default_factory=list)
    invariant_violations: list = field(default_factory=list)
    recovered_matches: bool = True
    converged: bool = False

    @property
    def ok(self) -> bool:
        """Zero acknowledged-write loss and full convergence."""
        return (
            not self.lost_writes
            and not self.divergent_replicas
            and not self.invariant_violations
            and self.recovered_matches
            and self.converged
        )

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"seed={self.seed} {verdict}: {self.acked}/{self.ops} acked, "
            f"{self.failovers} failovers (epoch {self.final_epoch}), "
            f"{self.primary_kills}+{self.replica_kills} kills, "
            f"{self.partitions} partitions, {self.bootstraps} bootstraps, "
            f"{sum(self.injected.values())} link faults, "
            f"{len(self.lost_writes)} lost, "
            f"{len(self.divergent_replicas)} divergent, "
            f"{self.final_entries} entries"
        )


class ChaosSoak:
    """Build a cluster under ``root`` and run one seeded schedule."""

    def __init__(self, root: Union[str, Path], config: ChaosConfig) -> None:
        self.root = Path(root)
        self.config = config
        self.rng = random.Random(config.seed)
        self.report = ChaosReport(seed=config.seed)
        self._node_seq = 0
        self._partitioned_links: list[InProcessTransport] = []
        self._partitioned_node: Optional[str] = None
        self._retired = 0
        cfg = config
        self.tree_config = TreeConfig(
            leaf_capacity=cfg.leaf_capacity,
            internal_capacity=cfg.leaf_capacity,
        )
        self.registry = EpochRegistry()
        self.required_acks = (
            cfg.required_acks
            if cfg.required_acks is not None
            else cfg.majority()
        )
        primary = Primary(
            self._new_durable("node0"),
            registry=self.registry,
            node_id="node0",
            required_acks=self.required_acks,
        )
        replicas = []
        for i in range(cfg.n_replicas):
            replica = Replica(
                self.root / f"replica{i}",
                InProcessTransport(primary),
                tree_class=cfg.tree_class,
                config=self.tree_config,
                fsync="none",
                name=f"replica{i}",
            )
            replica.bootstrap()
            primary.attach(replica)
            replicas.append(replica)
        self.coordinator = FailoverCoordinator(
            primary,
            InProcessTransport(primary),
            replicas,
            self.registry,
            transport_factory=InProcessTransport,
            failure_threshold=cfg.failure_threshold,
        )

    # -- plumbing ------------------------------------------------------

    def _new_durable(self, name: str) -> DurableTree:
        cfg = self.config
        return DurableTree(
            cfg.tree_class(self.tree_config),
            self.root / name,
            fsync=cfg.fsync,
            segment_bytes=cfg.segment_bytes,
        )

    def _arm_links(self) -> None:
        """Arm the three link sites for the whole run: every link draws
        from the same three seeded fault streams."""
        cfg = self.config
        for i, (site, kind, probability) in enumerate((
            ("repl.transport.drop", "drop", cfg.drop_probability),
            ("repl.transport.delay", "partial", DELAY_PROBABILITY),
            ("repl.transport.reorder", "replay", cfg.duplicate_probability),
        )):
            faults.arm(
                site, kind, probability=probability,
                seed=cfg.seed * 7919 + i,
            )

    @property
    def primary(self) -> Primary:
        return self.coordinator.primary

    def _live_links(self) -> list[InProcessTransport]:
        links = [self.coordinator.primary_transport]
        links += [
            r.transport
            for r in self.coordinator.replicas
            if isinstance(r.transport, InProcessTransport)
            and r.transport.primary is self.primary
        ]
        return links

    # -- fault events --------------------------------------------------

    def _event(self) -> None:
        roll = self.rng.random()
        if roll < 0.22:
            self._partition_primary()
        elif roll < 0.44:
            self._heal()
        elif roll < 0.60:
            self._kill_replica()
        elif roll < 0.78:
            self._restart_replica()
        elif roll < 0.88:
            self._kill_primary()
        else:
            self._rejoin_retired()

    def _partition_primary(self) -> None:
        if self._partitioned_node is not None or not self.primary.alive:
            return
        for link in self._live_links():
            link.partition()
            self._partitioned_links.append(link)
        self._partitioned_node = self.primary.node_id
        self.registry.partition(self.primary.node_id)
        self.report.partitions += 1

    def _heal(self) -> None:
        if self._partitioned_node is None:
            return
        for link in self._partitioned_links:
            link.heal()
        self._partitioned_links.clear()
        self.registry.heal_all()
        self._partitioned_node = None
        self.report.heals += 1

    def _kill_primary(self) -> None:
        if not self.primary.alive:
            return
        self.primary.kill()
        self.report.primary_kills += 1
        self._retired += 1

    def _kill_replica(self) -> None:
        alive = [r for r in self.coordinator.replicas if r.alive]
        # Never drop below the election quorum: a real deployment sizes
        # its replica set so this cannot happen; the harness's job is
        # write-loss hunting, not availability-math torture.
        if len(alive) <= self.coordinator.election_quorum:
            return
        self.rng.choice(alive).kill()
        self.report.replica_kills += 1

    def _restart_replica(self) -> None:
        dead = [r for r in self.coordinator.replicas if not r.alive]
        if not dead:
            return
        replica = self.rng.choice(dead)
        replica.attach(InProcessTransport(self.primary))
        try:
            replica.resume()
        except Exception:
            try:
                replica.bootstrap()
            except Exception:
                replica.kill()
                return
        # Safe to attach even with a stale-tenure cursor: the primary's
        # ack loop refuses cross-epoch positions until the replica's
        # first poll has re-bootstrapped it into the current tenure.
        self.primary.attach(replica)
        self.report.replica_restarts += 1

    def _rejoin_retired(self) -> None:
        if self._retired == 0 or not self.primary.alive:
            return
        if len(self.coordinator.replicas) >= self.config.n_replicas + 2:
            return
        self._retired -= 1
        self._node_seq += 1
        name = f"rejoin{self._node_seq}"
        replica = Replica(
            self.root / name,
            InProcessTransport(self.primary),
            tree_class=self.config.tree_class,
            config=self.tree_config,
            fsync="none",
            name=name,
        )
        try:
            replica.bootstrap()
        except Exception:
            return
        self.coordinator.add_replica(replica)
        self.report.rejoins += 1

    # -- the schedule --------------------------------------------------

    def run(self) -> ChaosReport:
        cfg = self.config
        report = self.report
        oracle = AckOracle()
        self._arm_links()
        for step in range(cfg.ops):
            if self.rng.random() < cfg.event_probability:
                self._event()
            if step and step % cfg.checkpoint_every == 0 \
                    and self.primary.alive:
                try:
                    self.primary.checkpoint()
                    report.checkpoints += 1
                except FencedError:
                    pass
            try:
                promotion = self.coordinator.tick()
            except FailoverQuorumError:
                promotion = None
                report.quorum_refusals += 1
            if promotion is not None:
                report.failovers += 1
                # The deposed node leaves the follower pool (the winner
                # became primary); let a replacement node join later so
                # repeated failovers do not drain the cluster.
                self._retired += 1
            report.ops += 1
            op = _ClientOp(self.rng, cfg.key_space, cfg.batch_max, step)
            if not self.primary.alive:
                report.unavailable += 1
                continue
            try:
                op.apply(self.primary, oracle)
                report.acked += 1
            except FencedError:
                # Rejected before any state change: the oracle entry for
                # this key is still exactly right.
                report.fenced_rejects += 1
            except AckQuorumError:
                # Locally durable but below quorum: the key's fate now
                # depends on which node wins a future election.
                report.ack_failures += 1
                for k in op.keys:
                    oracle.doubt(k)
            except TransportError:
                report.unavailable += 1
        self._finish(oracle)
        return report

    def _restart_primary(self) -> None:
        """Operator restart of a dead primary on its own node (the
        no-electable-replicas endgame: the data is on its disk)."""
        old = self.coordinator.primary
        old.close()  # flush: an in-process restart is a graceful one
        durable, _ = DurableTree.recover(
            old.directory,
            self.config.tree_class,
            self.tree_config,
            fsync=self.config.fsync,
            segment_bytes=self.config.segment_bytes,
        )
        self.coordinator.primary = Primary(
            durable,
            registry=self.registry,
            node_id=old.node_id,
            required_acks=self.required_acks,
        )
        self.coordinator.primary_transport = InProcessTransport(
            self.coordinator.primary
        )
        self.report.primary_restarts += 1

    # -- convergence and verdicts --------------------------------------

    def _finish(self, oracle: AckOracle) -> None:
        report = self.report
        self._heal()
        # Revive every dead replica from its own disk first (a local
        # operation) so the election below has its full candidate set.
        needs_bootstrap = []
        for replica in self.coordinator.replicas:
            if not replica.alive:
                try:
                    replica.resume()
                    report.replica_restarts += 1
                except Exception:
                    replica.kill()
                    needs_bootstrap.append(replica)
        if not self.primary.alive:
            try:
                self.coordinator.failover()
                report.failovers += 1
            except FailoverQuorumError:
                self._restart_primary()
        for replica in needs_bootstrap:
            replica.alive = True
            replica.attach(InProcessTransport(self.primary))
            replica.bootstrap()
        # Quiet, direct links to the live primary for the final drain.
        for site in faults.LINK_SITES:
            faults.disarm(site)
        report.injected = _injected()
        for replica in self.coordinator.replicas:
            transport = InProcessTransport(self.primary)
            replica.attach(transport)
            self.primary.attach(replica)
            if replica.epoch != self.primary.epoch:
                # Cross-tenure cursor: positions are not comparable, so
                # rebuild instead of letting catch_up compare them.
                replica.bootstrap()
        tail = self.primary.tail_position()
        for replica in self.coordinator.replicas:
            replica.catch_up(tail, max_rounds=64)
        for replica in self.coordinator.replicas:
            report.bootstraps += replica.bootstraps
        report.final_epoch = self.registry.current()
        report.certain_keys = len(oracle)
        _verdict(
            report, oracle, self.primary, self.coordinator.replicas,
            self.config.tree_class, self.tree_config,
        )


def _injected() -> dict:
    """Faults that acted so far, per ``"site:kind"``."""
    return {
        f"{site}:{kind}": count
        for (site, kind), count in faults.counts().items()
    }


def _verdict(
    report: Union["ChaosReport", "IOFaultReport"],
    oracle: AckOracle,
    primary: Primary,
    replicas: list[Replica],
    tree_class: Type[BPlusTree],
    tree_config: TreeConfig,
) -> None:
    """The end-of-soak verdict both in-process soaks share, written
    into ``report``; closes every node.

    Every certain key must hold its value on ``primary``, every replica
    must equal ``primary`` item for item, every node must pass
    ``check()``, and ``primary``'s directory must recover to exactly
    the served state (a promoted node is a real durability root, not
    just a cache).
    """
    primary_items = list(primary.items())
    report.final_entries = len(primary_items)
    report.lost_writes = oracle.lost(dict(primary_items).get)
    for replica in replicas:
        if replica.items() != primary_items:
            report.divergent_replicas.append(replica.name)
        violations = replica.check(check_min_fill=False)
        if violations:
            report.invariant_violations.append((replica.name, violations))
    violations = primary.check(check_min_fill=False)
    if violations:
        report.invariant_violations.append((primary.node_id, violations))
    report.converged = not report.divergent_replicas
    primary.close()
    recovered, _ = DurableTree.recover(
        primary.directory, tree_class, tree_config
    )
    report.recovered_matches = list(recovered.items()) == primary_items
    recovered.close()
    for replica in replicas:
        replica.close()


class _ClientOp:
    """One random client op of the in-process soaks, drawn from ``rng``:
    60% insert, 15% delete, 25% batch insert of up to ``batch_max``
    consecutive keys (the batch length is drawn only when applied)."""

    def __init__(
        self, rng: random.Random, key_space: int, batch_max: int, value: int
    ) -> None:
        self.rng = rng
        self.key_space = key_space
        self.batch_max = batch_max
        self.key = rng.randrange(key_space)
        self.value = value
        self.roll = rng.random()
        #: The keys this op writes (known once the batch is drawn).
        self.keys = [self.key]

    def apply(self, primary: Primary, oracle: AckOracle) -> None:
        """Run the op; it reaches ``oracle`` only once acknowledged."""
        if self.roll < 0.60:
            primary.insert(self.key, self.value)
            oracle.ack_put(self.key, self.value)
        elif self.roll < 0.75:
            primary.delete(self.key)
            oracle.ack_delete(self.key)
        else:
            self.keys = [
                (self.key + j) % self.key_space
                for j in range(1 + self.rng.randrange(self.batch_max))
            ]
            primary.insert_many([(k, self.value) for k in self.keys])
            for k in self.keys:
                oracle.ack_put(k, self.value)


def run_soak(
    root: Union[str, Path], config: Optional[ChaosConfig] = None
) -> ChaosReport:
    """Convenience wrapper: build, run, and report one soak schedule."""
    faults.reset()
    return ChaosSoak(root, config or ChaosConfig()).run()


# ======================================================================
# io-fault soak: disk faults instead of process/network faults
# ======================================================================


@dataclass
class IOFaultConfig:
    """One seeded disk-fault schedule (the ``io-fault`` chaos mode).

    Three fault phases fire at deterministic points in the op stream:

    * **EIO bursts** (``eio_bursts`` of them): ``io.wal.write`` returns
      ``EIO`` a couple of times — the retry loop must absorb them so
      every op in the burst still acks;
    * **one ENOSPC window**: ``io.wal.fsync`` fails unboundedly for
      ``enospc_window_ops`` ops — the primary must degrade to
      read-only (mutations refused fast, reads served from memory),
      then heal via a checkpoint when the "disk" clears;
    * **one bit-rot event**: a byte is flipped in a *closed* replica
      WAL segment; the replica's scrubber must detect it, quarantine
      the evidence, and rebuild from the primary.
    """

    seed: int = 0
    ops: int = 600
    key_space: int = 200
    batch_max: int = 8
    eio_bursts: int = 3
    enospc_window_ops: int = 20
    scrub_every: int = 50
    leaf_capacity: int = 8
    segment_bytes: int = 1024
    tree_class: Type[BPlusTree] = QuITTree


@dataclass
class IOFaultReport:
    """Counters and verdicts from one io-fault soak."""

    seed: int = 0
    ops: int = 0
    acked: int = 0
    eio_bursts: int = 0
    read_only_refusals: int = 0
    reads_served_degraded: int = 0
    bitrot_events: int = 0
    health_retries: int = 0
    read_only_trips: int = 0
    recoveries: int = 0
    scrub_cycles: int = 0
    scrub_corruptions: int = 0
    scrub_quarantines: int = 0
    peer_repairs: int = 0
    injected: dict = field(default_factory=dict)
    final_entries: int = 0
    lost_writes: list = field(default_factory=list)
    divergent_replicas: list = field(default_factory=list)
    invariant_violations: list = field(default_factory=list)
    recovered_matches: bool = True
    converged: bool = False

    @property
    def ok(self) -> bool:
        """Zero acked-write loss, full convergence, *and* every fault
        phase demonstrably bit (a schedule whose faults never fired
        proves nothing)."""
        return (
            not self.lost_writes
            and not self.divergent_replicas
            and not self.invariant_violations
            and self.recovered_matches
            and self.converged
            and self.health_retries > 0
            and self.read_only_trips > 0
            and self.read_only_refusals > 0
            and self.reads_served_degraded > 0
            and self.recoveries > 0
            and self.scrub_corruptions > 0
            and self.scrub_quarantines > 0
            and self.peer_repairs > 0
        )

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"seed={self.seed} {verdict}: {self.acked}/{self.ops} acked, "
            f"{self.eio_bursts} EIO bursts ({self.health_retries} "
            f"retries), {self.read_only_refusals} read-only refusals "
            f"({self.reads_served_degraded} degraded reads), "
            f"{self.bitrot_events} bit-rot -> {self.scrub_quarantines} "
            f"quarantined / {self.peer_repairs} peer-repaired, "
            f"{len(self.lost_writes)} lost, "
            f"{len(self.divergent_replicas)} divergent, "
            f"{self.final_entries} entries"
        )


class IOFaultSoak:
    """Primary + 1 sync replica under a seeded disk-fault schedule.

    The primary persists with ``fsync="group"`` so the fault phases
    also exercise the group-commit settlement paths (a batch that meets
    ``ReadOnlyError`` must fail its tickets fast, not hang them).
    """

    def __init__(self, root: Union[str, Path], config: IOFaultConfig) -> None:
        self.root = Path(root)
        self.config = config
        self.rng = random.Random(config.seed)
        self.report = IOFaultReport(seed=config.seed)
        self.tree_config = TreeConfig(
            leaf_capacity=config.leaf_capacity,
            internal_capacity=config.leaf_capacity,
        )
        self.primary = Primary(
            DurableTree(
                config.tree_class(self.tree_config),
                self.root / "primary",
                fsync="group",
                segment_bytes=config.segment_bytes,
            ),
            node_id="primary",
            required_acks=1,
        )
        self.replica = Replica(
            self.root / "replica",
            InProcessTransport(self.primary),
            tree_class=config.tree_class,
            config=self.tree_config,
            fsync="none",
            segment_bytes=config.segment_bytes,
            name="replica",
        )
        self.replica.bootstrap()
        self.primary.attach(self.replica)
        # Peer-heal only: a replica with a live primary should rebuild
        # from the stronger copy, and a soak that silently fell back to
        # a local checkpoint repair would mask a broken heal path.
        self.scrubber = self.replica.make_scrubber(
            max_bytes_per_cycle=1 << 30, auto_repair=False
        )

    # -- fault phases --------------------------------------------------

    def _eio_burst(self) -> None:
        """Two consecutive EIO on the WAL write: retries must absorb it
        so the in-flight op still acks."""
        faults.arm("io.wal.write", "eio", times=2)
        self.report.eio_bursts += 1

    def _enospc_window(self, oracle: AckOracle) -> None:
        """Unbounded fsync ENOSPC: degrade to read-only, keep serving
        reads, refuse mutations fast, heal when the disk clears."""
        cfg = self.config
        faults.arm("io.wal.fsync", "enospc")
        try:
            for _ in range(cfg.enospc_window_ops):
                key = self.rng.randrange(cfg.key_space)
                self.report.ops += 1
                try:
                    self.primary.insert(key, "doomed")
                except ReadOnlyError:
                    self.report.read_only_refusals += 1
                else:
                    # The first op of the window may land if its batch
                    # was flushed before the fault armed took effect —
                    # but once the monitor trips, nothing may.
                    health = self.primary.durable.health
                    if not health.writable:
                        raise AssertionError(
                            "mutation acknowledged while read-only"
                        )
                    oracle.ack_put(key, "doomed")
                    self.report.acked += 1
                # Reads must keep serving the acked history throughout.
                probe = oracle.any_put()
                if probe is not None:
                    k, v = probe
                    if self.primary.get(k, None) == v:
                        self.report.reads_served_degraded += 1
        finally:
            faults.disarm("io.wal.fsync")
        # The disk came back: a checkpoint proves it end-to-end (full
        # snapshot write + WAL truncate) and restores HEALTHY.
        self.primary.checkpoint()
        if self.primary.durable.health.state is not HealthState.HEALTHY:
            raise AssertionError(
                "checkpoint on the freed disk did not restore HEALTHY"
            )

    def _bitrot_event(self) -> bool:
        """Flip one byte mid-record in a closed replica segment, then
        scrub: detect -> quarantine -> rebuild from the primary."""
        wal_dir = self.replica.durable.wal.directory
        closed = segment_paths(wal_dir)[:-1]
        if not closed:
            return False  # not rotated yet; caller retries later
        victim = self.rng.choice(closed)
        data = bytearray(victim.read_bytes())
        if len(data) < 12:
            return False
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        self.report.bitrot_events += 1
        cycle = self.scrubber.scrub_once(full=True)
        if cycle.peer_repaired:
            # Post-heal: the replica must scrub clean and match the
            # primary byte-for-byte (a failed repair is captured by the
            # final counters instead).
            recheck = self.scrubber.scrub_once(full=True)
            if not recheck.clean:
                raise AssertionError(
                    f"replica still corrupt after peer heal: "
                    f"{recheck.issues}"
                )
            if self.replica.items() != list(self.primary.items()):
                raise AssertionError(
                    "replica diverged from primary after peer heal"
                )
        return True

    # -- the schedule --------------------------------------------------

    def run(self) -> IOFaultReport:
        cfg = self.config
        report = self.report
        oracle = AckOracle()
        # Deterministic fault placement: bursts in the middle half,
        # the ENOSPC window at midpoint, bit rot at the 3/4 mark.
        burst_at = set(
            self.rng.sample(
                range(cfg.ops // 4, cfg.ops // 2 - 1), cfg.eio_bursts
            )
        )
        enospc_at = cfg.ops // 2
        bitrot_due = False
        for step in range(cfg.ops):
            if step in burst_at:
                self._eio_burst()
            if step == enospc_at:
                self._enospc_window(oracle)
            if step == cfg.ops * 3 // 4:
                bitrot_due = True
            if bitrot_due:
                bitrot_due = not self._bitrot_event()
            elif cfg.scrub_every and step and step % cfg.scrub_every == 0:
                # Routine paced scrubbing between fault phases must
                # stay clean (no false positives against live appends).
                cycle = self.scrubber.scrub_once()
                if not cycle.clean:
                    raise AssertionError(
                        f"routine scrub false positive: {cycle.issues}"
                    )
            report.ops += 1
            op = _ClientOp(self.rng, cfg.key_space, cfg.batch_max, step)
            try:
                op.apply(self.primary, oracle)
                report.acked += 1
            except ReadOnlyError:
                # Refused before any state change: nothing was acked,
                # the oracle entry for this key is still exactly right.
                report.read_only_refusals += 1
        self._finish(oracle)
        return report

    # -- convergence and verdicts --------------------------------------

    def _finish(self, oracle: AckOracle) -> None:
        report = self.report
        report.injected = _injected()
        faults.reset()
        self.replica.catch_up(self.primary.tail_position(), max_rounds=64)
        health = self.primary.durable.health
        report.health_retries = health.retries
        report.read_only_trips = health.read_only_trips
        report.recoveries = health.recoveries
        report.scrub_cycles = self.scrubber.cycles
        report.scrub_corruptions = self.scrubber.corruptions
        report.scrub_quarantines = self.scrubber.quarantines
        report.peer_repairs = self.scrubber.peer_repairs
        _verdict(
            report, oracle, self.primary, [self.replica],
            self.config.tree_class, self.tree_config,
        )


def run_iofault_soak(
    root: Union[str, Path], config: Optional[IOFaultConfig] = None
) -> IOFaultReport:
    """Build, run, and report one seeded disk-fault soak."""
    faults.reset()
    return IOFaultSoak(root, config or IOFaultConfig()).run()


# The network-tier soak lives in its own module (it manages OS
# processes, not in-process nodes) but is part of the same harness
# family; re-exported here so every soak has one import home.
from .netchaos import (  # noqa: E402
    ERROR_WINDOW_BOUND,
    NetChaosReport,
    run_network_soak,
)
