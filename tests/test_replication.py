"""Replication layer: streaming, replicas, acks, fencing, failover."""

from __future__ import annotations

import pytest

from repro.core import DurableTree, QuITTree, TreeConfig
from repro.core.durable import SNAPSHOT_NAME
from repro.core.wal import WALPosition, segment_paths
from repro.replication import (
    AckQuorumError,
    CURSOR_FILENAME,
    EpochRegistry,
    FailoverCoordinator,
    FailoverQuorumError,
    FencedError,
    InProcessTransport,
    Primary,
    Replica,
    ReplicaState,
    ReplicationError,
    StaleEpochError,
    read_epoch,
)
from repro.testing import FaultError, SimulatedCrash, faults

CONFIG = TreeConfig(leaf_capacity=8, internal_capacity=8)


def make_primary(tmp_path, name="node0", **kwargs):
    durable = DurableTree(
        QuITTree(CONFIG), tmp_path / name, fsync="none",
        segment_bytes=2048,
    )
    return Primary(durable, node_id=name, **kwargs)


def make_replica(tmp_path, primary, name="replica0"):
    replica = Replica(
        tmp_path / name,
        InProcessTransport(primary),
        tree_class=QuITTree,
        config=CONFIG,
        name=name,
    )
    replica.bootstrap()
    return replica


class TestLinkFaults:
    """The delivery kinds of the ``repl.transport.*`` link sites."""

    def test_drop_partial_and_replay_on_one_link(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        link = replica.transport
        start = replica.position
        for i in range(6):
            primary.insert(i, i)
        full = primary.fetch_records(start).records
        assert len(full) > 1

        # drop: an empty batch, and the replica's cursor stays put.
        with faults.inject("repl.transport.drop", "drop"):
            dropped = link.fetch_records(start)
            assert replica.poll() == 0
        assert dropped.records == []
        assert dropped.position == start
        assert replica.position == start

        # partial: a strict prefix, resuming after its last record.
        with faults.inject("repl.transport.delay", "partial", seed=5):
            partial = link.fetch_records(start)
        kept = partial.records
        assert 1 <= len(kept) < len(full)
        assert [r.position for r in kept] == [
            r.position for r in full[: len(kept)]
        ]
        assert partial.position == kept[-1].next_position

        # replay: the previous batch again, skipped by position.
        assert replica.poll() == len(full)
        skipped = replica.duplicates_skipped
        with faults.inject("repl.transport.reorder", "replay"):
            replayed = link.fetch_records(replica.position)
            assert replica.poll() == 0
        assert [r.position for r in replayed.records] == [
            r.position for r in full
        ]
        assert replica.duplicates_skipped == skipped + len(full)
        assert replica.items() == list(primary.items())
        assert faults.counts() == {
            ("repl.transport.drop", "drop"): 2,
            ("repl.transport.delay", "partial"): 1,
            ("repl.transport.reorder", "replay"): 2,
        }

    def test_link_kind_rejected_at_an_io_site(self):
        with pytest.raises(ValueError, match="not permitted"):
            faults.arm("io.wal.write", "partial")
        with pytest.raises(ValueError, match="not permitted"):
            faults.arm("repl.transport.drop", "replay")
        assert faults.armed() == {}


class TestPrimaryStream:
    def test_snapshot_payload_before_any_checkpoint(self, tmp_path):
        primary = make_primary(tmp_path)
        payload = primary.snapshot_payload()
        assert payload.data is None
        assert payload.epoch == 1

    def test_fetch_records_streams_all_op_kinds(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.insert(1, "one")
        primary.delete(1)
        primary.insert_many([(2, "two"), (3, "three")])
        payload = primary.snapshot_payload()
        result = primary.fetch_records(payload.base)
        ops = [r.op for r in result.records]
        # The first record is the tenure's epoch marker.
        assert ops[0] == ("e", 1)
        assert ("i", 1, "one") in ops
        assert ("d", 1) in ops
        assert ("m", [(2, "two"), (3, "three")]) in ops
        assert not result.truncated
        assert result.position == primary.tail_position()
        assert result.lag_bytes == 0

    def test_fetch_below_base_reports_truncated(self, tmp_path):
        primary = make_primary(tmp_path)
        for i in range(50):
            primary.insert(i, i)
        primary.checkpoint()
        stale = WALPosition(0, 0)
        result = primary.fetch_records(stale)
        assert result.truncated

    def test_fetch_at_base_with_empty_wal_jumps_to_tail(self, tmp_path):
        primary = make_primary(tmp_path)
        for i in range(10):
            primary.insert(i, i)
        primary.checkpoint()
        base = primary.snapshot_payload().base
        result = primary.fetch_records(base)
        assert not result.truncated
        assert result.records == []
        assert result.position >= base

    def test_epoch_marker_precedes_data(self, tmp_path):
        primary = make_primary(tmp_path, epoch=7)
        primary.insert(1, 1)
        result = primary.fetch_records(primary.snapshot_payload().base)
        assert result.records[0].op == ("e", 7)
        assert read_epoch(primary.directory) == 7


class TestReplica:
    def test_bootstrap_and_stream_converge(self, tmp_path):
        primary = make_primary(tmp_path)
        for i in range(100):
            primary.insert(i, i * 2)
        primary.checkpoint()  # snapshot half the state
        for i in range(100, 200):
            primary.insert(i, i * 2)
        replica = make_replica(tmp_path, primary)
        replica.catch_up(primary.tail_position())
        assert replica.items() == list(primary.items())
        assert replica.state is ReplicaState.FOLLOWING
        assert replica.lag_bytes == 0

    def test_replica_applies_deletes_and_batches(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        primary.insert_many([(i, i) for i in range(50)])
        primary.delete(7)
        primary.delete(13)
        replica.catch_up(primary.tail_position())
        assert replica.get(7) is None
        assert replica.get(8) == 8
        assert len(replica) == 48

    def test_duplicate_delivery_is_deduplicated(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        faults.arm(
            "repl.transport.reorder", "replay", probability=0.6, seed=3
        )
        for phase in range(4):
            primary.insert_many(
                [(phase * 30 + i, phase) for i in range(30)]
            )
            replica.catch_up(primary.tail_position(), max_rounds=128)
        assert replica.items() == list(primary.items())
        assert faults.counts()[("repl.transport.reorder", "replay")] > 0
        assert replica.duplicates_skipped > 0

    def test_crc_tamper_is_rejected(self, tmp_path):
        class TamperingTransport(InProcessTransport):
            def fetch_records(self, position, **kwargs):
                result = super().fetch_records(position, **kwargs)
                result.records[:] = [
                    r.__class__(
                        position=r.position,
                        next_position=r.next_position,
                        payload=r.payload,
                        crc=r.crc ^ 0xDEAD,
                    )
                    for r in result.records
                ]
                return result

        primary = make_primary(tmp_path)
        replica = Replica(
            tmp_path / "tampered", TamperingTransport(primary),
            tree_class=QuITTree, config=CONFIG, name="tampered",
        )
        replica.bootstrap()
        primary.insert(1, "clean")
        with pytest.raises(ReplicationError, match="CRC"):
            replica.poll()
        assert replica.crc_failures == 1
        assert replica.get(1) is None  # nothing was applied

    def test_replica_is_locally_durable(self, tmp_path):
        primary = make_primary(tmp_path)
        for i in range(80):
            primary.insert(i, str(i))
        primary.checkpoint()
        for i in range(80, 120):
            primary.insert(i, str(i))
        replica = make_replica(tmp_path, primary)
        replica.catch_up(primary.tail_position())
        expected = replica.items()
        replica.close()
        recovered, report = DurableTree.recover(
            replica.directory, QuITTree, CONFIG
        )
        assert list(recovered.items()) == expected
        recovered.close()

    def test_resume_continues_from_cursor(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        for i in range(40):
            primary.insert(i, i)
        replica.catch_up(primary.tail_position())
        cursor_before = replica.position
        replica.kill()
        for i in range(40, 80):
            primary.insert(i, i)
        replica.resume()
        assert replica.position == cursor_before
        assert (replica.directory / CURSOR_FILENAME).exists()
        replica.catch_up(primary.tail_position())
        assert replica.items() == list(primary.items())

    def test_rebootstrap_after_checkpoint_truncation(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        replica.catch_up(primary.tail_position())
        # Push the replica's cursor far behind a checkpoint: rotation is
        # forced by tiny segment_bytes, and checkpoint() truncates.
        for i in range(300):
            primary.insert(i, i)
        primary.checkpoint()
        for i in range(300, 320):
            primary.insert(i, i)
        replica.catch_up(primary.tail_position(), max_rounds=32)
        assert replica.bootstraps >= 2  # initial + truncation recovery
        assert replica.items() == list(primary.items())


class RecordingTransport(InProcessTransport):
    """In-process link that keeps every fetch result it delivered."""

    def __init__(self, primary):
        super().__init__(primary)
        self.results = []

    def fetch_records(self, position, **kwargs):
        result = super().fetch_records(position, **kwargs)
        self.results.append(result)
        return result


class TestStreamRepair:
    """Damage below the tail of the primary's WAL, caught while serving:
    the primary checkpoints, answers ``truncated`` and the replica
    re-bootstraps from the fresh snapshot."""

    def lagging_pair(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = Replica(
            tmp_path / "replica0", RecordingTransport(primary),
            tree_class=QuITTree, config=CONFIG, name="replica0",
        )
        replica.bootstrap()
        for i in range(10):
            primary.insert(i, i)
        replica.catch_up(primary.tail_position())
        for i in range(10, 300):
            primary.insert(i, i)
        # Closed segments strictly after the replica's cursor.
        closed = [
            seg for seg in segment_paths(primary.wal.directory)[:-1]
            if int(seg.name[4:-4]) > replica.position.segment
        ]
        assert len(closed) >= 2
        return primary, replica, closed

    def assert_repaired(self, primary, replica):
        bootstraps = replica.bootstraps
        replica.poll()
        assert primary.stream_repairs == 1
        assert replica.transport.results[-2].truncated
        assert replica.bootstraps == bootstraps + 1
        replica.catch_up(primary.tail_position())
        assert replica.items() == list(primary.items())

    def test_flipped_byte_in_closed_segment(self, tmp_path):
        primary, replica, closed = self.lagging_pair(tmp_path)
        seg = closed[0]
        data = bytearray(seg.read_bytes())
        # A payload byte of the second record.
        second = 8 + int.from_bytes(data[:4], "little")
        data[second + 9] ^= 0x01
        seg.write_bytes(bytes(data))
        self.assert_repaired(primary, replica)

    def test_missing_middle_segment(self, tmp_path):
        primary, replica, closed = self.lagging_pair(tmp_path)
        closed[0].unlink()
        self.assert_repaired(primary, replica)


class TestStreamReadCost:
    def test_fetch_reads_from_the_cursor(self, tmp_path, monkeypatch):
        """Each fetch reads the primary's WAL from the replica's cursor
        on, so the bytes read stay within twice the bytes shipped."""
        read_bytes = faults.read_bytes
        wal_bytes = []

        def counting(site, path, *offset):
            data = read_bytes(site, path, *offset)
            if site == "io.wal.read":
                wal_bytes.append(len(data))
            return data

        monkeypatch.setattr(faults, "read_bytes", counting)
        # Default 4 MiB segments: the whole run stays in one segment.
        primary = Primary(
            DurableTree(QuITTree(CONFIG), tmp_path / "node0", fsync="none"),
            node_id="node0",
        )
        replica = Replica(
            tmp_path / "replica0", RecordingTransport(primary),
            tree_class=QuITTree, config=CONFIG, name="replica0",
        )
        replica.bootstrap()
        for i in range(2000):
            primary.insert(i, i)
            if i % 10 == 9:
                replica.poll()
        shipped = [
            record
            for result in replica.transport.results
            for record in result.records
        ]
        assert len(shipped) > 2000
        framed = sum(8 + len(record.payload) for record in shipped)
        assert sum(wal_bytes) <= 2 * framed
        assert replica.items() == list(primary.items())


class TestSyncAcks:
    def test_sync_ack_waits_for_replica(self, tmp_path):
        primary = make_primary(tmp_path, required_acks=1)
        replica = make_replica(tmp_path, primary)
        primary.attach(replica)
        primary.insert(1, "acked")
        # The ack implies the replica already applied it.
        assert replica.get(1) == "acked"

    def test_ack_quorum_failure_raises(self, tmp_path):
        primary = make_primary(tmp_path, required_acks=1)
        replica = make_replica(tmp_path, primary)
        primary.attach(replica)
        replica.kill()
        with pytest.raises(AckQuorumError) as exc_info:
            primary.insert(2, "unacked")
        assert exc_info.value.acks == 0
        assert exc_info.value.required == 1
        # The write is locally durable (it may survive) — it is just
        # not acknowledged.
        assert primary.get(2) == "unacked"

    def test_stale_tenure_replica_does_not_count_as_ack(self, tmp_path):
        primary = make_primary(tmp_path, required_acks=1)
        replica = make_replica(tmp_path, primary)
        # Simulate a cursor from a different tenure with an inflated
        # position: it must not satisfy the quorum via the early-exit.
        replica.epoch = primary.epoch + 5
        replica.position = WALPosition(999, 0)
        replica.kill()
        primary.attach(replica)
        with pytest.raises(AckQuorumError):
            primary.insert(1, 1)


class TestFencing:
    def test_registry_bump_fences_old_primary(self, tmp_path):
        registry = EpochRegistry()
        primary = make_primary(tmp_path, registry=registry)
        primary.insert(1, 1)
        registry.bump()
        with pytest.raises(FencedError):
            primary.insert(2, 2)
        assert primary.fenced
        assert primary.writes_rejected == 1
        # The rejected write never reached the durable tree.
        assert primary.get(2) is None

    def test_partitioned_primary_fails_safe(self, tmp_path):
        registry = EpochRegistry()
        primary = make_primary(tmp_path, registry=registry)
        registry.partition(primary.node_id)
        with pytest.raises(FencedError):
            primary.insert(1, 1)
        registry.heal(primary.node_id)
        primary.insert(1, 1)  # reachable again, still epoch holder

    def test_fence_decree(self, tmp_path):
        primary = make_primary(tmp_path)
        transport = InProcessTransport(primary)
        transport.fence(5)
        with pytest.raises(FencedError):
            primary.insert(1, 1)
        assert primary.fenced_by == 5

    def test_replica_rejects_deposed_primary_stream(self, tmp_path):
        registry = EpochRegistry()
        old = make_primary(tmp_path, name="old", registry=registry)
        replica = make_replica(tmp_path, old)
        old.insert(1, 1)
        replica.catch_up(old.tail_position())
        # A new tenure starts elsewhere; this replica learns of it.
        replica.epoch = registry.bump()
        with pytest.raises(StaleEpochError):
            replica.poll()
        assert replica.stale_epoch_rejects == 1

    def test_bootstrap_replays_an_earlier_tenure(self, tmp_path):
        """A primary restarted under a higher epoch without a checkpoint
        still holds its first tenure's records, epoch marker included:
        a fresh replica bootstraps across both tenures."""
        first = make_primary(tmp_path, epoch=1)
        for i in range(50):
            first.insert(i, i)
        first.close()
        durable, _ = DurableTree.recover(
            tmp_path / "node0", QuITTree, CONFIG, fsync="none",
            segment_bytes=2048,
        )
        second = Primary(durable, epoch=2, node_id="node0")
        for i in range(50, 80):
            second.insert(i, i)
        replica = make_replica(tmp_path, second, name="r0")
        replica.catch_up()
        assert replica.epoch == 2
        assert replica.items() == [(i, i) for i in range(80)]
        assert replica.stale_epoch_rejects == 0
        # Fencing still holds: once it has seen epoch 3, the replica
        # refuses this epoch-2 primary's stream and its snapshot, and
        # keeps its local state.
        replica.epoch = 3
        with pytest.raises(StaleEpochError):
            replica.poll()
        with pytest.raises(StaleEpochError):
            replica.bootstrap()
        assert replica.epoch == 3 and replica.stale_epoch_rejects == 2
        assert len(replica) == 80


class TestFailover:
    def build_cluster(self, tmp_path, n_replicas=2, required_acks=0):
        registry = EpochRegistry()
        primary = make_primary(
            tmp_path, registry=registry, required_acks=required_acks
        )
        replicas = [
            make_replica(tmp_path, primary, name=f"replica{i}")
            for i in range(n_replicas)
        ]
        for replica in replicas:
            primary.attach(replica)
        coordinator = FailoverCoordinator(
            primary,
            InProcessTransport(primary),
            replicas,
            registry,
            transport_factory=InProcessTransport,
            failure_threshold=2,
        )
        return registry, primary, replicas, coordinator

    def test_tick_promotes_after_threshold(self, tmp_path):
        registry, primary, replicas, coord = self.build_cluster(tmp_path)
        for i in range(60):
            primary.insert(i, i)
        for replica in replicas:
            replica.catch_up(primary.tail_position())
        primary.kill()
        assert coord.tick() is None  # strike 1
        report = coord.tick()  # strike 2 -> failover
        assert report is not None
        assert report.new_epoch == 2
        assert coord.primary is not primary
        assert coord.primary.epoch == 2
        assert list(coord.primary.items()) == [(i, i) for i in range(60)]
        # Promotion scrubbed the winner (report carries the numbers).
        assert report.scrub_repairs >= 0
        assert coord.primary.node_id == report.new_node

    def test_most_caught_up_replica_wins(self, tmp_path):
        registry, primary, replicas, coord = self.build_cluster(
            tmp_path, n_replicas=2
        )
        for i in range(30):
            primary.insert(i, i)
        replicas[0].catch_up(primary.tail_position())
        # replica1 lags: it never polls.
        primary.kill()
        coord.tick()
        report = coord.tick()
        assert report.new_node == "replica0"

    def test_failover_repoints_remaining_replicas(self, tmp_path):
        registry, primary, replicas, coord = self.build_cluster(tmp_path)
        for i in range(40):
            primary.insert(i, i)
        for replica in replicas:
            replica.catch_up(primary.tail_position())
        primary.kill()
        coord.tick()
        report = coord.tick()
        assert report.rebootstrapped == 1
        survivor = coord.replicas[0]
        coord.primary.insert(1000, "after")
        survivor.catch_up(coord.primary.tail_position())
        assert survivor.get(1000) == "after"
        assert survivor.epoch == coord.primary.epoch

    def test_quorum_refusal(self, tmp_path):
        registry, primary, replicas, coord = self.build_cluster(
            tmp_path, n_replicas=2
        )
        primary.kill()
        for replica in replicas:
            replica.kill()
        coord.tick()
        with pytest.raises(FailoverQuorumError):
            coord.tick()

    def test_old_primary_writes_rejected_after_partition(self, tmp_path):
        """Acceptance: the fenced old primary's post-partition writes
        are provably rejected, during the partition and after it heals."""
        registry, primary, replicas, coord = self.build_cluster(tmp_path)
        primary.insert(1, "before")
        for replica in replicas:
            replica.catch_up(primary.tail_position())
        # Partition the primary from the registry and its replicas.
        registry.partition(primary.node_id)
        coord.primary_transport.partition()
        with pytest.raises(FencedError):
            primary.insert(2, "during-partition")
        coord.tick()
        report = coord.tick()
        assert report is not None
        new_primary = coord.primary
        new_primary.insert(3, "new-tenure")
        # Heal: the old primary is reachable again but deposed.
        registry.heal(primary.node_id)
        with pytest.raises(FencedError):
            primary.insert(4, "after-heal")
        assert primary.fenced
        # Neither rejected write exists anywhere.
        assert primary.get(2) is None and primary.get(4) is None
        assert new_primary.get(2) is None and new_primary.get(4) is None
        assert new_primary.get(3) == "new-tenure"

    def test_status_snapshot(self, tmp_path):
        registry, primary, replicas, coord = self.build_cluster(tmp_path)
        status = coord.status()
        assert status.primary == "node0"
        assert status.epoch == 1
        assert len(status.replicas) == 2
        assert all(r["alive"] for r in status.replicas)


class TestReplicationFailpoints:
    def test_ship_record_failure_breaks_fetch(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        primary.insert(1, 1)
        with faults.inject("repl.ship_record", "raise"):
            with pytest.raises(FaultError):
                replica.poll()
        replica.catch_up(primary.tail_position())
        assert replica.get(1) == 1

    def test_snapshot_fetch_failure_breaks_bootstrap(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = Replica(
            tmp_path / "r", InProcessTransport(primary),
            tree_class=QuITTree, config=CONFIG,
        )
        with faults.inject("repl.snapshot_fetch", "raise"):
            with pytest.raises(FaultError):
                replica.bootstrap()
        replica.bootstrap()
        assert replica.state is ReplicaState.FOLLOWING

    def test_apply_record_crash_is_recoverable(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        primary.insert(1, 1)
        with faults.inject("repl.apply_record", "crash"):
            with pytest.raises(SimulatedCrash):
                replica.poll()
        # The "crashed" replica restarts from its own disk.
        replica.kill()
        replica.resume()
        replica.catch_up(primary.tail_position())
        assert replica.get(1) == 1

    def test_transport_drop_failpoint(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        with faults.inject("repl.transport.drop", "raise"):
            with pytest.raises(FaultError):
                replica.poll()
        assert faults.hits()["repl.transport.drop"] == 1

    def test_promote_failpoint_aborts_failover(self, tmp_path):
        registry = EpochRegistry()
        primary = make_primary(tmp_path, registry=registry)
        replica = make_replica(tmp_path, primary)
        coord = FailoverCoordinator(
            primary, InProcessTransport(primary), [replica], registry,
            transport_factory=InProcessTransport, failure_threshold=1,
        )
        primary.kill()
        with faults.inject("repl.promote", "raise"):
            with pytest.raises(FaultError):
                coord.tick()
