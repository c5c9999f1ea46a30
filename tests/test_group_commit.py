"""Group-commit pipeline: batched fsync, submit/await acks, quorum
amortization, and failure semantics.

The crash-safety *property* (no lost acked write, no phantom) lives in
tests/test_crash_recovery_property.py's group sweep; this file covers
the machinery around it: batching actually coalesces fsyncs, tickets
carry results, interval/none acks are visibly unsynced, abort models
process death, a failing flusher never acks, and the Primary confirms a
whole pipelined batch with one quorum round.
"""

import threading

import pytest

from repro.concurrency import ConcurrentTree, sanitizer
from repro.core import DurableTree, QuITTree, TreeConfig
from repro.core import wal as wal_module
from repro.core.wal import (
    CommitTicket,
    WALDeadError,
    WALError,
    WriteAheadLog,
    replay_wal,
)
from repro.replication import InProcessTransport, Primary, Replica
from repro.testing import FaultError, SimulatedCrash, faults

CFG = TreeConfig(leaf_capacity=16, internal_capacity=16)


def make_group_tree(directory, **kw):
    return DurableTree(
        ConcurrentTree(QuITTree(CFG)), directory, fsync="group", **kw
    )


class TestGroupWAL:
    def test_multi_writer_batching_coalesces_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="group")
        n, writers = 200, 8

        def work(base):
            for i in range(n):
                wal.log_insert(base + i, i)

        threads = [
            threading.Thread(target=work, args=(w * 10_000,))
            for w in range(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert wal.records_appended == n * writers
        # The whole point: far fewer fsyncs than synchronous appends.
        assert wal.syncs < wal.records_appended
        assert wal.group_batches == wal.syncs
        assert wal.group_batch_records == n * writers
        assert 1 <= wal.group_batch_max <= n * writers
        # Group acks are durable acks: nothing rides the page cache.
        assert wal.unsynced_acks == 0
        wal.close()
        replayed = replay_wal(tmp_path)
        assert replayed.clean
        assert len(replayed.ops) == n * writers

    def test_sync_is_a_batch_barrier(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="group")
        tickets = [wal.submit_insert(i, i) for i in range(10)]
        wal.sync()  # returns only after everything above is fsynced
        assert all(t.done() for t in tickets)
        wal.close()

    def test_close_drains_pending_tickets(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="group")
        tickets = [wal.submit_insert(i, i) for i in range(50)]
        wal.close()
        for t in tickets:
            t.wait(5)  # resolved, not failed
        assert len(replay_wal(tmp_path).ops) == 50
        with pytest.raises(WALError):
            wal.log_insert(1, 1)

    def test_abort_drops_queue_and_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="group")
        for i in range(5):
            wal.log_insert(i, i)  # durable: each waited for its batch
        wal.abort()
        with pytest.raises(WALError):
            wal.log_insert(99, 99)
        with pytest.raises(WALError):
            wal.submit_insert(99, 99)
        # Only the acknowledged records are on disk.
        assert len(replay_wal(tmp_path).ops) == 5

    def test_backpressure_bounded_queue_still_completes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(wal_module, "_GROUP_QUEUE_MAX", 4)
        wal = WriteAheadLog(tmp_path, fsync="group")
        tickets = [wal.submit_insert(i, i) for i in range(100)]
        for t in tickets:
            t.wait(10)
        assert wal.group_batch_max <= 4
        wal.close()
        assert len(replay_wal(tmp_path).ops) == 100

    def test_ticket_timeout_raises(self):
        with pytest.raises(WALError):
            CommitTicket().wait(timeout=0.01)


class TestGroupFailureSemantics:
    def test_injected_fsync_error_fails_batch_but_wal_survives(
        self, tmp_path
    ):
        """A recoverable flush failure ("raise") must fail every
        ticket of that batch — nobody gets acked off a failed fsync —
        while the flusher keeps serving later batches."""
        wal = WriteAheadLog(tmp_path, fsync="group")
        with faults.inject("wal.group.pre_fsync", "raise"):
            ticket = wal.submit_insert(1, 1)
            with pytest.raises(FaultError):
                ticket.wait(5)
        # Same WAL, next batch: works and is durable.
        wal.log_insert(2, 2)
        wal.close()
        ops = replay_wal(tmp_path).ops
        assert any(op[1] == 2 for op in ops)

    def test_simulated_crash_propagates_to_writer_and_kills_wal(
        self, tmp_path
    ):
        wal = WriteAheadLog(tmp_path, fsync="group")
        with faults.inject("wal.group.pre_fsync", "crash"):
            ticket = wal.submit_insert(1, 1)
            with pytest.raises(SimulatedCrash):
                ticket.wait(5)
        # The flusher is dead: the WAL accepts nothing further.
        with pytest.raises(WALError):
            wal.log_insert(2, 2)
        wal.abort()

    def test_crash_after_ack_fsync_keeps_batch_durable(self, tmp_path):
        """Dying between the fsync and the acks loses the acks but not
        the bytes: recovery replays the batch (inflight is allowed to
        surface, never required)."""
        wal = WriteAheadLog(tmp_path, fsync="group")
        with faults.inject("wal.group.ack", "crash"):
            ticket = wal.submit_insert(7, 70)
            with pytest.raises(SimulatedCrash):
                ticket.wait(5)
        wal.abort()
        ops = replay_wal(tmp_path).ops
        assert ops and ops[-1][1] == 7

    def test_flusher_death_outside_a_flush_settles_tickets(
        self, tmp_path
    ):
        """Regression: an exception in the flusher's own loop machinery
        (not inside a batch flush) used to leave pending tickets
        unsettled — writers blocked forever against a dead thread.  Now
        every pending ticket fails with WALDeadError and later
        submits/syncs are refused instead of hanging."""
        wal = WriteAheadLog(tmp_path, fsync="group")
        wal.log_insert(0, 0)  # flusher demonstrably alive

        def broken_clear():
            raise RuntimeError("wake machinery broke")

        wal._group_wake.clear = broken_clear
        ticket = wal.submit_insert(1, 1)
        with pytest.raises(WALDeadError) as exc_info:
            ticket.wait(5)
        # The killer rides along for diagnosis.
        assert isinstance(exc_info.value.__cause__, RuntimeError)
        # Refused fast, not queued behind a corpse.
        with pytest.raises(WALError):
            wal.submit_insert(2, 2)
        # sync() must return (not hang): the pipeline is dead, there is
        # nothing group-buffered to wait for.
        wal.sync()
        wal.abort()
        # Only the pre-death append is on disk.
        assert [op[1] for op in replay_wal(tmp_path).ops] == [0]


class TestDurableTreeSubmit:
    def test_tickets_carry_results(self, tmp_path):
        t = make_group_tree(tmp_path)
        ins = t.submit_insert(1, "a")
        dele = t.submit_delete(1)
        dele_missing = t.submit_delete(42)
        many = t.submit_many([(i, i) for i in range(10)])
        empty = t.submit_many([])
        assert ins.result(5) is None
        assert dele.result(5) is True
        assert dele_missing.result(5) is False
        assert many.result(5) == 10
        assert empty.result(5) == 0 and empty.done()
        t.close()

    def test_submit_is_applied_before_ack(self, tmp_path):
        t = make_group_tree(tmp_path)
        ticket = t.submit_insert(5, "v")
        # Visible to reads immediately (read-your-own-write), durable
        # only once the ticket resolves.
        assert t.get(5) == "v"
        ticket.wait(5)
        t.close()

    def test_non_group_policies_return_resolved_tickets(self, tmp_path):
        for policy in ("always", "interval", "none"):
            t = DurableTree(
                QuITTree(CFG), tmp_path / policy, fsync=policy
            )
            ticket = t.submit_insert(1, 1)
            assert ticket.done()
            assert t.submit_many([(2, 2), (3, 3)]).result() == 2
            t.close()

    def test_acked_submits_survive_abort(self, tmp_path):
        t = make_group_tree(tmp_path)
        acked = [t.submit_insert(i, i) for i in range(100)]
        for ticket in acked:
            ticket.wait(10)
        t.abort()  # process death: anything still queued may be lost
        recovered, report = DurableTree.recover(tmp_path, QuITTree, CFG)
        got = dict(recovered.tree.items())
        for i in range(100):
            assert got[i] == i
        recovered.close()

    def test_group_counters_live_on_the_wal(self, tmp_path):
        t = make_group_tree(tmp_path)
        tickets = [t.submit_insert(i, i) for i in range(30)]
        for ticket in tickets:
            ticket.wait(5)
        wal = t.wal
        assert wal.group_batches >= 1
        assert wal.group_batch_records == 30
        assert wal.group_batch_max >= 1
        assert wal.unsynced_acks == 0
        mean = wal.group_batch_records / wal.group_batches
        assert 1 <= mean <= wal.group_batch_max
        t.close()

    def test_stats_are_the_tree_counters_and_reset_to_zero(self, tmp_path):
        t = make_group_tree(tmp_path)
        for ticket in [t.submit_insert(i, i) for i in range(20)]:
            ticket.wait(5)
        assert t.stats is t.tree.stats
        assert t.stats.fast_inserts + t.stats.top_inserts == 20
        t.tree.stats.reset()
        assert set(t.stats.as_dict().values()) == {0}
        assert t.wal.group_batch_records == 20  # the WAL keeps its own
        t.close()

    def test_checkpoint_interleaves_with_submits(self, tmp_path):
        t = make_group_tree(tmp_path)
        outstanding = []
        for i in range(300):
            outstanding.append(t.submit_insert(i, i))
            if i % 97 == 0:
                t.checkpoint()
        for ticket in outstanding:
            ticket.wait(10)
        t.close()
        recovered, _ = DurableTree.recover(tmp_path, QuITTree, CFG)
        assert len(recovered) == 300
        recovered.close()


class TestIntervalAckWindow:
    def test_unsynced_acks_counts_the_window(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "_FSYNC_INTERVAL", 10)
        t = DurableTree(QuITTree(CFG), tmp_path, fsync="interval")
        for i in range(25):
            t.insert(i, i)
        # 25 appends, fsync at 10 and 20: appends 1-9, 11-19, 21-25
        # were acked unsynced (the counter is cumulative).
        assert t.wal.unsynced_acks == 9 + 9 + 5
        t.close()

    def test_none_policy_every_ack_unsynced(self, tmp_path):
        t = DurableTree(QuITTree(CFG), tmp_path, fsync="none")
        for i in range(7):
            t.insert(i, i)
        assert t.wal.unsynced_acks == 7
        t.close()

    def test_group_and_always_never_unsynced(self, tmp_path):
        for policy in ("always", "group"):
            t = DurableTree(
                QuITTree(CFG), tmp_path / policy, fsync=policy
            )
            for i in range(20):
                t.insert(i, i)
            assert t.wal.unsynced_acks == 0
            t.close()


class TestPrimaryPipelinedQuorum:
    def _pair(self, tmp_path, required_acks=1):
        primary = Primary(
            make_group_tree(tmp_path / "primary"),
            required_acks=required_acks,
        )
        replica = Replica(
            tmp_path / "replica",
            InProcessTransport(primary),
            tree_class=QuITTree,
            config=CFG,
        )
        replica.bootstrap()
        primary.attach(replica)
        return primary, replica

    def test_one_ack_round_covers_a_whole_batch(self, tmp_path):
        primary, replica = self._pair(tmp_path)
        for i in range(250):
            primary.submit_insert(i, i)
        drained = primary.drain_acks(timeout=30)
        assert drained == 250
        # The amortization the tentpole promises: one quorum round, not
        # one per write.
        assert primary.ack_rounds == 1
        assert len(replica.durable) == 250
        # Nothing left pending; a second drain is a no-op round-wise.
        assert primary.drain_acks() == 0
        assert primary.ack_rounds == 1
        primary.close()
        replica.close()

    def test_sync_write_path_still_acks_per_op(self, tmp_path):
        primary, replica = self._pair(tmp_path)
        primary.insert(1, "a")
        primary.insert(2, "b")
        assert primary.ack_rounds == 2
        assert len(replica.durable) == 2
        primary.close()
        replica.close()

    def test_kill_aborts_group_flusher(self, tmp_path):
        primary, replica = self._pair(tmp_path, required_acks=0)
        for i in range(20):
            primary.submit_insert(i, i)
        primary.drain_acks(timeout=10)
        primary.kill()
        with pytest.raises(WALError):
            primary.durable.insert(99, 99)
        replica.close()


@pytest.mark.skipif(
    not sanitizer.enabled(), reason="QUIT_SANITIZE=1 only"
)
class TestGroupCommitUnderSanitizer:
    def test_concurrent_submits_clean(self, tmp_path):
        t = make_group_tree(tmp_path)

        def work(base):
            for i in range(50):
                t.submit_insert(base + i, i).wait(10)

        threads = [
            threading.Thread(target=work, args=(w * 1000,))
            for w in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        t.checkpoint()
        t.close()
        assert sanitizer.violations() == []
