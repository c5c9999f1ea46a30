"""Server/client end-to-end behavior: dedup, deadlines, typed refusals,
health integration, quorum amortization, and graceful drain."""

import random
import time

import pytest

from repro.core import DurableTree, TreeConfig
from repro.core.bptree import BPlusTree
from repro.core.quit_tree import QuITTree
from repro.net import (
    BackgroundServer,
    DeadlineError,
    QuitClient,
    RetriesExhaustedError,
    ServerFencedError,
    ServerReadOnlyError,
)
from repro.net import client as client_module
from repro.net import protocol
from repro.net import server as server_module
from repro.replication import InProcessTransport, Primary, Replica

CFG = TreeConfig(leaf_capacity=8, internal_capacity=8)


@pytest.fixture
def served(tmp_path):
    durable = DurableTree(QuITTree(CFG), tmp_path / "state", fsync="group")
    with BackgroundServer(durable, admin=True) as bg:
        client = QuitClient("127.0.0.1", bg.port, deadline=5.0)
        yield durable, bg, client
        client.close()
    durable.close()


class TestBasicSurface:
    def test_crud_round_trip(self, served):
        durable, bg, c = served
        c.insert(1, "one")
        c[2] = "two"
        assert c.get(1) == "one"
        assert c[2] == "two"
        assert c.get(404, "dflt") == "dflt"
        with pytest.raises(KeyError):
            c[404]
        assert 1 in c and 404 not in c
        assert c.delete(1) is True
        assert c.delete(1) is False
        assert len(c) == 1

    def test_batched_surface(self, served):
        durable, bg, c = served
        assert c.insert_many([(i, i * i) for i in range(50)]) == 50
        assert c.insert_many([]) == 0
        assert c.get_many([3, 4, 999], -1) == [9, 16, -1]
        assert c.count_range(0, 9) == 9
        assert c.range_query(2, 5) == [(2, 4), (3, 9), (4, 16)]

    @pytest.mark.parametrize("window", [1, 64])
    def test_pipeline_insert_many(self, served, window):
        """Pipelined PUT_MANY frames, one in flight and more in flight
        than there are frames: the summed added-count counts new keys
        only, and a key repeated across frames keeps its last value."""
        durable, bg, c = served
        # Frame f carries keys 10f..10f+19, so each frame rewrites the
        # upper half of the one before it: 70 distinct keys in 6 frames.
        batches = [
            [(k, k * 10 + f) for k in range(10 * f, 10 * f + 20)]
            for f in range(6)
        ]
        assert c.pipeline_insert_many(batches, window=window) == 70
        keys = list(range(70))
        expected = [k * 10 + min(k // 10, 5) for k in keys]
        assert c.get_many(keys) == expected
        assert [durable.get(k) for k in keys] == expected
        assert len(c) == 70

    def test_range_iter_pages_across_requests(self, served, monkeypatch):
        durable, bg, c = served
        # Force multiple SCAN round trips.
        monkeypatch.setattr(client_module, "_SCAN_PAGE", 7)
        c.insert_many([(i, i) for i in range(40)])
        got = list(c.range_iter(5, 30))
        assert got == [(i, i) for i in range(5, 30)]

    def test_check_and_scrub(self, served):
        durable, bg, c = served
        c.insert_many([(i, i) for i in range(30)])
        assert c.check() == []
        report = c.scrub()
        assert report["issues"] == []

    def test_status_counters(self, served):
        durable, bg, c = served
        c.insert(1, 1)
        c.get(1)
        status = c.status()
        assert status["role"] == "durable"
        assert status["health"] == "healthy"
        assert status["stats"]["net_applied"] >= 1
        assert status["stats"]["net_reads"] >= 1
        assert status["boot_id"] == bg.server.boot_id

    def test_writes_are_durable_after_kill(self, served, tmp_path):
        """Acked mutations survive an abrupt server+process death."""
        durable, bg, c = served
        acked = {}
        for i in range(100):
            c.insert(i, i * 3)
            acked[i] = i * 3
        bg.kill()
        durable.abort()  # group flusher dies unflushed, like a crash
        recovered, _ = DurableTree.recover(tmp_path / "state", QuITTree, CFG)
        try:
            for key, value in acked.items():
                assert recovered.get(key) == value
        finally:
            recovered.close()


class TestIdempotency:
    def _twice(self, client, op, payload):
        rid = random.getrandbits(63) | 1
        until = time.monotonic() + 5.0
        first = client._exchange(op, rid, payload, until)
        second = client._exchange(op, rid, payload, until)
        return first, second

    def test_duplicate_put_not_reapplied(self, served):
        durable, bg, c = served
        (st1, fl1, _), (st2, fl2, _) = self._twice(
            c, protocol.OP_PUT, (7, "v")
        )
        assert st1 == st2 == protocol.ST_OK
        assert fl1 & protocol.FLAG_APPLIED
        assert not (fl2 & protocol.FLAG_APPLIED)
        assert fl2 & protocol.FLAG_DEDUPED
        assert bg.stats.net_dedup_hits == 1
        assert bg.stats.net_applied == 1

    def test_duplicate_delete_preserves_existed_bool(self, served):
        durable, bg, c = served
        c.insert(7, "v")
        (st1, _, res1), (st2, fl2, res2) = self._twice(
            c, protocol.OP_DELETE, 7
        )
        assert st1 == st2 == protocol.ST_OK
        # The key was deleted by the first delivery; a re-apply would
        # answer False.  Dedup must echo the original True.
        assert res1 is True and res2 is True
        assert fl2 & protocol.FLAG_DEDUPED

    def test_duplicate_insert_many_preserves_added_count(self, served):
        durable, bg, c = served
        c.insert(0, "preexisting")
        batch = [(i, i) for i in range(4)]
        (st1, _, res1), (st2, fl2, res2) = self._twice(
            c, protocol.OP_PUT_MANY, batch
        )
        assert st1 == st2 == protocol.ST_OK
        # 3 new keys (0 existed); a re-apply would answer 0.
        assert res1 == 3 and res2 == 3
        assert fl2 & protocol.FLAG_DEDUPED

    def test_dedup_table_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "_DEDUP_CAPACITY", 8)
        durable = DurableTree(BPlusTree(), tmp_path / "b", fsync="none")
        with BackgroundServer(durable) as bg:
            c = QuitClient("127.0.0.1", bg.port)
            for i in range(50):
                c.insert(i, i)
            assert len(bg.server._dedup) <= 8
            c.close()
        durable.close()


class TestTypedRefusals:
    def test_read_only_serves_reads_refuses_writes(self, served):
        durable, bg, c = served
        c.insert(1, "one")
        durable.health.mark_read_only(None)
        # Reads keep serving.
        assert c.get(1) == "one"
        # Writes refuse with the typed error, without burning retries.
        before = bg.stats.net_writes
        with pytest.raises(ServerReadOnlyError):
            c.insert(2, "two")
        assert bg.stats.net_writes == before + 1  # exactly one attempt
        assert bg.stats.net_readonly_refusals >= 1
        durable.health.restore()
        c.insert(2, "two")
        assert c.get(2) == "two"

    def test_deadline_budget_zero_refused(self, served):
        durable, bg, c = served
        with pytest.raises(DeadlineError):
            c.insert(1, "x", deadline=0.000001)

    def test_bad_payload_shape_is_request_error(self, served):
        from repro.net import RequestError
        durable, bg, c = served
        with pytest.raises(RequestError):
            c.request(protocol.OP_PUT, "not-a-pair")

    def test_admin_disabled_by_default(self, tmp_path):
        durable = DurableTree(BPlusTree(), tmp_path / "b", fsync="none")
        with BackgroundServer(durable) as bg:  # admin defaults off
            from repro.net import RequestError
            c = QuitClient("127.0.0.1", bg.port)
            with pytest.raises(RequestError):
                c.admin("sleep", 0)
            c.close()
        durable.close()

    def test_admin_arms_only_disk_faults(self, served):
        """The wire admin reaches io.* disk faults and nothing else: a
        crash (a BaseException in the serving process) and a
        control-flow site are both refused, and serving goes on."""
        from repro.net import RequestError
        from repro.testing import faults
        durable, bg, c = served
        with pytest.raises(RequestError):
            c.admin("iofault_arm", "io.wal.write", "crash", {})
        with pytest.raises(RequestError):
            c.admin("iofault_arm", "wal.before_fsync", "raise", {})
        assert faults.armed() == {}
        c.admin("iofault_arm", "io.wal.write", "eio", {"times": 1})
        assert faults.armed() == {"io.wal.write": "eio"}
        c.insert(1, "one")  # the retry loop absorbs the one EIO
        c.admin("iofault_disarm", "io.wal.write")
        assert faults.counts() == {("io.wal.write", "eio"): 1}
        assert c.get(1) == "one"


class TestPrimaryBackend:
    def _cluster(self, tmp_path, *, required_acks=1, ack_deadline=None):
        durable = DurableTree(
            QuITTree(CFG), tmp_path / "p", fsync="group"
        )
        primary = Primary(
            durable, node_id="p", required_acks=required_acks,
            ack_deadline=ack_deadline,
        )
        replica = Replica(
            tmp_path / "r0", InProcessTransport(primary),
            tree_class=QuITTree, config=CFG, name="r0",
        )
        replica.bootstrap()
        primary.attach(replica)
        return primary, replica

    def test_quorum_confirmed_writes(self, tmp_path):
        primary, replica = self._cluster(tmp_path)
        with BackgroundServer(primary) as bg:
            c = QuitClient("127.0.0.1", bg.port)
            for i in range(40):
                c.insert(i, i)
            assert replica.durable.get(20) == 20
            # Amortization: quorum rounds ≪ writes under pipelining.
            assert primary.ack_rounds <= 40
            assert c.status()["role"] == "primary"
            c.close()
        primary.close()
        replica.close()

    def test_partitioned_quorum_degrades_to_retry_later(self, tmp_path):
        primary, replica = self._cluster(tmp_path, ack_deadline=0.15)
        with BackgroundServer(primary) as bg:
            c = QuitClient(
                "127.0.0.1", bg.port, deadline=1.0,
            )
            c.insert(1, "before")
            replica.transport.partition()
            # Whichever trips first — the retry budget or the request
            # deadline — the caller gets a typed, bounded failure
            # instead of a hang on the dead quorum.
            with pytest.raises((RetriesExhaustedError, DeadlineError)):
                c.insert(2, "during")
            assert bg.stats.net_quorum_refusals >= 1
            replica.transport.heal()
            c.insert(3, "after")
            assert c.get(3) == "after"
            c.close()
        primary.close()
        replica.close()

    def test_fenced_primary_surfaces_without_retry(self, tmp_path):
        primary, replica = self._cluster(tmp_path, required_acks=0)
        with BackgroundServer(primary) as bg:
            c = QuitClient("127.0.0.1", bg.port)
            c.insert(1, "pre-fence")
            primary.fence(primary.epoch + 1)
            before = bg.stats.net_writes
            with pytest.raises(ServerFencedError):
                c.insert(2, "post-fence")
            assert bg.stats.net_writes == before + 1
            assert bg.stats.net_fenced_refusals >= 1
            # Reads are never fenced (they acknowledge nothing).
            assert c.get(1) == "pre-fence"
            c.close()
        primary.close()
        replica.close()


class TestGracefulDrain:
    def test_drain_settles_and_checkpoints(self, tmp_path):
        durable = DurableTree(
            QuITTree(CFG), tmp_path / "state", fsync="group"
        )
        bg = BackgroundServer(durable).start()
        c = QuitClient("127.0.0.1", bg.port)
        c.insert_many([(i, i) for i in range(200)])
        c.close()
        bg.stop()
        # Drain checkpointed: WAL truncated, snapshot carries the state.
        from repro.core.wal import segment_paths
        from repro.core.durable import WAL_DIRNAME
        assert durable.snapshot_path.exists()
        live = [
            p for p in segment_paths(tmp_path / "state" / WAL_DIRNAME)
        ]
        durable.close()
        recovered, report = DurableTree.recover(
            tmp_path / "state", QuITTree, CFG
        )
        try:
            assert len(recovered) == 200
            assert report.snapshot_entries == 200
        finally:
            recovered.close()

    def test_draining_server_sheds_new_requests(self, tmp_path):
        from repro.net import NetError
        durable = DurableTree(BPlusTree(), tmp_path / "b", fsync="none")
        bg = BackgroundServer(durable).start()
        c = QuitClient(
            "127.0.0.1", bg.port, deadline=0.6,
        )
        c.insert(1, 1)
        bg.server.admission.draining = True
        with pytest.raises(NetError):
            c.insert(2, 2)
        bg.server.admission.draining = False
        bg.stop()
        c.close()
        durable.close()

    def test_boot_id_changes_across_tenures(self, tmp_path):
        durable = DurableTree(BPlusTree(), tmp_path / "b", fsync="none")
        bg1 = BackgroundServer(durable).start()
        port = bg1.port
        c = QuitClient("127.0.0.1", port)
        c.insert(1, 1)
        boot1 = c.last_boot_id
        bg1.stop()
        c.close()
        bg2 = BackgroundServer(durable, port=0).start()
        c2 = QuitClient("127.0.0.1", bg2.port)
        c2.insert(2, 2)
        boot2 = c2.last_boot_id
        assert boot1 != boot2
        c2.close()
        bg2.stop()
        durable.close()
