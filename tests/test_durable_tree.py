"""DurableTree: logged mutations, checkpointing, recovery, and the
crash windows around the snapshot-replace / WAL-truncate boundary."""

import io
import threading

import pytest

from repro.concurrency.concurrent_tree import ConcurrentTree
from repro.core import (
    BPlusTree,
    DurableTree,
    PersistenceError,
    QuITTree,
    TreeConfig,
    codec,
    load_tree,
    save_tree,
)
from repro.core.durable import SNAPSHOT_NAME, WAL_DIRNAME
from repro.core.wal import replay_wal, segment_paths
from repro.net.cli import print_report
from repro.testing import SimulatedCrash, faults

from conftest import ALL_TREE_CLASSES, legacy_snapshot_bytes


CFG = TreeConfig(leaf_capacity=8, internal_capacity=8)


def reference_state(tree) -> dict:
    return dict(tree.items())


class TestLoggedOps:
    @pytest.mark.parametrize(
        "tree_class", ALL_TREE_CLASSES, ids=lambda c: c.name
    )
    def test_recovery_replays_every_variant(self, tmp_path, tree_class):
        t = DurableTree(tree_class(CFG), tmp_path)
        for i in range(300):
            t.insert(i, i * 2)
        t.insert_many([(i, i * 3) for i in range(150, 450)])
        for i in range(0, 100, 7):
            t.delete(i)
        expected = reference_state(t.tree)
        t.close()
        recovered, report = DurableTree.recover(tmp_path, tree_class)
        assert reference_state(recovered.tree) == expected
        assert not report.snapshot_loaded  # never checkpointed
        assert report.records_replayed > 0
        assert recovered.check(check_min_fill=False) == []

    def test_empty_directory_recovers_empty_tree(self, tmp_path):
        t, report = DurableTree.recover(tmp_path / "fresh", QuITTree)
        assert len(t) == 0
        assert report.clean
        assert not report.snapshot_loaded

    def test_empty_batch_is_not_logged(self, tmp_path):
        t = DurableTree(BPlusTree(CFG), tmp_path)
        assert t.insert_many([]) == 0
        t.close()
        assert replay_wal(tmp_path / WAL_DIRNAME).records == 0

    def test_dict_sugar_and_reads_delegate(self, tmp_path):
        t = DurableTree(QuITTree(CFG), tmp_path)
        t[5] = "five"
        assert t[5] == "five"
        assert 5 in t and 6 not in t
        with pytest.raises(KeyError):
            t[6]
        t.insert_many([(i, i) for i in range(10, 20)])
        assert t.get_many([10, 11, 99]) == [10, 11, None]
        assert t.count_range(10, 20) == 10
        assert [k for k, _ in t.range_iter(10, 13)] == [10, 11, 12]
        assert len(t.range_query(10, 13)) == 3
        assert t.scrub().clean


class TestCheckpoint:
    def test_checkpoint_truncates_wal_and_survives(self, tmp_path):
        t = DurableTree(QuITTree(CFG), tmp_path)
        t.insert_many([(i, i) for i in range(500)])
        assert t.checkpoint() == 500
        assert segment_paths(tmp_path / WAL_DIRNAME) == []
        t.insert(1000, "post")
        t.close()
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.snapshot_loaded
        assert report.snapshot_entries == 500
        assert report.records_replayed == 1
        assert len(recovered) == 501 and recovered.get(1000) == "post"

    def test_snapshot_is_v3_checksummed(self, tmp_path):
        t = DurableTree(BPlusTree(CFG), tmp_path)
        t.insert_many([(i, i) for i in range(100)])
        t.checkpoint()
        snapshot = tmp_path / SNAPSHOT_NAME
        data = bytearray(snapshot.read_bytes())
        head, _, body = bytes(data).partition(b"\n")
        assert head == b"quit-tree-v3\t100\t8\t8\tgapped"
        # One framed record, <len u32><crc32 u32><payload>, whose payload
        # is a packed chunk: tag, u32 count, then int32 key and value
        # columns behind a width byte each.
        length = int.from_bytes(body[:4], "little")
        assert len(body) == 8 + length == 8 + 1 + 4 + 2 * (1 + 4 * 100)
        assert body[8] == codec.TAG_PAIRS
        # Flip a bit of value 10: load must reject, not mis-rebuild.
        data[len(head) + 1 + 8 + 1 + 4 + 1 + 400 + 1 + 40] ^= 0x01
        snapshot.write_bytes(bytes(data))
        with pytest.raises(PersistenceError, match="checksum"):
            load_tree(snapshot)

    def test_recover_still_reads_v1_snapshots(self, tmp_path):
        legacy = BPlusTree(CFG)
        for i in range(200):
            legacy.insert(i, i)
        (tmp_path / SNAPSHOT_NAME).write_bytes(
            legacy_snapshot_bytes(list(legacy.items()), CFG, version=1)
        )
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.snapshot_loaded and report.snapshot_entries == 200
        assert reference_state(recovered.tree) == reference_state(legacy)

    def test_crash_between_replace_and_truncate_double_replays(
        self, tmp_path
    ):
        """Satellite: the snapshot already holds the WAL's ops; replaying
        them on top of it again must be a no-op for insert/delete."""
        t = DurableTree(QuITTree(CFG), tmp_path)
        t.insert_many([(i, i) for i in range(200)])
        for i in range(0, 50, 5):
            t.delete(i)
        expected = reference_state(t.tree)
        wal_records = replay_wal(tmp_path / WAL_DIRNAME).records
        with faults.inject("checkpoint.before_truncate", "crash"):
            with pytest.raises(SimulatedCrash):
                t.checkpoint()
        # Snapshot replaced, WAL untouched: both describe the state.
        assert (tmp_path / SNAPSHOT_NAME).exists()
        assert replay_wal(tmp_path / WAL_DIRNAME).records == wal_records
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.snapshot_loaded and report.snapshot_entries == len(expected)
        assert report.records_replayed == wal_records  # double replay
        assert reference_state(recovered.tree) == expected
        assert recovered.check(check_min_fill=False) == []

    def test_crash_mid_truncate_leaves_replayable_suffix(self, tmp_path):
        t = DurableTree(
            QuITTree(CFG), tmp_path, segment_bytes=256
        )
        for i in range(300):
            t.insert(i, i)
        expected = reference_state(t.tree)
        assert len(segment_paths(tmp_path / WAL_DIRNAME)) > 2
        with faults.inject(
            "wal.before_truncate_segment", "crash", hits_before=1
        ):
            with pytest.raises(SimulatedCrash):
                t.checkpoint()
        # One segment deleted, the rest survive; snapshot covers it all.
        recovered, _ = DurableTree.recover(tmp_path, QuITTree)
        assert reference_state(recovered.tree) == expected

    def test_crash_before_snapshot_replace_keeps_old_snapshot(
        self, tmp_path
    ):
        t = DurableTree(QuITTree(CFG), tmp_path)
        t.insert_many([(i, i) for i in range(100)])
        t.checkpoint()
        t.insert(500, "next-epoch")
        expected = reference_state(t.tree)
        with faults.inject("snapshot.after_tmp_write", "crash"):
            with pytest.raises(SimulatedCrash):
                t.checkpoint()
        # The abandoned temp file must not shadow or replace anything.
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.snapshot_entries == 100
        assert reference_state(recovered.tree) == expected
        assert not (tmp_path / (SNAPSHOT_NAME + ".tmp")).exists()

    def test_checkpoint_failure_mid_write_preserves_old_snapshot(
        self, tmp_path
    ):
        """Satellite: a failed save unlinks its temp file and leaves the
        previous good snapshot untouched."""
        t = DurableTree(BPlusTree(CFG), tmp_path)
        t.insert_many([(i, i) for i in range(50)])
        t.checkpoint()
        before = (tmp_path / SNAPSHOT_NAME).read_bytes()
        # Slip an unserializable value past the WAL (which would reject
        # it at append time) straight into the tree: the snapshot write
        # then fails partway through its temp file.
        t.tree.insert(60, object())
        with pytest.raises(PersistenceError):
            t.checkpoint()
        assert (tmp_path / SNAPSHOT_NAME).read_bytes() == before
        assert not (tmp_path / (SNAPSHOT_NAME + ".tmp")).exists()


class TestTornTailRecovery:
    def test_corrupt_tail_yields_report_not_exception(self, tmp_path):
        t = DurableTree(QuITTree(CFG), tmp_path)
        for i in range(100):
            t.insert(i, i)
        t.close()
        (seg,) = segment_paths(tmp_path / WAL_DIRNAME)
        data = seg.read_bytes()
        seg.write_bytes(data[:-5])  # tear the last record
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.truncated_tail
        assert report.tail_bytes_dropped > 0
        assert report.records_replayed == 99
        assert len(recovered) == 99
        assert not report.clean

    def test_post_recovery_writes_survive_the_next_recovery(self, tmp_path):
        t = DurableTree(QuITTree(CFG), tmp_path)
        for i in range(50):
            t.insert(i, i)
        t.close()
        (seg,) = segment_paths(tmp_path / WAL_DIRNAME)
        seg.write_bytes(seg.read_bytes()[:-3])
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.truncated_tail
        recovered.insert(777, "after-repair")
        recovered.close()
        again, report2 = DurableTree.recover(tmp_path, QuITTree)
        assert report2.clean  # repair trimmed the torn bytes for good
        assert again.get(777) == "after-repair"
        assert len(again) == 50  # 49 survivors + the new key


class TestConcurrentComposition:
    def test_durable_over_concurrent_round_trip(self, tmp_path):
        t = DurableTree(ConcurrentTree(QuITTree(CFG)), tmp_path)
        t.insert_many([(i, i) for i in range(200)])
        t.insert(1000, "x")
        t.delete(5)
        t.checkpoint()
        t.insert(1001, "y")
        expected = dict(t.tree.items())
        t.close()
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert dict(recovered.tree.items()) == expected
        assert recovered.get(1001) == "y"
        assert recovered.check() == []

    def test_threaded_writers_all_survive_recovery(self, tmp_path):
        import threading

        t = DurableTree(
            ConcurrentTree(QuITTree(CFG)), tmp_path, fsync="none"
        )

        def writer(base):
            for i in range(200):
                t.insert(base + i, base + i)

        threads = [
            threading.Thread(target=writer, args=(b,))
            for b in (0, 10_000, 20_000)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        t.close()
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.clean and len(recovered) == 600
        assert recovered.check() == []


class TestScrubIntegration:
    def test_recover_scrubs_by_default(self, tmp_path):
        t = DurableTree(QuITTree(CFG), tmp_path)
        t.insert_many([(i, i) for i in range(100)])
        t.close()
        _, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.scrub is not None and report.scrub.clean
        _, report = DurableTree.recover(tmp_path, QuITTree, scrub=False)
        assert report.scrub is None

    def test_scrub_resets_poisoned_fast_path(self, small_config):
        tree = QuITTree(small_config)
        for i in range(500):
            tree.insert(i, i)
        # Widen the window beyond the leaf's pivot range: unsafe.
        tree._fp.low = None
        tree._fp.high = None
        tree._fp.leaf = tree.head_leaf
        report = tree.scrub()
        assert not report.clean and report.repairs == 1
        assert tree.stats.scrub_resets == 1
        # The reset pin must be immediately serviceable.
        tree.insert(10_000, "post-scrub")
        assert tree.get(10_000) == "post-scrub"
        tree.validate(check_min_fill=False)

    def test_scrub_detects_detached_leaf_and_stale_pole_prev(
        self, small_config
    ):
        from repro.core.node import LeafNode

        tree = QuITTree(small_config)
        for i in range(500):
            tree.insert(i, i)
        orphan = LeafNode()
        orphan.keys = [10**9]
        orphan.values = ["orphan"]
        tree._fp.leaf = orphan
        report = tree.scrub()
        assert any("detached" in issue for issue in report.issues)
        tree.validate(check_min_fill=False)
        # Stale pole_prev: min key above the pole's.
        tree._fp.prev = tree.tail_leaf
        tree._fp.leaf = tree.head_leaf
        tree._fp.low, tree._fp.high = tree.bounds_of_leaf(tree.head_leaf)
        report = tree.scrub()
        assert any("pole_prev" in issue for issue in report.issues)
        tree.validate(check_min_fill=False)

    def test_clean_trees_scrub_clean(self, any_tree_class, small_config):
        tree = any_tree_class(small_config)
        for i in range(300):
            tree.insert((i * 7919) % 1000, i)
        for i in range(0, 200, 3):
            tree.delete(i)
        report = tree.scrub()
        assert report.clean, report.issues
        assert tree.stats.scrub_checks == 1


class TestCheckpointGate:
    """Regression: a checkpoint interleaving between a writer's WAL
    append and its tree apply would snapshot a tree missing the op
    while truncating the WAL record that held it — the acknowledged
    write would survive only in memory and vanish at the next
    recovery.  The facade's gate makes log+apply atomic w.r.t.
    snapshot+truncate."""

    def test_checkpoint_cannot_slip_between_log_and_apply(self, tmp_path):
        t = DurableTree(
            ConcurrentTree(QuITTree(CFG)), tmp_path, fsync="none"
        )
        t.insert(1, "one")
        t.checkpoint()
        logged = threading.Event()
        release = threading.Event()
        orig_log = t.wal.log_insert

        def stalling_log(key, value=None):
            orig_log(key, value)
            logged.set()
            release.wait(timeout=5.0)

        t.wal.log_insert = stalling_log
        writer = threading.Thread(target=t.insert, args=(2, "two"))
        writer.start()
        assert logged.wait(timeout=5.0)
        # Key 2 is now logged but not yet applied.  A checkpoint
        # started here must block on the gate until the apply lands.
        ck = threading.Thread(target=t.checkpoint)
        ck.start()
        ck.join(timeout=0.3)
        checkpoint_ran_early = not ck.is_alive()
        release.set()
        writer.join(timeout=5.0)
        ck.join(timeout=5.0)
        assert not writer.is_alive() and not ck.is_alive()
        assert not checkpoint_ran_early, (
            "checkpoint completed while an op was logged but unapplied"
        )
        t.wal.log_insert = orig_log
        t.close()
        recovered, _ = DurableTree.recover(tmp_path, QuITTree, CFG)
        assert recovered.get(2) == "two", "acknowledged write lost"
        assert recovered.get(1) == "one"
        recovered.close()

    def test_concurrent_writers_and_checkpoints_lose_nothing(self, tmp_path):
        """Hammer variant of the same property: writer threads racing a
        checkpointer thread; recovery must see every acknowledged key."""
        t = DurableTree(
            ConcurrentTree(QuITTree(CFG)), tmp_path, fsync="none"
        )
        n_writers, per_writer = 4, 150
        errors = []

        def write(base):
            try:
                for i in range(per_writer):
                    t.insert(base + i, base + i)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def checkpoint_loop(stop):
            # Paced: a zero-sleep loop on the writer-preferring gate
            # would starve the insert threads behind per-checkpoint
            # snapshot fsyncs.
            try:
                while not stop.is_set():
                    t.checkpoint()
                    stop.wait(0.002)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        stop = threading.Event()
        ck = threading.Thread(target=checkpoint_loop, args=(stop,))
        writers = [
            threading.Thread(target=write, args=(w * 10_000,))
            for w in range(n_writers)
        ]
        ck.start()
        for w in writers:
            w.start()
        for w in writers:
            w.join(timeout=120.0)
        stop.set()
        ck.join(timeout=120.0)
        assert not ck.is_alive() and not any(w.is_alive() for w in writers)
        assert not errors, errors
        t.close()
        recovered, _ = DurableTree.recover(tmp_path, QuITTree, CFG)
        got = reference_state(recovered.tree)
        expected = {
            w * 10_000 + i: w * 10_000 + i
            for w in range(n_writers)
            for i in range(per_writer)
        }
        assert got == expected
        recovered.close()


class TestDurableExit:
    def test_exit_flushes_on_keyboard_interrupt(self, tmp_path):
        """KeyboardInterrupt leaves a live process: __exit__ must still
        flush/fsync.  Only SimulatedCrash models a dead one."""
        t = DurableTree(BPlusTree(CFG), tmp_path, fsync="interval")
        with pytest.raises(KeyboardInterrupt):
            with t:
                t.insert(1, "one")
                raise KeyboardInterrupt
        assert t.wal._fh is None  # closed → final flush/fsync happened
        assert t.wal.syncs >= 1

    def test_exit_skips_close_on_simulated_crash(self, tmp_path):
        t = DurableTree(BPlusTree(CFG), tmp_path, fsync="none")
        with pytest.raises(SimulatedCrash):
            with t:
                t.insert(1, "one")
                raise SimulatedCrash("simulated crash")
        assert t.wal._fh is not None  # a dead process flushes nothing
        t.wal._fh.close()

class TestRecoveryReadFaults:
    def test_short_snapshot_read_is_retried(self, tmp_path):
        """A torn read of the snapshot is a short read, retried like one
        of a WAL segment, not a torn record."""
        t = DurableTree(QuITTree(CFG), tmp_path)
        for i in range(30):
            t.insert(i, i)
        t.checkpoint()
        for i in range(30, 40):
            t.insert(i, -i)
        expected = reference_state(t.tree)
        t.close()
        with faults.inject("io.snapshot.read", "torn", times=1) as fault:
            recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert fault.fired
        assert report.snapshot_loaded and report.clean
        assert reference_state(recovered.tree) == expected
        recovered.close()

    def test_sequence_gap_is_not_clean(self, tmp_path):
        """A missing middle segment loses the records it held even when
        the orphaned segment after it is empty."""
        t = DurableTree(QuITTree(CFG), tmp_path, segment_bytes=64)
        for i in range(6):
            t.insert(i, i)
        assert len(segment_paths(tmp_path / WAL_DIRNAME)) == 2
        with faults.inject("io.wal.write", "crash"):
            with pytest.raises(SimulatedCrash):
                t.insert(6, 6)  # rotation opened segment 3, then died
        t.wal._fh.close()
        segs = segment_paths(tmp_path / WAL_DIRNAME)
        assert [s.stat().st_size for s in segs][2:] == [0]
        segs[1].unlink()
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.sequence_gap
        assert report.tail_bytes_dropped == 0
        assert sorted(recovered.tree.keys()) == [0, 1, 2]
        assert not report.clean
        out = io.StringIO()
        print_report(report, out)
        assert "sequence gap             True" in out.getvalue()
        recovered.close()


class TestMultiSegmentTornMiddleRecovery:
    """Satellite: recovery spanning several rotated segments where the
    torn record sits in a *middle* segment — replay must stop there,
    drop the later segments' records, and repair_wal must leave a log
    that accepts (and preserves) post-repair appends."""

    def build(self, tmp_path, n=400):
        t = DurableTree(
            QuITTree(CFG), tmp_path, fsync="none", segment_bytes=1024
        )
        for i in range(n):
            t.insert(i, str(i))
        t.close()
        segs = segment_paths(tmp_path / WAL_DIRNAME)
        assert len(segs) >= 3, "workload must span >= 3 segments"
        return segs

    def test_torn_middle_segment_recovers_prefix(self, tmp_path):
        from repro.core.wal import repair_wal

        segs = self.build(tmp_path)
        middle = segs[len(segs) // 2]
        data = middle.read_bytes()
        middle.write_bytes(data[:-5])  # torn record mid-log
        recovered, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.truncated_tail
        assert report.tail_bytes_dropped > 0
        # Everything before the tear replayed; everything after it is
        # gone, including the intact later segments.
        keys = [k for k, _ in recovered.items()]
        assert keys == list(range(len(keys)))
        assert 0 < len(keys) < 400
        assert recovered.check(check_min_fill=False) == []
        recovered.close()

    def test_repair_then_append_then_recover_again(self, tmp_path):
        from repro.core.wal import repair_wal, replay_wal

        segs = self.build(tmp_path)
        middle = segs[len(segs) // 2]
        middle.write_bytes(middle.read_bytes()[:-5])
        wal_dir = tmp_path / WAL_DIRNAME
        res = replay_wal(wal_dir)
        repair_wal(wal_dir, res)
        # The damaged segment is trimmed to its last valid record and
        # the later segments are deleted.
        remaining = segment_paths(wal_dir)
        assert remaining[-1] == middle
        assert middle.stat().st_size < 1024
        # First recovery after repair is clean, and new writes made
        # through it survive a *second* recovery.
        t, report = DurableTree.recover(tmp_path, QuITTree)
        assert report.clean
        base = len(t)
        t.insert(9999, "post-repair")
        t.close()
        t2, report2 = DurableTree.recover(tmp_path, QuITTree)
        assert report2.clean
        assert t2.get(9999) == "post-repair"
        assert len(t2) == base + 1
        t2.close()
