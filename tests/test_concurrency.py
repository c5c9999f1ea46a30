"""Tests for the concurrency layer: locks, concurrent wrappers, and the
contention model (§4.5, Fig. 13)."""

import random
import threading
import time

import pytest

from repro.concurrency import (
    ConcurrentTree,
    OperationProfile,
    RWLock,
    StripedLocks,
    insert_profile,
    lookup_profile,
    throughput,
    throughput_curve,
)
from repro.concurrency import locks as locks_module
from repro.core import BPlusTree, QuITTree, TreeConfig

CFG = TreeConfig(leaf_capacity=16, internal_capacity=16)


class TestRWLock:
    def test_multiple_readers(self):
        lock = RWLock()
        lock.acquire_read()
        lock.acquire_read()
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []

        def writer():
            with lock.write_locked():
                order.append("w-in")
                time.sleep(0.05)
                order.append("w-out")

        def reader():
            time.sleep(0.01)
            with lock.read_locked():
                order.append("r")

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert order == ["w-in", "w-out", "r"]

    def test_writer_waits_for_readers(self):
        lock = RWLock()
        lock.acquire_read()
        acquired = threading.Event()

        def writer():
            lock.acquire_write()
            acquired.set()
            lock.release_write()

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.02)
        assert not acquired.is_set()
        lock.release_read()
        t.join(timeout=1)
        assert acquired.is_set()


class TestStripedLocks:
    def test_same_id_same_lock(self):
        locks = StripedLocks()
        assert locks.lock_for(5) is locks.lock_for(5)
        # Ids a pool's width apart share a stripe.
        assert locks.lock_for(5) is locks.lock_for(5 + locks_module._N_STRIPES)
        assert locks.lock_for(5) is not locks.lock_for(6)

    def test_context_manager(self):
        locks = StripedLocks()
        with locks.locked(7):
            assert locks.lock_for(7).locked()
        assert not locks.lock_for(7).locked()


class TestConcurrentTree:
    @pytest.mark.parametrize("tree_cls", [BPlusTree, QuITTree])
    def test_concurrent_inserts_complete(self, tree_cls):
        ct = ConcurrentTree(tree_cls(CFG))
        keys = list(range(2000))
        random.Random(0).shuffle(keys)
        errors = []

        def worker(chunk):
            try:
                for k in chunk:
                    ct.insert(k, k * 2)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(keys[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(ct) == 2000
        ct.validate()
        for k in range(0, 2000, 97):
            assert ct.get(k) == k * 2

    def test_sorted_concurrent_ingest_uses_fast_path(self):
        ct = ConcurrentTree(QuITTree(CFG))
        for k in range(2000):
            ct.insert(k, k)
        assert ct.fast_path_inserts > 1000
        ct.validate()

    def test_mixed_readers_and_writers(self):
        ct = ConcurrentTree(QuITTree(CFG))
        stop = threading.Event()
        errors = []

        def writer():
            try:
                for k in range(3000):
                    ct.insert(k, k)
            finally:
                stop.set()

        def reader():
            rng = random.Random(1)
            try:
                while not stop.is_set():
                    k = rng.randrange(3000)
                    v = ct.get(k)
                    assert v is None or v == k
                    ct.range_query(k, k + 10)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(ct) == 3000

    def test_concurrent_deletes(self):
        ct = ConcurrentTree(BPlusTree(CFG))
        for k in range(1000):
            ct.insert(k, k)
        errors = []

        def deleter(chunk):
            try:
                for k in chunk:
                    assert ct.delete(k)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        keys = list(range(1000))
        threads = [
            threading.Thread(target=deleter, args=(keys[i::2],))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(ct) == 0

    def test_range_query_correct(self):
        ct = ConcurrentTree(QuITTree(CFG))
        for k in range(500):
            ct.insert(k, k)
        got = ct.range_query(100, 120)
        assert [k for k, _ in got] == list(range(100, 120))

    def test_contains(self):
        ct = ConcurrentTree(BPlusTree(CFG))
        ct.insert(1, None)
        assert 1 in ct
        assert 2 not in ct


class TestContentionModel:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            OperationProfile(service_time=0, serial_fraction=0.5)
        with pytest.raises(ValueError):
            OperationProfile(service_time=1e-6, serial_fraction=1.5)

    def test_throughput_rejects_bad_threads(self):
        p = OperationProfile(1e-6, 0.1)
        with pytest.raises(ValueError):
            throughput(p, 0)

    def test_fully_parallel_scales_linearly(self):
        p = OperationProfile(service_time=1e-6, serial_fraction=0.0)
        assert throughput(p, 4) == pytest.approx(4e6)

    def test_fully_serial_is_flat(self):
        p = OperationProfile(service_time=1e-6, serial_fraction=1.0)
        assert throughput(p, 1) == throughput(p, 16) == pytest.approx(1e6)

    def test_monotone_in_threads(self):
        p = OperationProfile(service_time=1e-6, serial_fraction=0.3)
        curve = throughput_curve(p)
        values = list(curve.values())
        assert all(a <= b * 1.0001 for a, b in zip(values, values[1:]))

    def test_quit_insert_ceiling_above_btree(self):
        # Fig. 13a's mechanism: QuIT's higher fast fraction gives a
        # smaller serialized share, hence a higher saturation ceiling.
        same_service = 2e-6
        quit_p = insert_profile(same_service, fast_fraction=0.95)
        btree_p = insert_profile(same_service, fast_fraction=0.0)
        assert throughput(quit_p, 16) > 1.5 * throughput(btree_p, 16)

    def test_lookup_scaling_near_linear_until_8(self):
        p = lookup_profile(1e-6)
        curve = throughput_curve(p)
        assert curve[8] > 6.5 * curve[1] / 1.0

    def test_insert_profile_validation(self):
        with pytest.raises(ValueError):
            insert_profile(1e-6, fast_fraction=1.5)
