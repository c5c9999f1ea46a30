"""The fault registry itself (:mod:`repro.testing.faults`): arming
semantics, kinds, scoping, counters, and the registry contract the
durability and replication layers rely on.  The disk shims and the
survivability property live in tests/test_iofaults.py."""

import pytest

from repro.testing import FaultError, SimulatedCrash, faults


class TestRegistry:
    def test_known_names_are_stable_and_nonempty(self):
        for site in (
            "wal.before_fsync",
            "snapshot.after_tmp_write",
            "checkpoint.before_truncate",
        ):
            assert faults.SITES[site] == ("raise", "crash")
        assert set(faults.SITES) == set(
            faults.CONTROL_SITES
            + faults.LINK_SITES
            + faults.IO_WRITE_SITES
            + faults.IO_READ_SITES
        )
        for site in faults.IO_WRITE_SITES:
            assert faults.SITES[site] == faults.DISK_KINDS + ("crash",)
        for site in faults.IO_READ_SITES:
            assert faults.SITES[site] == faults.DISK_KINDS

    def test_unknown_name_rejected_at_arming(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            with faults.inject("wal.no_such_point", "raise"):
                pass
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.arm("wal.no_such_point", "raise")

    def test_unknown_mode_rejected(self):
        # A kind is checked against its own site's permitted kinds.
        for site, kind in (
            ("wal.before_fsync", "explode"),
            ("wal.before_fsync", "eio"),  # disk kind at a control site
            ("io.wal.write", "raise"),  # control kind at a disk site
            ("io.wal.read", "crash"),  # read sites never crash
        ):
            with pytest.raises(ValueError, match="not permitted"):
                faults.arm(site, kind)
        assert faults.armed() == {}

    def test_double_arming_rejected(self):
        with faults.inject("wal.before_fsync", "raise"):
            with pytest.raises(RuntimeError, match="already armed"):
                with faults.inject("wal.before_fsync", "raise"):
                    pass
            # The refused inner block left the outer fault armed.
            assert faults.armed() == {"wal.before_fsync": "raise"}

    def test_arm_replaces_an_armed_site(self):
        first = faults.arm("wal.before_fsync", "raise")
        second = faults.arm("wal.before_fsync", "crash", hits_before=1)
        assert faults.armed() == {"wal.before_fsync": "crash"}
        faults.fire("wal.before_fsync")  # skipped by the new hits_before
        with pytest.raises(SimulatedCrash):
            faults.fire("wal.before_fsync")
        assert (first.fired, second.fired) == (0, 1)


class TestFiring:
    def test_unarmed_fire_is_a_no_op(self):
        faults.fire("wal.before_fsync")  # nothing armed: no raise

    def test_raise_mode(self):
        with faults.inject("wal.before_fsync", "raise"):
            with pytest.raises(FaultError):
                faults.fire("wal.before_fsync")

    def test_crash_mode_bypasses_except_exception(self):
        with faults.inject("wal.before_fsync", "crash"):
            with pytest.raises(SimulatedCrash):
                try:
                    faults.fire("wal.before_fsync")
                except Exception:  # durability-layer cleanup can't eat it
                    pytest.fail("SimulatedCrash was caught as Exception")

    def test_scope_disarms_on_exit(self):
        with faults.inject("wal.before_fsync", "raise"):
            assert faults.armed() == {"wal.before_fsync": "raise"}
        assert faults.armed() == {}
        faults.fire("wal.before_fsync")  # disarmed again

    def test_hits_before_skips_early_hits(self):
        with faults.inject(
            "wal.before_fsync", "raise", hits_before=2
        ) as state:
            faults.fire("wal.before_fsync")
            faults.fire("wal.before_fsync")
            assert state.fired == 0
            with pytest.raises(FaultError):
                faults.fire("wal.before_fsync")
            assert state.fired == 1

    def test_other_points_unaffected_while_one_is_armed(self):
        with faults.inject("wal.before_fsync", "raise"):
            faults.fire("checkpoint.before_truncate")  # no raise

    def test_probabilistic_mode_is_seeded_and_partial(self):
        fired = 0
        with faults.inject(
            "wal.before_fsync", "crash", probability=0.5, seed=7,
        ) as state:
            for _ in range(100):
                try:
                    faults.fire("wal.before_fsync")
                except SimulatedCrash:
                    fired += 1
        assert fired == state.fired
        assert 20 < fired < 80  # seeded coin, not all-or-nothing

    def test_unseeded_probability_repeats(self):
        """Every fault owns ``random.Random(seed)`` with ``seed=0`` by
        default, so an unseeded coin fires on the same hits each time."""

        def fired_at():
            hits = []
            with faults.inject("wal.before_fsync", "raise", probability=0.5):
                for i in range(64):
                    try:
                        faults.fire("wal.before_fsync")
                    except FaultError:
                        hits.append(i)
            return hits

        first, second = fired_at(), fired_at()
        assert first == second
        assert 0 < len(first) < 64

    def test_times_caps_firing_and_counts_per_kind(self):
        with faults.inject("repl.fence", "raise", times=2) as state:
            for _ in range(5):
                try:
                    faults.fire("repl.fence")
                except FaultError:
                    pass
        assert (state.hits, state.fired) == (5, 2)
        assert faults.counts() == {("repl.fence", "raise"): 2}

    def test_hit_counting_while_armed(self):
        faults.reset()
        with faults.inject(
            "wal.before_fsync", "raise", hits_before=10**9
        ):
            faults.fire("wal.before_fsync")
            faults.fire("wal.before_fsync")
            faults.fire("checkpoint.before_truncate")
            assert faults.hits() == {
                "wal.before_fsync": 2, "checkpoint.before_truncate": 1,
            }
        faults.reset()
        assert faults.hits() == {}

    def test_fire_rejects_unknown_name_while_armed(self):
        """A renamed call site must not silently detach its tests: any
        armed run surfaces the unregistered name immediately."""
        with faults.inject(
            "wal.before_fsync", "raise", hits_before=10**9
        ):
            with pytest.raises(ValueError, match="unregistered fault site"):
                faults.fire("wal.renamed_typo_site")

    def test_fire_unknown_name_noop_when_nothing_armed(self):
        # The inactive fast path stays a single dict check; validation
        # only runs while some fault is armed (i.e. under test).
        faults.fire("wal.renamed_typo_site")


class TestReplicationSites:
    def test_replication_failpoints_are_registered(self):
        for name in (
            "repl.snapshot_fetch",
            "repl.ship_record",
            "repl.apply_record",
            "repl.promote",
            "repl.fence",
            "repl.health_check",
        ):
            assert faults.SITES[name] == ("raise", "crash")
        # Link sites add the one delivery fault each can perform.
        for name, kind in (
            ("repl.transport.drop", "drop"),
            ("repl.transport.delay", "partial"),
            ("repl.transport.reorder", "replay"),
        ):
            assert name in faults.LINK_SITES
            assert faults.SITES[name] == ("raise", "crash", kind)

    def test_hit_counts_snapshot(self):
        faults.reset()
        with faults.inject(
            "repl.ship_record", "raise", hits_before=10**9
        ):
            faults.fire("repl.ship_record")
            faults.fire("repl.apply_record")
            counts = faults.hits()
        assert counts["repl.ship_record"] == 1
        assert counts["repl.apply_record"] == 1
        # The snapshot is detached from live state.
        counts["repl.ship_record"] = 999
        faults.reset()
        assert faults.hits() == {}


class TestThreadSafety:
    """Satellite: counters and arming race-free under concurrent fire()
    from many threads (the concurrency layer fires these sites)."""

    def test_concurrent_fires_count_exactly(self):
        import threading

        faults.reset()
        n_threads, per_thread = 8, 500
        start = threading.Barrier(n_threads)

        def worker():
            start.wait()
            for _ in range(per_thread):
                faults.fire("repl.apply_record")

        with faults.inject(
            "repl.apply_record", "raise", hits_before=10**9
        ):
            threads = [
                threading.Thread(target=worker) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert faults.hits()["repl.apply_record"] == (
                n_threads * per_thread
            )

    def test_concurrent_hits_before_fires_exactly_once_each_window(self):
        import threading

        faults.reset()
        n_threads, per_thread = 8, 200
        total = n_threads * per_thread
        errors = []
        start = threading.Barrier(n_threads)

        def worker():
            start.wait()
            for _ in range(per_thread):
                try:
                    faults.fire("repl.ship_record")
                except FaultError:
                    errors.append(1)

        with faults.inject(
            "repl.ship_record", "raise", hits_before=total // 2
        ) as state:
            threads = [
                threading.Thread(target=worker) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Every hit past the threshold raised; none lost to a race.
        assert len(errors) == total - total // 2
        assert state.fired == len(errors)

    def test_concurrent_arm_disarm_with_firing_threads(self):
        import threading

        faults.reset()
        stop = threading.Event()

        def firer():
            while not stop.is_set():
                try:
                    faults.fire("repl.health_check")
                except FaultError:
                    pass

        threads = [threading.Thread(target=firer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                with faults.inject("repl.health_check", "raise"):
                    pass
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert faults.armed() == {}
