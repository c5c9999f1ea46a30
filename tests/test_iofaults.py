"""Injectable disk faults: the shim itself, and the survivability
property it exists to prove.

The property (mirrors ISSUE acceptance): for **every** registered
``io.*`` site crossed with **every** disk fault kind (the ``crash``
kind is swept by tests/test_crash_recovery_property.py), a DurableTree must
either recover transparently (retry/backoff), degrade to read-only but
keep serving reads, or quarantine-and-repair — and in all cases it must
never lose an acknowledged write and never leak a raw ``OSError``.
"""

from pathlib import Path

import pytest

from repro.core import BPlusTree, DurableTree, HealthState, ReadOnlyError
from repro.core.persist import PersistenceError
from repro.core.wal import WALError
from repro.testing import faults

#: Sites that fire on the write path (live appends / checkpoint) vs.
#: the read path (recovery / verification).
WRITE_SITES = faults.IO_WRITE_SITES
READ_SITES = faults.IO_READ_SITES


class TestShim:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.arm("io.nope", "eio")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="not permitted"):
            faults.arm("io.wal.write", "gremlins")

    def test_site_split_covers_the_registry(self):
        assert sorted(WRITE_SITES + READ_SITES) == sorted(
            site for site in faults.SITES if site.startswith("io.")
        )

    def test_passthrough_when_disarmed(self, tmp_path):
        path = tmp_path / "f"
        with open(path, "wb") as fh:
            assert faults.write("io.wal.write", fh, b"hello") == 5
            faults.fsync("io.wal.fsync", fh)
        assert faults.read_bytes("io.wal.read", path) == b"hello"
        assert faults.counts() == {}

    def test_eio_raises_and_counts(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x")
        with faults.inject("io.wal.read", "eio"):
            with pytest.raises(OSError):
                faults.read_bytes("io.wal.read", path)
        assert faults.counts() == {("io.wal.read", "eio"): 1}
        # Context manager disarmed on exit.
        assert faults.read_bytes("io.wal.read", path) == b"x"

    def test_torn_write_persists_a_prefix_then_raises(self, tmp_path):
        path = tmp_path / "f"
        with faults.inject("io.wal.write", "torn"):
            with open(path, "wb") as fh:
                with pytest.raises(OSError):
                    faults.write("io.wal.write", fh, b"0123456789")
        data = path.read_bytes()
        assert 0 < len(data) < 10  # a prefix hit the disk

    def test_bitrot_write_succeeds_with_a_flipped_byte(self, tmp_path):
        path = tmp_path / "f"
        payload = b"0123456789"
        with faults.inject("io.wal.write", "bitrot"):
            with open(path, "wb") as fh:
                assert faults.write("io.wal.write", fh, payload) == 10
        data = path.read_bytes()
        assert len(data) == 10 and data != payload
        assert sum(a != b for a, b in zip(data, payload)) == 1

    def test_bitrot_fsync_rots_the_synced_file(self, tmp_path):
        path = tmp_path / "f"
        with open(path, "wb") as fh:
            fh.write(b"0123456789")
            fh.flush()
            with faults.inject("io.wal.fsync", "bitrot"):
                faults.fsync("io.wal.fsync", fh)
        assert path.read_bytes() != b"0123456789"

    def test_failed_replace_leaves_src_in_place(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.write_bytes(b"payload")
        with faults.inject("io.snapshot.replace", "enospc"):
            with pytest.raises(OSError):
                faults.replace("io.snapshot.replace", src, dst)
        assert src.exists() and not dst.exists()

    def test_torn_read_returns_a_prefix(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"0123456789")
        with faults.inject("io.wal.read", "torn"):
            assert faults.read_bytes("io.wal.read", path) == b"01234"

    def test_hits_before_and_times_discipline(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x")
        faults.arm("io.wal.read", "eio", hits_before=2, times=1)
        assert faults.read_bytes("io.wal.read", path) == b"x"
        assert faults.read_bytes("io.wal.read", path) == b"x"
        with pytest.raises(OSError):
            faults.read_bytes("io.wal.read", path)
        assert faults.read_bytes("io.wal.read", path) == b"x"
        assert faults.counts() == {("io.wal.read", "eio"): 1}

    def test_probability_is_seeded_and_reproducible(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x")

        def run():
            faults.reset()
            faults.arm("io.wal.read", "eio", probability=0.5, seed=99)
            outcomes = []
            for _ in range(20):
                try:
                    faults.read_bytes("io.wal.read", path)
                    outcomes.append(False)
                except OSError:
                    outcomes.append(True)
            return outcomes

        first, second = run(), run()
        assert first == second
        assert any(first) and not all(first)

    def test_armed_and_reset(self):
        faults.arm("io.wal.write", "eio")
        faults.arm("io.wal.fsync", "torn")
        assert faults.armed() == {
            "io.wal.write": "eio", "io.wal.fsync": "torn",
        }
        faults.reset()
        assert faults.armed() == {}
        assert faults.counts() == {}


def make_tree(directory):
    return DurableTree(
        BPlusTree(), directory, fsync="always", segment_bytes=512
    )


class TestSurvivabilityProperty:
    """Every site x every kind: never a raw OSError, never a lost ack."""

    @pytest.mark.parametrize("kind", faults.DISK_KINDS)
    @pytest.mark.parametrize("site", WRITE_SITES)
    def test_write_site_bounded_fault_heals(self, tmp_path, site, kind):
        """A bounded burst mid-traffic: operate through it, heal with a
        checkpoint, and recovery must serve every acknowledged write."""
        acked = {}
        tree = make_tree(tmp_path)
        for i in range(30):
            tree.insert(i, i)
            acked[i] = i
        faults.arm(site, kind, times=3)
        try:
            for i in range(30, 60):
                try:
                    tree.insert(i, i)
                except ReadOnlyError:
                    break
                acked[i] = i
            try:
                tree.checkpoint()
            except ReadOnlyError:
                pass
        finally:
            faults.disarm(site)
        # Reads always serve the acked history, whatever the health.
        for key, value in acked.items():
            assert tree.get(key) == value
        # Disk back: one clean checkpoint restores full health and
        # rewrites clean state (also healing any silent bitrot — the
        # live tree holds every acked op the rotted bytes did).
        tree.checkpoint()
        assert tree.health.state is HealthState.HEALTHY
        for i in range(60, 70):
            tree.insert(i, i)
            acked[i] = i
        tree.close()
        recovered, report = DurableTree.recover(tmp_path, BPlusTree)
        assert dict(recovered.items()) == acked
        recovered.close()

    @pytest.mark.parametrize("site", ("io.wal.write", "io.wal.fsync"))
    def test_unbounded_transient_degrades_to_read_only(
        self, tmp_path, site
    ):
        """When the disk never comes back, the tree must stop taking
        writes (fast, with ReadOnlyError) while reads keep serving."""
        tree = make_tree(tmp_path)
        for i in range(20):
            tree.insert(i, i)
        faults.arm(site, "eio")
        try:
            with pytest.raises(ReadOnlyError):
                for i in range(20, 40):
                    tree.insert(i, i)
            assert tree.health.state is HealthState.READ_ONLY
            # Degraded serving: reads and ranges still answer.
            assert tree.get(7) == 7
            assert len(tree.range_query(0, 100)) == 20
            # Mutations are refused up front, not after a retry storm.
            with pytest.raises(ReadOnlyError):
                tree.delete(3)
            with pytest.raises(ReadOnlyError):
                tree.insert_many([(91, 1)])
        finally:
            faults.disarm(site)
        # Operator freed the disk: a checkpoint restores writability.
        tree.checkpoint()
        assert tree.health.state is HealthState.HEALTHY
        assert tree.health.recoveries >= 1
        tree.insert(99, 99)
        tree.close()
        recovered, _ = DurableTree.recover(tmp_path, BPlusTree)
        assert recovered.get(99) == 99
        assert recovered.get(7) == 7
        recovered.close()

    def test_read_only_fails_group_tickets_fast(self, tmp_path):
        tree = DurableTree(
            BPlusTree(), tmp_path, fsync="group", segment_bytes=512
        )
        tree.insert(1, 1)
        faults.arm("io.wal.fsync", "enospc")
        try:
            tickets = [tree.submit_insert(10 + i, i) for i in range(5)]
            failures = 0
            for ticket in tickets:
                try:
                    ticket.wait(10)
                except ReadOnlyError:
                    failures += 1
            assert failures == len(tickets)
            assert tree.health.state is HealthState.READ_ONLY
            with pytest.raises(ReadOnlyError):
                tree.submit_insert(99, 99)
        finally:
            faults.disarm("io.wal.fsync")
        tree.checkpoint()
        tree.submit_insert(99, 99).wait(10)
        tree.close()

    @pytest.mark.parametrize("kind", faults.DISK_KINDS)
    @pytest.mark.parametrize("site", READ_SITES)
    def test_read_site_faults_never_leak_oserror(
        self, tmp_path, site, kind
    ):
        """Recovery under read faults: a bounded fault is retried or
        re-read into truth; persistent damage surfaces as a domain
        error (or a clean degraded recovery) — never a raw OSError."""
        acked = {}
        tree = make_tree(tmp_path)
        for i in range(30):
            tree.insert(i, i)
            acked[i] = i
        tree.checkpoint()  # snapshot exists, so both read sites fire
        for i in range(30, 45):
            tree.insert(i, i)
            acked[i] = i
        tree.close()
        faults.arm(site, kind, times=2)
        try:
            try:
                recovered, report = DurableTree.recover(
                    tmp_path, BPlusTree
                )
            except (PersistenceError, WALError):
                # Persistent-looking damage was reported, not crashed
                # on; the artifacts are still on disk.
                pass
            else:
                # Transient noise was absorbed (retry/re-read) — the
                # recovered tree must serve every acked write.
                assert dict(recovered.items()) == acked
                recovered.close()
        finally:
            faults.disarm(site)
        # The medium itself was never damaged: a clean recovery now
        # serves everything.
        recovered, report = DurableTree.recover(tmp_path, BPlusTree)
        assert report.clean
        assert dict(recovered.items()) == acked
        recovered.close()

    def test_health_counters_live_on_the_monitor(self, tmp_path):
        tree = make_tree(tmp_path)
        faults.arm("io.wal.write", "eio", times=2)
        try:
            tree.insert(1, 1)
        finally:
            faults.disarm("io.wal.write")
        assert tree.health.retries >= 1
        assert tree.health.degradations >= 1
        tree.close()
