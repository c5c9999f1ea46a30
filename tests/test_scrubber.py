"""Background scrub: paced CRC verification, quarantine, and the two
repair paths (local checkpoint / replica peer heal).

The end-to-end bit-rot-under-traffic story is the io-fault chaos soak
(tests/test_iofault_chaos.py); this file exercises the scrubber's
mechanics deterministically.
"""

import time
from pathlib import Path

import pytest

from repro.core import BPlusTree, DurableTree, HealthState, Scrubber
from repro.core.scrubber import QUARANTINE_DIRNAME, verify_artifacts
from repro.core.wal import segment_paths
from repro.core.durable import WAL_DIRNAME
from repro.replication import InProcessTransport, Primary, Replica


def make_tree(directory, n=120, segment_bytes=256):
    tree = DurableTree(
        BPlusTree(), directory, fsync="none", segment_bytes=segment_bytes
    )
    for i in range(n):
        tree.insert(i, i)
    return tree


def rot_segment(directory, index=None):
    """Flip one byte mid-record in a closed segment; returns the path."""
    segments = segment_paths(directory / WAL_DIRNAME)
    closed = segments[:-1]
    target = closed[len(closed) // 2 if index is None else index]
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0xFF
    target.write_bytes(bytes(data))
    return target


class TestScrubCycle:
    def test_clean_cycle_on_intact_tree(self, tmp_path):
        tree = make_tree(tmp_path)
        scrubber = Scrubber(tree)
        report = scrubber.scrub_once()
        assert report.clean
        assert report.segments_checked > 0
        assert report.bytes_checked > 0
        assert report.snapshot_checked  # first cycle starts a pass
        assert scrubber.cycles == 1
        assert scrubber.corruptions == 0
        tree.close()

    def test_pacing_budget_spreads_a_pass_over_cycles(self, tmp_path):
        tree = make_tree(tmp_path, n=200)
        closed = len(segment_paths(tree.wal.directory)) - 1
        scrubber = Scrubber(tree, max_bytes_per_cycle=300)
        first = scrubber.scrub_once()
        assert 0 < first.segments_checked < closed
        # Cursor advances; within enough cycles the pass covers every
        # closed segment and wraps to the start (checking the snapshot
        # again at the wrap).
        for _ in range(closed * 2):
            scrubber.scrub_once()
        assert scrubber.segments_checked >= closed
        tree.close()

    def test_full_scrub_ignores_budget_and_cursor(self, tmp_path):
        tree = make_tree(tmp_path, n=200)
        closed = len(segment_paths(tree.wal.directory)) - 1
        scrubber = Scrubber(tree, max_bytes_per_cycle=1)
        report = scrubber.scrub_once(full=True)
        assert report.segments_checked == closed
        assert report.snapshot_checked
        tree.close()

    def test_detect_quarantine_and_checkpoint_repair(self, tmp_path):
        tree = make_tree(tmp_path)
        expected = dict(tree.items())
        target = rot_segment(tmp_path)
        scrubber = Scrubber(tree)
        report = scrubber.scrub_once(full=True)
        assert not report.clean
        assert any(target.name in issue for issue in report.issues)
        # Evidence first: a copy of the rotted bytes, original untouched
        # until the repair rewrote the log.
        assert len(report.quarantined) == 1
        copy = Path(report.quarantined[0])
        assert copy.parent == tmp_path / QUARANTINE_DIRNAME
        assert report.repaired and not report.peer_repaired
        assert scrubber.corruptions == 1
        assert scrubber.quarantines == 1
        assert scrubber.repairs == 1
        # The repair checkpointed the live tree: next cycle is clean and
        # a cold recovery serves everything.
        assert scrubber.scrub_once(full=True).clean
        tree.close()
        recovered, recovery = DurableTree.recover(tmp_path, BPlusTree)
        assert recovery.clean
        assert dict(recovered.items()) == expected
        recovered.close()
        assert copy.exists()  # evidence survives the repair

    def test_repair_restores_degraded_health(self, tmp_path):
        tree = make_tree(tmp_path)
        tree.health.mark_read_only(OSError(5, "injected"))
        rot_segment(tmp_path)
        Scrubber(tree).scrub_once(full=True)
        assert tree.health.state is HealthState.HEALTHY
        tree.insert(999, 999)  # writable again
        tree.close()

    def test_auto_repair_off_only_detects_and_quarantines(self, tmp_path):
        tree = make_tree(tmp_path)
        rot_segment(tmp_path)
        scrubber = Scrubber(tree, auto_repair=False)
        report = scrubber.scrub_once(full=True)
        assert not report.clean
        assert report.quarantined
        assert not report.repaired
        assert scrubber.repairs == 0
        # Damage persists: the next full cycle sees it again.
        assert not scrubber.scrub_once(full=True).clean
        tree.close()

    def test_paced_cycle_misses_damage_behind_cursor_full_finds_it(
        self, tmp_path
    ):
        """The operator story behind ``full=True``: a paced pass scans
        forward from its cursor, so fresh damage behind it waits for
        the wrap — a full scrub finds it now."""
        tree = make_tree(tmp_path, n=200)
        scrubber = Scrubber(tree, max_bytes_per_cycle=300,
                            auto_repair=False)
        while True:  # advance the cursor past the middle
            scrubber.scrub_once()
            closed = segment_paths(tree.wal.directory)[:-1]
            if scrubber._cursor_seq > len(closed) // 2 + 1:
                break
        rot_segment(tmp_path, index=0)  # damage behind the cursor
        assert scrubber.scrub_once().clean  # paced pass: not yet seen
        assert not scrubber.scrub_once(full=True).clean
        tree.close()

    def test_corrupt_snapshot_detected(self, tmp_path):
        tree = make_tree(tmp_path)
        tree.checkpoint()
        tree.insert(500, 500)  # keep a WAL alive beside the snapshot
        snap = tree.snapshot_path
        data = bytearray(snap.read_bytes())
        data[len(data) // 2] ^= 0xFF
        snap.write_bytes(bytes(data))
        report = Scrubber(tree, auto_repair=False).scrub_once(full=True)
        assert not report.clean
        assert snap in report.corrupt_paths
        tree.close()

    def test_peer_heal_hook_preferred_over_checkpoint(self, tmp_path):
        tree = make_tree(tmp_path)
        rot_segment(tmp_path)
        healed = []
        scrubber = Scrubber(
            tree, peer_heal=lambda: healed.append(1) or True
        )
        report = scrubber.scrub_once(full=True)
        assert healed == [1]
        assert report.peer_repaired and not report.repaired
        assert scrubber.peer_repairs == 1 and scrubber.repairs == 0
        tree.close()

    def test_failing_peer_heal_falls_back_to_checkpoint(self, tmp_path):
        tree = make_tree(tmp_path)
        rot_segment(tmp_path)

        def broken_peer():
            raise RuntimeError("peer unreachable")

        scrubber = Scrubber(tree, peer_heal=broken_peer)
        report = scrubber.scrub_once(full=True)
        assert not report.peer_repaired and report.repaired
        assert isinstance(scrubber.last_error, RuntimeError)
        assert scrubber.scrub_once(full=True).clean
        tree.close()

    def test_scrub_counters_live_on_the_scrubber(self, tmp_path):
        tree = make_tree(tmp_path)
        rot_segment(tmp_path)
        scrubber = Scrubber(tree)
        scrubber.scrub_once(full=True)
        assert scrubber.cycles == 1
        assert scrubber.corruptions == 1
        assert scrubber.quarantines == 1


class TestBackgroundThread:
    def test_context_manager_paces_cycles(self, tmp_path):
        tree = make_tree(tmp_path)
        with Scrubber(tree, interval=0.005) as scrubber:
            deadline = time.monotonic() + 5.0
            while scrubber.cycles < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
        assert scrubber.cycles >= 3
        assert scrubber.last_report is not None
        cycles_after_stop = scrubber.cycles
        time.sleep(0.05)
        assert scrubber.cycles == cycles_after_stop
        tree.close()

    def test_background_repair_under_live_writes(self, tmp_path):
        tree = make_tree(tmp_path)
        rot_segment(tmp_path)
        with Scrubber(tree, interval=0.005) as scrubber:
            deadline = time.monotonic() + 5.0
            i = 1000
            while scrubber.repairs < 1 and time.monotonic() < deadline:
                tree.insert(i, i)
                i += 1
                time.sleep(0.001)
        assert scrubber.repairs >= 1
        assert scrubber.scrub_once(full=True).clean
        tree.close()


class TestReplicaPeerHeal:
    def _pair(self, tmp_path):
        durable = DurableTree(
            BPlusTree(), tmp_path / "primary", fsync="none",
            segment_bytes=256,
        )
        primary = Primary(durable, node_id="p")
        replica = Replica(
            tmp_path / "replica",
            InProcessTransport(primary),
            segment_bytes=256,
            name="r0",
        )
        replica.bootstrap()
        primary.attach(replica)
        for i in range(150):
            primary.insert(i, i)
        replica.catch_up()
        return primary, replica

    def test_bitrot_replica_heals_from_primary(self, tmp_path):
        primary, replica = self._pair(tmp_path)
        target = rot_segment(tmp_path / "replica")
        scrubber = replica.make_scrubber(auto_repair=False)
        report = scrubber.scrub_once(full=True)
        assert any(target.name in issue for issue in report.issues)
        assert report.peer_repaired
        assert replica.peer_heals == 1
        # Byte-level convergence after the rebuild.
        assert scrubber.scrub_once(full=True).clean
        assert dict(replica.durable.items()) == dict(primary.items())
        primary.close()
        replica.close()

    def test_quarantine_evidence_survives_the_rebuild(self, tmp_path):
        primary, replica = self._pair(tmp_path)
        rot_segment(tmp_path / "replica")
        scrubber = replica.make_scrubber(auto_repair=False)
        report = scrubber.scrub_once(full=True)
        assert report.peer_repaired
        copies = list((tmp_path / "replica" / QUARANTINE_DIRNAME).iterdir())
        assert len(copies) == 1  # the wipe spares quarantine/
        primary.close()
        replica.close()


class TestVerifyArtifacts:
    def test_intact_directory_has_no_issues(self, tmp_path):
        tree = make_tree(tmp_path)
        tree.checkpoint()
        tree.insert(500, 500)
        tree.close()
        results = verify_artifacts(tmp_path)
        assert results  # snapshot + at least one segment
        assert all(issues == [] for issues in results.values())

    def test_rotted_segment_reported(self, tmp_path):
        tree = make_tree(tmp_path)
        tree.close()
        target = rot_segment(tmp_path)
        issues = verify_artifacts(tmp_path)[str(target)]
        # Depending on whether the flip landed in a header or a payload
        # the parse reports a torn record or a checksum failure; either
        # way it is damage, not a note.
        assert issues
        assert not any(issue.startswith("note:") for issue in issues)

    def test_final_segment_torn_tail_is_a_note(self, tmp_path):
        tree = make_tree(tmp_path)
        tree.close()
        last = segment_paths(tmp_path / WAL_DIRNAME)[-1]
        data = last.read_bytes()
        last.write_bytes(data[: len(data) - 3])
        issues = verify_artifacts(tmp_path)[str(last)]
        assert issues and issues[0].startswith("note:")

    def test_sequence_gap_reported(self, tmp_path):
        tree = make_tree(tmp_path)
        tree.close()
        segments = segment_paths(tmp_path / WAL_DIRNAME)
        assert len(segments) >= 3
        segments[1].unlink()
        results = verify_artifacts(tmp_path)
        assert any(
            "sequence gap" in issue
            for issues in results.values()
            for issue in issues
        )
