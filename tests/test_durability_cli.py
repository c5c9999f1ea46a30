"""Tests for quit-serve's directory commands: ``recover``,
``checkpoint``, ``promote``, ``inspect`` and ``verify`` run offline
against a durability directory."""

import io

import pytest

from repro.core import DurableTree, QuITTree, TreeConfig
from repro.core.durable import WAL_DIRNAME
from repro.core.wal import segment_paths
from repro.net.cli import main

CFG = TreeConfig(leaf_capacity=8, internal_capacity=8)


def seed_state(directory, n=200, checkpoint=True, extra=50):
    t = DurableTree(QuITTree(CFG), directory)
    t.insert_many([(i, i) for i in range(n)])
    if checkpoint:
        t.checkpoint()
    for i in range(extra):
        t.insert(n + i, i)
    t.close()
    return t


def seed_replica(root, n):
    """Stream ``n`` writes from a fresh primary to one in-process
    replica; return the replica's directory, closed."""
    from repro.replication import InProcessTransport, Primary, Replica

    primary = Primary(
        DurableTree(QuITTree(CFG), root / "node", fsync="none"),
        node_id="primary",
    )
    replica = Replica(
        root / "replica0", InProcessTransport(primary),
        tree_class=QuITTree, config=CFG, name="replica0",
    )
    replica.bootstrap()
    primary.attach(replica)
    for i in range(n):
        primary.insert(i, i)
    replica.catch_up(primary.tail_position(), max_rounds=64)
    primary.close()
    replica.close()
    return replica.directory


class TestRecover:
    def test_clean_state_exits_zero(self, tmp_path, capsys):
        seed_state(tmp_path)
        assert main(["recover", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recovered 250 entries" in out
        assert "clean                    True" in out

    def test_damaged_state_exits_one_with_report(self, tmp_path, capsys):
        seed_state(tmp_path)
        segs = segment_paths(tmp_path / WAL_DIRNAME)
        segs[-1].write_bytes(segs[-1].read_bytes()[:-4])
        assert main(["recover", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "torn tail                True" in out
        assert "recovered 249 entries" in out

    def test_no_scrub_flag(self, tmp_path, capsys):
        seed_state(tmp_path)
        assert main(["recover", str(tmp_path), "--no-scrub"]) == 0
        assert "scrub" not in capsys.readouterr().out


class TestCheckpointAndScrub:
    """``recover`` audits by default: it scrubs the fast-path metadata
    and runs the structural check."""

    def test_checkpoint_truncates_wal(self, tmp_path, capsys):
        seed_state(tmp_path)
        assert segment_paths(tmp_path / WAL_DIRNAME)
        assert main(["checkpoint", str(tmp_path)]) == 0
        assert "checkpointed 250 entries" in capsys.readouterr().out
        assert segment_paths(tmp_path / WAL_DIRNAME) == []
        # The snapshot now carries everything by itself.
        assert main(["recover", str(tmp_path)]) == 0
        assert "snapshot entries         250" in capsys.readouterr().out

    def test_scrub_reports_clean(self, tmp_path, capsys):
        seed_state(tmp_path)
        assert main(["recover", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scrub issues             0" in out
        assert "scrub repairs            0" in out
        assert "  - " not in out and "  ! " not in out

    def test_check_violation_exits_one(self, tmp_path, capsys, monkeypatch):
        seed_state(tmp_path)
        monkeypatch.setattr(
            DurableTree, "check",
            lambda self, check_min_fill=False: ["leaf 3: keys unsorted"],
        )
        assert main(["recover", str(tmp_path)]) == 1
        assert "  ! leaf 3: keys unsorted" in capsys.readouterr().out

    def test_variant_choice(self, tmp_path, capsys):
        seed_state(tmp_path)
        assert main(["recover", str(tmp_path), "--variant", "B+-tree"]) == 0
        assert "recovered 250 entries" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["recover", str(tmp_path), "--variant", "SWARE"])


class TestPromoteCommand:
    def test_promote_bumps_epoch_and_checkpoints(self, tmp_path):
        replica_dir = seed_replica(tmp_path, 100)
        out = io.StringIO()
        assert main(["promote", str(replica_dir)], out=out) == 0
        text = out.getvalue()
        assert "epoch 0 -> 1" in text
        assert "checkpointed 100 entries" in text
        # Promotion removed the follower cursor and left a primary.
        out = io.StringIO()
        assert main(["inspect", str(replica_dir)], out=out) == 0
        assert "primary" in out.getvalue()


class TestStatusCommand:
    """``inspect DIR``: a node directory's status, read without
    recovering it."""

    def test_status_of_primary_directory(self, tmp_path, capsys):
        seed_state(tmp_path)
        assert main(["inspect", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "role" in out and "primary" in out
        assert "snapshot" in out
        assert "segment(s)" in out

    def test_status_of_replica_directory(self, tmp_path):
        replica_dir = seed_replica(tmp_path, 50)
        out = io.StringIO()
        assert main(["inspect", str(replica_dir)], out=out) == 0
        text = out.getvalue()
        assert "replica" in text
        assert "applied_lsn" in text

    def test_status_of_missing_directory(self, tmp_path):
        out = io.StringIO()
        assert main(["inspect", str(tmp_path / "nope")], out=out) == 1


class TestVerify:
    def _segmented_state(self, directory):
        t = DurableTree(
            QuITTree(CFG), directory, fsync="none", segment_bytes=512
        )
        for i in range(200):
            t.insert(i, i)
        t.close()
        return segment_paths(directory / WAL_DIRNAME)

    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        self._segmented_state(tmp_path)
        assert main(["verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 damaged" in out
        assert "CORRUPT" not in out

    def test_damaged_segment_exits_one(self, tmp_path, capsys):
        segs = self._segmented_state(tmp_path)
        target = segs[len(segs) // 2]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        assert main(["verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "1 damaged" in out

    def test_quarantine_flag_copies_evidence(self, tmp_path, capsys):
        segs = self._segmented_state(tmp_path)
        target = segs[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        assert main(["verify", str(tmp_path), "--quarantine"]) == 1
        out = capsys.readouterr().out
        assert "quarantined ->" in out
        copies = list((tmp_path / "quarantine").iterdir())
        assert len(copies) == 1
        assert copies[0].read_bytes() == bytes(data)
        # The damaged original stays put (evidence is a copy).
        assert target.exists()
        # inspect surfaces the quarantine footprint.
        assert main(["inspect", str(tmp_path)]) == 0
        assert "quarantine" in capsys.readouterr().out

    def test_torn_tail_on_final_segment_is_not_damage(
        self, tmp_path, capsys
    ):
        segs = self._segmented_state(tmp_path)
        last = segs[-1]
        last.write_bytes(last.read_bytes()[:-3])
        assert main(["verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "note: torn tail" in out

    def test_missing_directory_exits_one(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope")]) == 1
