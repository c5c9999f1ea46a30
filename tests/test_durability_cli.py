"""Tests for the quit-durability CLI."""

import io

import pytest

from repro.bench.durability_cli import main
from repro.core import DurableTree, QuITTree, TreeConfig
from repro.core.durable import WAL_DIRNAME
from repro.core.wal import segment_paths

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
        assert main(["scrub", str(tmp_path)]) == 0
        assert "0 issue(s), 0 repair(s)" in capsys.readouterr().out

    def test_variant_choice(self, tmp_path, capsys):
        seed_state(tmp_path)
        assert main(["scrub", str(tmp_path), "--variant", "B+-tree"]) == 0
        assert "B+-tree:" in capsys.readouterr().out


class TestReplicateCommand:
    def test_replicate_streams_and_checkpoints(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["replicate", str(tmp_path / "node"), "--replicas", "2",
             "--ops", "300", "--required-acks", "1",
             "--leaf-capacity", "8"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "streamed 300 write(s)" in text
        assert "replica0" in text and "replica1" in text
        assert "lag 0B" in text
        assert "graceful shutdown: checkpointed 300 entries" in text
        # Replica directories are real durability roots.
        replica_dir = tmp_path / "node-replicas" / "replica0"
        recovered, _ = DurableTree.recover(replica_dir, QuITTree, CFG)
        assert len(recovered) == 300
        recovered.close()

    def test_replicate_with_chaos_still_converges(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["replicate", str(tmp_path / "node"), "--replicas", "1",
             "--ops", "200", "--chaos-drop", "0.3", "--seed", "5",
             "--leaf-capacity", "8"],
            out=out,
        )
        assert code == 0
        assert "lag 0B" in out.getvalue()

    def test_replicate_resumes_existing_directory(self, tmp_path):
        seed_state(tmp_path / "node")
        out = io.StringIO()
        code = main(
            ["replicate", str(tmp_path / "node"), "--replicas", "1",
             "--ops", "10"],
            out=out,
        )
        assert code == 0
        assert "checkpointed 260 entries" in out.getvalue()


class TestPromoteCommand:
    def test_promote_bumps_epoch_and_checkpoints(self, tmp_path):
        out = io.StringIO()
        assert main(
            ["replicate", str(tmp_path / "node"), "--replicas", "1",
             "--ops", "100", "--leaf-capacity", "8"],
            out=out,
        ) == 0
        replica_dir = tmp_path / "node-replicas" / "replica0"
        out = io.StringIO()
        assert main(["promote", str(replica_dir)], out=out) == 0
        text = out.getvalue()
        assert "epoch 0 -> 1" in text
        assert "checkpointed 100 entries" in text
        # Promotion removed the follower cursor and left a primary.
        out = io.StringIO()
        assert main(["status", str(replica_dir)], out=out) == 0
        assert "primary" in out.getvalue()


class TestStatusCommand:
    def test_status_of_primary_directory(self, tmp_path, capsys):
        seed_state(tmp_path)
        assert main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "role" in out and "primary" in out
        assert "snapshot" in out
        assert "segment(s)" in out

    def test_status_of_replica_directory(self, tmp_path):
        out = io.StringIO()
        assert main(
            ["replicate", str(tmp_path / "node"), "--replicas", "1",
             "--ops", "50"],
            out=out,
        ) == 0
        out = io.StringIO()
        replica_dir = tmp_path / "node-replicas" / "replica0"
        assert main(["status", str(replica_dir)], out=out) == 0
        text = out.getvalue()
        assert "replica" in text
        assert "applied_lsn" in text

    def test_status_of_missing_directory(self, tmp_path):
        out = io.StringIO()
        assert main(["status", str(tmp_path / "nope")], out=out) == 1


class TestGracefulShutdown:
    """Satellite: SIGTERM during --serve checkpoints, closes the WAL,
    and exits 0 — verified end-to-end in a real subprocess."""

    @pytest.mark.skipif(
        not hasattr(__import__("signal"), "SIGTERM")
        or __import__("os").name != "posix",
        reason="POSIX signals required",
    )
    def test_sigterm_checkpoints_and_exits_zero(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        node = tmp_path / "node"
        env = dict(os.environ)
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.bench.durability_cli",
             "replicate", str(node), "--replicas", "1", "--ops", "150",
             "--leaf-capacity", "8", "--serve"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # Wait for the serve loop (ingest + catch-up already done).
            deadline = time.time() + 30
            for line in proc.stdout:
                if "serving until SIGTERM" in line:
                    break
                assert time.time() < deadline, "serve line never appeared"
            proc.send_signal(signal.SIGTERM)
            remaining, errors = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, errors
        assert "graceful shutdown: checkpointed 150 entries" in remaining
        # The directory it left behind: checkpointed snapshot, empty WAL.
        assert (node / "snapshot.quit").exists()
        assert segment_paths(node / WAL_DIRNAME) == []
        recovered, report = DurableTree.recover(node, QuITTree, CFG)
        assert report.clean and report.snapshot_loaded
        assert len(recovered) == 150
        recovered.close()


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
        # status surfaces the quarantine footprint.
        assert main(["status", str(tmp_path)]) == 0
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
