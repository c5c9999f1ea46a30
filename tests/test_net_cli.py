"""Tests for the quit-serve CLI: a real served subprocess with SIGTERM
drain, and the client subcommands against it."""

import io
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.core import DurableTree, QuITTree, TreeConfig
from repro.core.durable import WAL_DIRNAME
from repro.core.wal import segment_paths
from repro.net.cli import VARIANTS, build_parser, main

CFG = TreeConfig(leaf_capacity=8, internal_capacity=8)

posix_only = pytest.mark.skipif(
    os.name != "posix", reason="POSIX signals required"
)


def seed_state(directory, n=120):
    t = DurableTree(QuITTree(CFG), directory)
    t.insert_many([(i, i * 2) for i in range(n)])
    t.close()


def _env():
    env = dict(os.environ)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn_server(directory, *extra):
    """Start ``quit-serve serve`` in a subprocess; return (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.cli", "serve", str(directory),
         "--port", "0", "--leaf-capacity", "8", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    port = None
    deadline = time.time() + 30
    for line in proc.stdout:
        m = re.search(r"on 127\.0\.0\.1:(\d+)", line)
        if m:
            port = int(m.group(1))
        if "serving until SIGTERM/SIGINT" in line:
            break
        assert time.time() < deadline, "serve banner never appeared"
    assert port is not None, "bound port never printed"
    return proc, port


def finish(proc, sig=signal.SIGTERM):
    """Signal the server and collect (returncode, stdout_tail, stderr)."""
    try:
        proc.send_signal(sig)
        remaining, errors = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, remaining, errors


class TestServeDrain:
    @posix_only
    def test_sigterm_drains_checkpoints_exits_zero(self, tmp_path):
        node = tmp_path / "node"
        seed_state(node)
        proc, port = spawn_server(node)
        code, tail, errors = finish(proc, signal.SIGTERM)
        assert code == 0, errors
        assert "graceful drain" in tail
        # Drain checkpointed: snapshot present, WAL truncated.
        assert (node / "snapshot.quit").exists()
        assert segment_paths(node / WAL_DIRNAME) == []
        recovered, report = DurableTree.recover(node, QuITTree, CFG)
        try:
            assert report.clean and report.snapshot_loaded
            assert len(recovered) == 120
        finally:
            recovered.close()

    @posix_only
    def test_sigint_drains_too(self, tmp_path):
        node = tmp_path / "node"
        seed_state(node, n=10)
        proc, port = spawn_server(node)
        code, tail, errors = finish(proc, signal.SIGINT)
        assert code == 0, errors
        assert "graceful drain" in tail

    @posix_only
    def test_drain_settles_inflight_writes(self, tmp_path):
        """Writes accepted before SIGTERM are on disk after exit 0."""
        from repro.net import QuitClient

        node = tmp_path / "node"
        seed_state(node, n=0)
        proc, port = spawn_server(node)
        client = QuitClient("127.0.0.1", port)
        for i in range(50):
            client.insert(i, i * 7)
        client.close()
        code, tail, errors = finish(proc)
        assert code == 0, errors
        recovered, _ = DurableTree.recover(node, QuITTree, CFG)
        try:
            for i in range(50):
                assert recovered.get(i) == i * 7
        finally:
            recovered.close()


class TestClientSubcommands:
    """Drive the client subcommands in-process against a subprocess
    server (one server per class instance keeps this cheap)."""

    @pytest.fixture
    def server(self, tmp_path):
        node = tmp_path / "node"
        seed_state(node, n=5)
        proc, port = spawn_server(node)
        yield f"127.0.0.1:{port}"
        code, _, errors = finish(proc)
        assert code == 0, errors

    def _run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    @posix_only
    def test_put_get_del_round_trip(self, server):
        code, out = self._run("put", server, "42", "'answer'")
        assert code == 0
        assert "applied=True" in out
        code, out = self._run("get", server, "42")
        assert code == 0
        assert out.strip() == "'answer'"
        code, out = self._run("del", server, "42")
        assert code == 0
        assert "existed=True" in out
        code, out = self._run("get", server, "42")
        assert code == 1
        assert "(missing)" in out

    @posix_only
    def test_scan_and_limit(self, server):
        code, out = self._run("scan", server, "0", "5")
        assert code == 0
        assert "(5 item(s))" in out
        code, out = self._run("scan", server, "0", "5", "--limit", "2")
        assert code == 0
        assert "(2 item(s))" in out

    @posix_only
    def test_status_prints_counters(self, server):
        code, out = self._run("status", server)
        assert code == 0
        assert "role" in out
        assert "stats.net_requests" in out
        assert "boot_id" in out

    @posix_only
    def test_string_fallback_values(self, server):
        # A non-literal operand falls back to str (keys must stay
        # comparable with the tree's existing int keys, so the
        # fallback is exercised on the value side).
        code, _ = self._run("put", server, "100", "not-a-literal")
        assert code == 0
        code, out = self._run("get", server, "100")
        assert code == 0
        assert out.strip() == "'not-a-literal'"

    def test_unreachable_server_exits_two(self):
        code, out = self._run(
            "get", "127.0.0.1:1", "--deadline", "0.3", "0"
        )
        assert code == 2
        assert "error:" in out

    def test_bad_address_rejected(self):
        with pytest.raises(SystemExit):
            self._run("get", "no-port-here", "0")


class TestServeWithReplicas:
    @posix_only
    def test_replicated_serve_drains_clean(self, tmp_path):
        from repro.net import QuitClient

        node = tmp_path / "node"
        seed_state(node, n=0)
        proc, port = spawn_server(
            node, "--replicas", "1", "--required-acks", "1",
            "--ack-deadline", "1.0",
        )
        client = QuitClient("127.0.0.1", port)
        for i in range(30):
            client.insert(i, i)
        status = client.status()
        assert status["role"] == "primary"
        client.close()
        code, tail, errors = finish(proc)
        assert code == 0, errors
        assert "graceful drain" in tail
        # The replica directory is a real durability root with the data.
        replica_dir = tmp_path / "node-replicas" / "replica0"
        recovered, _ = DurableTree.recover(replica_dir, QuITTree, CFG)
        try:
            assert len(recovered) == 30
        finally:
            recovered.close()

    def test_replicas_take_leaf_capacity(self, tmp_path, monkeypatch):
        """Every replica is built with ``--leaf-capacity``: on a fresh
        directory there is no snapshot to carry it, and the replica
        directory holds none after a drain either, so the live replica
        trees are read while serving."""
        from repro.net import cli

        capacities = []

        class Probe(cli.QuitServer):
            async def serve_until_drained(self):
                capacities.extend(
                    r.durable.tree.config.leaf_capacity
                    for r in self.replicas
                )
                await self.drain()

        monkeypatch.setattr(cli, "QuitServer", Probe)
        out = io.StringIO()
        assert main(
            ["serve", str(tmp_path / "node"), "--port", "0",
             "--leaf-capacity", "8", "--replicas", "2"],
            out=out,
        ) == 0
        assert "graceful drain" in out.getvalue()
        assert capacities == [8, 8]


class TestImportBudget:
    """A served process loads only the served path: a restart pays for
    every module it imports before ``STATUS`` can answer."""

    #: Packages ``quit-serve`` must not pull in (numpy, or layers that
    #: serving never calls; ``--replicas`` imports replication lazily).
    FORBIDDEN = (
        "numpy",
        "repro.bench",
        "repro.sware",
        "repro.sortedness",
        "repro.workloads",
        "repro.replication",
        "repro.lint",
    )

    def _modules(self, statement):
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys, json; {statement}; "
             "print(json.dumps(sorted(sys.modules)))"],
            capture_output=True, text=True, env=_env(), check=True,
        )
        return json.loads(out.stdout)

    def test_serve_loads_no_bench_or_numpy(self):
        loaded = self._modules("import repro.net.cli")
        offenders = [
            m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in self.FORBIDDEN)
        ]
        assert offenders == []

    def _offenders_after(self, argv):
        """Forbidden modules loaded by ``main(argv)`` in a fresh process."""
        loaded = self._modules(
            f"import io; from repro.net.cli import main; "
            f"main({argv!r}, out=io.StringIO())"
        )
        return [
            m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in self.FORBIDDEN)
        ]

    @pytest.mark.parametrize("command", ["inspect", "verify", "recover"])
    def test_directory_commands_load_no_bench_or_replication(
        self, tmp_path, command
    ):
        seed_state(tmp_path / "node")
        assert self._offenders_after([command, str(tmp_path / "node")]) == []

    def test_promote_loads_only_replication(self, tmp_path):
        seed_state(tmp_path / "node")
        offenders = self._offenders_after(["promote", str(tmp_path / "node")])
        assert "repro.replication" in offenders
        assert all(m.startswith("repro.replication") for m in offenders)

    def test_package_import_loads_no_numpy(self):
        loaded = self._modules("import repro")
        assert [m for m in loaded if m.split(".")[0] == "numpy"] == []

    def test_variant_choices_unchanged(self):
        names = ["B+-tree", "tail-B+-tree", "lil-B+-tree", "pole-B+-tree",
                 "QuIT"]
        assert list(VARIANTS) == names
        parser = build_parser()
        for name in names:
            args = parser.parse_args(["serve", "d", "--variant", name])
            assert VARIANTS[args.variant].name == name
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "d", "--variant", "SWARE"])
