"""The benchmark's workloads and the machinery they share.

Every workload runs in rounds until ``--seconds`` have passed (at least
``MIN_ROUNDS``).  A round sets the program up (timed: ``setup_s``), runs
the measured phases, then crashes or reloads the index (timed:
``recovery_s``) and checks that everything acknowledged reads back.
Rounds interleave the phases over the whole run, so a stall of a few
seconds lands in a minority of any metric's windows.  Before and after
every measured window and every set-up or recovery, the host yardstick
(``yardstick.py``) is timed on the core that did the work, and the
figures are scaled to the reference host.  The work in a round is
fixed, so the program's own counters repeat exactly.

Why each workload (see README.md for the metric-to-layer table):

* ``tree-nearsorted`` — the paper's regime, in process: per-key inserts
  of a BoDS stream (K = L = 5 %), point gets, 0.1 % range scans.  No WAL
  or socket, so tree, fast-path and leaf-layout changes show here.
* ``net-ingest`` — the bulk path of ``quit-serve``: pipelined
  ``PUT_MANY`` frames of 1,024 pairs, ``GET_MANY`` frames, paged scans,
  then SIGKILL and WAL replay.  Codec and WAL record encoding dominate.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import estimators
import spans
import yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for data directories and dumps, inside the checkout.
RUN_DIR = ROOT / ".perfbench_run"
LAUNCHER = Path(__file__).resolve().parent / "serve_traced.py"

MIN_ROUNDS = 3
#: BoDS sortedness of every ingested stream (the stream all earlier
#: bench files used): 5 % of keys displaced by up to 5 % of n.
K_FRACTION = 0.05
L_FRACTION = 0.05
#: Range scans return 0.1 % of the loaded keys.
SCAN_SELECTIVITY = 0.001
#: Every process of a run, the benchmark and the server, runs on this
#: core.  With the client and the server on two cores, the raw read
#: throughputs of ``net-ingest`` spread 0.20-0.24 over ten seeds, and
#: 0.03-0.06 over five on one core: likely because each request then
#: wakes an idle vCPU, and wake-ups follow the host, not the program.
CPU = 1

#: User bytes per (key, value) pair: both are int64.
USER_BYTES_PER_PAIR = 16


class WrongAnswer(Exception):
    """The program returned an answer that differs from the expected one."""


def value_of(key: int) -> int:
    """Value stored under ``key``."""
    return key * 7 + 3


def inputs_ready() -> None:
    """Call once a round's inputs exist, before any clock starts: moves
    everything allocated so far out of the collector's scans
    (``gc.freeze``), so the collector, which stays on, scans only what
    the measured work allocates."""
    gc.freeze()


def pin(pid: int, cpu: int) -> None:
    if hasattr(os, "sched_setaffinity") and (os.cpu_count() or 1) > cpu:
        os.sched_setaffinity(pid, {cpu})


def bods_keys(n: int, seed: int, step: int = 1) -> list[int]:
    from repro.sortedness.bods import BodsSpec, generate

    return generate(BodsSpec(n=n, k_fraction=K_FRACTION,
                             l_fraction=L_FRACTION, seed=seed,
                             key_step=step)).tolist()


def vm_hwm_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for {pid}")


def cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Measurements:
    """Everything one pass of a workload measured."""

    #: Measured windows: phase -> [(seconds, units, host)], ``host``
    #: being the yardstick's ops/s around the window (``Phase``).
    windows: dict[str, list[tuple[float, float, float]]] = field(
        default_factory=dict)
    latency: dict[str, estimators.WindowedPercentiles] = field(
        default_factory=dict)
    #: ``setup_s`` and ``recovery_s`` samples: name -> [(seconds,
    #: host)], ``host`` being the yardstick's ops/s around the sample.
    durations: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict)
    disk_per_key: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Measured phases: name -> [(start_ns, end_ns, keys moved)].
    phases: dict[str, list[tuple[int, int, int]]] = field(default_factory=dict)
    server_cpu: dict[str, float] = field(default_factory=dict)
    client_cpu: dict[str, float] = field(default_factory=dict)
    #: Keys moved by the measured phases, by kind: insert, get, scan.
    moved: dict[str, int] = field(default_factory=dict)
    #: Mutation requests (``PUT_MANY`` frames) in the measured phases.
    put_requests: int = 0
    #: Program counters of the first round (exact for a given seed).
    counters: dict[str, Any] = field(default_factory=dict)
    dumps: list[dict] = field(default_factory=list)
    #: Every yardstick reading (ops/s) of the pass.
    calib: list[float] = field(default_factory=list)
    rounds: int = 0

    def add_window(self, name: str, seconds: float, units: float,
                   host: float) -> None:
        self.windows.setdefault(name, []).append((seconds, units, host))

    def add_latency(self, name: str, samples_ms: list[float],
                    host: float) -> None:
        """Latency samples taken while the yardstick ran at ``host``."""
        self.latency.setdefault(
            name, estimators.WindowedPercentiles()).extend(
                [yardstick.time_at_reference(s, host) for s in samples_ms])

    def host(self) -> float:
        """Time the yardstick and book the reading."""
        speed = yardstick.rate()
        self.calib.append(speed)
        return speed

    def add_duration(self, name: str, seconds: float, host: float) -> None:
        self.durations.setdefault(name, []).append((seconds, host))

    def timed(self, name: str, call: Callable[[], Any]) -> Any:
        """Run ``call``, book its duration under ``name``, and return its
        result.  The call can last a second or more, so the yardstick is
        timed before and after it (geometric mean)."""
        before = self.host()
        t0 = time.perf_counter()
        result = call()
        took = time.perf_counter() - t0
        self.add_duration(name, took, (before * self.host()) ** 0.5)
        return result

    def add_moved(self, kind: str, keys: int) -> None:
        self.moved[kind] = self.moved.get(kind, 0) + keys


class Phase:
    """Context manager that books a measured phase's interval, keys,
    and the CPU the benchmark and (optionally) server spent in it.

    The phase's windows run back to back, and the yardstick is timed
    when the phase starts and after every window, so each window is
    bracketed by two readings."""

    def __init__(self, m: Measurements, name: str,
                 server: Optional["Server"] = None) -> None:
        self.m, self.name, self.server = m, name, server
        self.keys = 0
        self.yardstick_cpu = 0.0

    def host(self) -> float:
        """Time the yardstick at the end of a window; returns the
        geometric mean of this reading and the one before the window.
        The yardstick's CPU is kept out of the phase's."""
        cpu0 = time.process_time()
        before, self.last = self.last, self.m.host()
        self.yardstick_cpu += time.process_time() - cpu0
        return (before * self.last) ** 0.5

    def __enter__(self) -> "Phase":
        self.last = self.m.host()
        self.cpu0 = time.process_time()
        self.srv0 = self.server.cpu() if self.server else 0.0
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> None:
        t1 = time.perf_counter_ns()
        m = self.m
        m.phases.setdefault(self.name, []).append((self.t0, t1, self.keys))
        m.add_moved(self.name, self.keys)
        m.client_cpu[self.name] = (m.client_cpu.get(self.name, 0.0)
                                   + time.process_time() - self.cpu0
                                   - self.yardstick_cpu)
        if self.server:
            m.server_cpu[self.name] = (m.server_cpu.get(self.name, 0.0)
                                       + self.server.cpu() - self.srv0)


# ----------------------------------------------------------------------
# tree-nearsorted
# ----------------------------------------------------------------------

TREE_N = 100_000
TREE_GETS = 100_000
TREE_SCANS = 1_000
TREE_WINDOW = 10_000
TREE_SCAN_WINDOW = 100
#: One insert or get in this many is timed on its own, for
#: ``put_p50_ms`` and ``get_p50_ms``; the others run without a clock,
#: so the timing adds ~5 ns per call to the throughput windows.
TREE_SAMPLE_EVERY = 50
TREE_CONSTRUCTIONS = 20
#: Snapshot save + reload (``recovery_s``) runs on every second round:
#: it costs about as much as the rest of a round, and every fifth round
#: gave too few samples for a steady median (spread 0.095 over ten
#: seeds).
TREE_SNAPSHOT_EVERY = 2

TREE_COUNTERS = ("fast_inserts", "top_inserts", "leaf_splits",
                 "variable_splits", "redistributions", "pole_resets",
                 "insert_traversal_nodes", "leaf_accesses", "point_lookups",
                 "batch_segments", "batch_fast_segments", "gap_hits")


def tree_nearsorted(m: Measurements, seed: int, seconds: float,
                    tracer: Optional[spans.Tracer]) -> None:
    from repro import QuITTree, TreeConfig
    from repro.core import load_tree, save_tree

    rng = random.Random(seed)
    keys = bods_keys(TREE_N, seed)
    pairs = [(k, value_of(k)) for k in keys]
    probes = [rng.randrange(TREE_N) for _ in range(TREE_GETS)]
    span = max(1, int(TREE_N * SCAN_SELECTIVITY))
    starts = [rng.randrange(TREE_N - span) for _ in range(TREE_SCANS)]
    expected_items = [(k, value_of(k)) for k in range(TREE_N)]
    # Runs of untimed calls, each followed by one timed call.
    step = TREE_SAMPLE_EVERY
    insert_runs = [(pairs[j:j + step - 1], pairs[j + step - 1])
                   for j in range(0, TREE_N, step)]
    probe_runs = [(probes[j:j + step - 1], probes[j + step - 1])
                  for j in range(0, TREE_GETS, step)]
    per_window = TREE_WINDOW // step
    if tracer is not None:
        spans.install_tree(tracer, QuITTree)
    snap = RUN_DIR / "tree.snapshot"
    inputs_ready()
    pc = time.perf_counter_ns
    began = time.perf_counter()
    while more_rounds(m, began, seconds):
        setup = []
        for _ in range(TREE_CONSTRUCTIONS):
            t0 = time.perf_counter()
            tree = QuITTree(TreeConfig())
            setup.append(time.perf_counter() - t0)
        host = m.host()
        for took in setup:
            m.add_duration("setup_s", took, host)
        insert = tree.insert
        before = tree.stats.snapshot()
        with Phase(m, "insert") as ph:
            for i in range(0, len(insert_runs), per_window):
                lat = []
                start = pc()
                for run, (k, v) in insert_runs[i:i + per_window]:
                    for k2, v2 in run:
                        insert(k2, v2)
                    t0 = pc()
                    insert(k, v)
                    t1 = pc()
                    lat.append(t1 - t0)
                host = ph.host()
                m.add_window("insert", (t1 - start) / 1e9, TREE_WINDOW, host)
                m.add_latency("put", [ns / 1e6 for ns in lat], host)
            ph.keys = TREE_N
        inserted = tree.stats.diff(before)
        get = tree.get
        got: list = []
        keep = got.append
        before = tree.stats.snapshot()
        with Phase(m, "get") as ph:
            for i in range(0, len(probe_runs), per_window):
                lat = []
                start = pc()
                for run, k in probe_runs[i:i + per_window]:
                    for k2 in run:
                        keep(get(k2))
                    t0 = pc()
                    v = get(k)
                    t1 = pc()
                    lat.append(t1 - t0)
                    keep(v)
                host = ph.host()
                m.add_window("get", (t1 - start) / 1e9, TREE_WINDOW, host)
                m.add_latency("get", [ns / 1e6 for ns in lat], host)
            ph.keys = TREE_GETS
        looked_up = tree.stats.diff(before)
        for k, v in zip(probes, got):
            if v != value_of(k):
                raise WrongAnswer(f"get({k}) returned {v!r}")
        scans = []
        with Phase(m, "scan") as ph:
            for i in range(0, TREE_SCANS, TREE_SCAN_WINDOW):
                entries = 0
                start = pc()
                for s in starts[i:i + TREE_SCAN_WINDOW]:
                    items = list(tree.range_iter(s, s + span))
                    entries += len(items)
                    scans.append(items)
                took = pc() - start
                m.add_window("scan", took / 1e9, entries, ph.host())
                ph.keys += entries
        for s, items in zip(starts, scans):
            if items != expected_items[s:s + span]:
                raise WrongAnswer(f"range_iter({s}, {s + span}) "
                                  f"returned {len(items)} wrong entries")
        m.attempted += TREE_N + TREE_GETS + TREE_SCANS
        if m.rounds == 0:
            m.counters = {**{f"insert.{k}": getattr(inserted, k)
                             for k in TREE_COUNTERS},
                          **{f"get.{k}": getattr(looked_up, k)
                             for k in TREE_COUNTERS}}
        del insert, get, keep
        if m.rounds % TREE_SNAPSHOT_EVERY == 0:
            save_tree(tree, snap)
            m.disk_per_key.append(snap.stat().st_size / TREE_N)
            del tree
            gc.collect()
            tree = m.timed("recovery_s", lambda: load_tree(snap, QuITTree))
            if list(tree.items()) != expected_items:
                raise WrongAnswer("snapshot reload lost or changed entries")
            snap.unlink()
        del tree
        # The tree holds reference cycles: collect it now, outside the
        # clocks, so that peak RSS is one tree's, not the collector's
        # timing.
        gc.collect()
        m.rounds += 1
    m.rss_mb.append(vm_hwm_mb())


# ----------------------------------------------------------------------
# net-ingest: server process, checks, crash and recovery
# ----------------------------------------------------------------------

def _die_with_parent() -> None:
    """In the forked child: get SIGKILL when the benchmark dies, so no
    server outlives an interrupted run (Linux ``PR_SET_PDEATHSIG``).
    The child keeps the benchmark's affinity: both run on ``CPU``."""
    import ctypes

    ctypes.CDLL(None).prctl(1, int(signal.SIGKILL))


class Server:
    """One ``quit-serve serve`` process (through the tracing launcher
    when traced), on the benchmark's core."""

    def __init__(self, directory: Path, dump: Optional[Path]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        if dump is None:
            cmd = [sys.executable, "-m", "repro.net.cli"]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(dump)]
        cmd += ["serve", str(directory), "--fsync", "group"]
        self.dump = dump
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                     cwd=ROOT, text=True,
                                     preexec_fn=_die_with_parent)
        try:
            line = self.proc.stdout.readline()
            if " on " not in line:
                raise RuntimeError(f"quit-serve did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.kill()
            raise

    def client(self) -> Any:
        from repro.net.client import QuitClient

        return QuitClient("127.0.0.1", self.port, deadline=30.0)

    def cpu(self) -> float:
        return cpu_seconds(self.proc.pid)

    def hwm_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def collect_dump(self) -> Optional[dict]:
        """Ask the traced launcher for its spans and counters."""
        if self.dump is None:
            return None
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while not self.dump.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server wrote no dump")
            time.sleep(0.01)
        return json.loads(self.dump.read_text())

    def drain(self) -> Optional[dict]:
        """SIGTERM: the shipped graceful drain (settle, checkpoint, exit
        0).  Returns the traced launcher's final dump, if traced."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=120)
        finally:
            self.kill()
        if code != 0:
            raise WrongAnswer(f"graceful drain exited {code}, not 0")
        if self.dump is None:
            return None
        return json.loads(self.dump.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def start_server(m: Measurements, metric: str, directory: Path, tag: str,
                 tracer: Optional[spans.Tracer]) -> tuple[Server, Any]:
    """Start a server and wait until it answers STATUS, booking the
    time that took as ``metric``; returns the server and a client."""
    dump = RUN_DIR / f"dump-{tag}.json" if tracer is not None else None

    def start() -> tuple[Server, Any]:
        server = Server(directory, dump)
        try:
            client = server.client()
            client.status()
        except BaseException:
            server.kill()
            raise
        return server, client

    return m.timed(metric, start)


class Ledger:
    """What the store must hold: the benchmark's expected map."""

    def __init__(self, base: dict[int, int]) -> None:
        self.expected = dict(base)
        self._sorted: Optional[list[int]] = None

    def acked_many(self, pairs: list[tuple[int, int]]) -> None:
        self.expected.update(pairs)
        self._sorted = None

    def check_get(self, key: int, got: Any) -> None:
        want = self.expected.get(key)
        if got != want:
            raise WrongAnswer(f"get({key}) returned {got!r}, expected {want!r}")

    def check_scan(self, start: int, end: int, items: list) -> None:
        """Order, bounds, values, and completeness of one range scan
        over ``[start, end)``."""
        keys = [k for k, _ in items]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise WrongAnswer(f"scan({start}, {end}) out of order")
        for k, v in items:
            if not start <= k < end:
                raise WrongAnswer(f"scan({start}, {end}) returned key {k}")
            if self.expected.get(k) != v:
                raise WrongAnswer(f"scan({start}, {end}) returned {k}: {v!r}")
        if self._sorted is None:
            self._sorted = sorted(self.expected)
        lo = bisect.bisect_left(self._sorted, start)
        hi = bisect.bisect_left(self._sorted, end)
        missing = set(self._sorted[lo:hi]).difference(keys)
        if missing:
            raise WrongAnswer(f"scan({start}, {end}) missed {len(missing)} keys")

    def verify_all(self, client: Any) -> None:
        """Every acknowledged key reads back with its value."""
        keys = sorted(self.expected)
        for i in range(0, len(keys), 1024):
            chunk = keys[i:i + 1024]
            for k, got in zip(chunk, client.get_many(chunk)):
                self.check_get(k, got)


def finish_round(m: Measurements, server: Server, directory: Path,
                 live_keys: int) -> None:
    """Sample the served process and its data directory at the end of
    the measured phases, then collect the traced dump."""
    m.rss_mb.append(server.hwm_mb())
    m.disk_per_key.append(dir_bytes(directory) / live_keys)
    dump = server.collect_dump()
    if dump is not None:
        m.dumps.append({**dump, "role": "measured"})
        if not m.counters:
            m.counters = {
                **{f"served.{k}": v for k, v in dump["tree"].items()
                   if k in TREE_COUNTERS},
                **{f"served.wal_{k}": v for k, v in dump["wal"].items()},
            }


def crash_and_recover(m: Measurements, server: Server, client: Any,
                      directory: Path, ledger: Ledger, tag: str,
                      tracer: Optional[spans.Tracer]) -> None:
    """SIGKILL, restart on the same directory (timed until STATUS
    answers) and check that every acknowledged key reads back, twice,
    then drain.  Recovery replays the WAL without checkpointing, so the
    second restart repeats the first one's work: two ``recovery_s``
    samples per round.  The OS page cache survives SIGKILL: this checks
    recovery from a process crash, not from power loss."""
    for restart in range(INGEST_RESTARTS):
        client.close()
        server.kill()
        server, client = start_server(m, "recovery_s", directory,
                                      f"{tag}{restart}", tracer)
        try:
            ledger.verify_all(client)
        except BaseException:
            client.close()
            server.kill()
            raise
    try:
        client.close()
        dump = server.drain()
        if dump is not None:
            m.dumps.append({**dump, "role": "recovered"})
    finally:
        server.kill()


def more_rounds(m: Measurements, began: float, seconds: float) -> bool:
    """Whether to run another round: always up to ``MIN_ROUNDS``, then
    while another round of average length ends near ``seconds``."""
    if m.rounds < MIN_ROUNDS:
        return True
    elapsed = time.perf_counter() - began
    return elapsed + 0.5 * elapsed / m.rounds < seconds


def fresh_dir(name: str) -> Path:
    path = RUN_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# net-ingest
# ----------------------------------------------------------------------

INGEST_FRAME = 1024
INGEST_FRAMES = 48
#: A round ingests its 48 frames in three cycles; each cycle pipelines
#: 16 frames (one throughput window), then reads what is loaded so far.
INGEST_CYCLES = 3
INGEST_WINDOW = 8
INGEST_GET_FRAMES = 16
INGEST_GET_WINDOW = 4
#: Scans span 2,048 loaded keys, four ``SCAN`` pages of the client's
#: 512: per-entry work dominates, as on the rest of the bulk path.
INGEST_SCAN_KEYS = 2048
INGEST_SCANS = 8
INGEST_SCAN_WINDOW = 2
INGEST_RESTARTS = 2


def net_ingest(m: Measurements, seed: int, seconds: float,
               tracer: Optional[spans.Tracer]) -> None:
    rng = random.Random(seed)
    n = INGEST_FRAMES * INGEST_FRAME
    keys = bods_keys(n, seed, step=2)
    pairs = [(k, value_of(k)) for k in keys]
    per = n // INGEST_CYCLES
    span = 2 * INGEST_SCAN_KEYS
    cycles = []
    for c in range(INGEST_CYCLES):
        loaded = keys[:(c + 1) * per]
        cycles.append({
            "frames": [pairs[i:i + INGEST_FRAME]
                       for i in range(c * per, (c + 1) * per, INGEST_FRAME)],
            "probes": [rng.choice(loaded)
                       for _ in range(INGEST_GET_FRAMES * INGEST_FRAME)],
            "starts": [rng.choice(loaded) for _ in range(INGEST_SCANS)],
        })
    inputs_ready()
    began = time.perf_counter()
    while more_rounds(m, began, seconds):
        directory = fresh_dir("ingest")
        ledger = Ledger({})
        server, client = start_server(m, "setup_s", directory,
                                      f"i{m.rounds}a", tracer)
        try:
            for cycle in cycles:
                ingest_cycle(m, server, client, ledger, span, **cycle)
            finish_round(m, server, directory, len(ledger.expected))
        except BaseException:
            client.close()
            server.kill()
            raise
        crash_and_recover(m, server, client, directory, ledger,
                          f"i{m.rounds}b", tracer)
        m.rounds += 1


def ingest_cycle(m: Measurements, server: Server, client: Any,
                 ledger: Ledger, span: int, frames: list, probes: list[int],
                 starts: list[int]) -> None:
    keys = sum(len(f) for f in frames)
    asked: list[float] = []

    def feed():
        # The pipeline asks for frame j once it holds fewer than 8
        # unacknowledged frames: past the first 8, that is when the
        # answer to frame j - 8 came back.
        for frame in frames:
            asked.append(time.perf_counter())
            yield frame

    with Phase(m, "insert", server) as ph:
        added = client.pipeline_insert_many(feed(), window=INGEST_WINDOW,
                                            deadline=120.0)
        done = time.perf_counter()
        host = ph.host()
        m.add_window("insert", done - asked[0], keys, host)
        ph.keys = keys
    acked = asked[INGEST_WINDOW:] + [done] * INGEST_WINDOW
    m.add_latency("put", [(b - a) * 1e3 for a, b in zip(asked, acked)], host)
    m.attempted += len(frames)
    m.put_requests += len(frames)
    if added != keys:
        raise WrongAnswer(f"PUT_MANY added {added} of {keys} keys")
    for frame in frames:
        ledger.acked_many(frame)
    results = []
    per_window = INGEST_GET_WINDOW * INGEST_FRAME
    with Phase(m, "get", server) as ph:
        for i in range(0, len(probes), per_window):
            latency = []
            start = time.perf_counter()
            for j in range(i, i + per_window, INGEST_FRAME):
                t0 = time.perf_counter()
                results.append(client.get_many(probes[j:j + INGEST_FRAME]))
                t1 = time.perf_counter()
                latency.append((t1 - t0) * 1e3)
            host = ph.host()
            m.add_window("get", t1 - start, per_window, host)
            m.add_latency("get", latency, host)
        ph.keys = len(probes)
    m.attempted += len(results)
    for j, got in enumerate(results):
        for k, v in zip(probes[j * INGEST_FRAME:], got):
            ledger.check_get(k, v)
    scans = []
    with Phase(m, "scan", server) as ph:
        for i in range(0, len(starts), INGEST_SCAN_WINDOW):
            entries = 0
            start = time.perf_counter()
            for s in starts[i:i + INGEST_SCAN_WINDOW]:
                items = client.range_query(s, s + span)
                entries += len(items)
                scans.append(items)
            took = time.perf_counter() - start
            m.add_window("scan", took, entries, ph.host())
            ph.keys += entries
    m.attempted += len(starts)
    for s, items in zip(starts, scans):
        ledger.check_scan(s, s + span, items)


#: Workloads whose index lives in a server process on the benchmark's
#: core (see ``CPU``).
SERVED = ("net-ingest",)

WORKLOADS: dict[str, Callable] = {
    "tree-nearsorted": tree_nearsorted,
    "net-ingest": net_ingest,
}
