"""Multi-process network chaos soak for the ``repro.net`` tier.

The disk-level soaks (:mod:`repro.testing.chaos`) prove the storage
stack keeps acked writes through crashes and bad media.  This harness
proves the same promise **end-to-end across the RPC boundary**: real
client *processes* drive a real ``quit-serve`` server *process* over
loopback TCP while the harness

* SIGKILLs the server and restarts it on the same port (clients ride
  through on retries with fresh connections),
* injects ``io.*`` disk faults through the admin side channel,
* partitions the attached replica (with ``required_acks=1`` +
  ``ack_deadline`` this turns writes into bounded
  ``QuorumTimeoutError`` → ``RETRY_LATER`` refusals until the heal),
* and finally SIGTERMs the server, asserting a graceful drain: exit
  code 0 with every in-flight ticket settled.

Invariants checked (:class:`NetChaosReport.ok`):

1. **zero acked-write loss** — every key whose *last* client-observed
   event was an acked put/delete has exactly that state after a cold
   recovery of the server directory; ops that errored out leave their
   key in-doubt (either outcome accepted) until the next ack;
2. **zero duplicate applies** — dedup probes (the same idempotency id
   delivered twice on purpose) must come back ``FLAG_DEDUPED`` and
   never ``FLAG_APPLIED`` twice within one server tenure (tenures are
   told apart by the response ``boot_id``), and a deduped delete must
   preserve the original logical result;
3. **bounded client-observed error windows** — the longest stretch any
   client went without a successful request stays under a bound (the
   kill→restart ride-through, not an unbounded hang);
4. **must-bite** — a schedule that killed no server, armed no fault,
   and cut no link proves nothing, so the report refuses to pass it.

Clients write disjoint key ranges, so each key's event order is exactly
one process's program order — no cross-client races in the oracle.
"""

from __future__ import annotations

import ast
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import Process
from pathlib import Path
from typing import Any, Optional

from ..net import client as net_client
from ..net import protocol
from .oracle import AckOracle

#: Seconds per client allowed between consecutive successful requests
#: before the soak calls the outage unbounded.  Covers a SIGKILL, a
#: recovery replay, and the retry backoff ladder with slack for CI.
ERROR_WINDOW_BOUND = 20.0

#: Keys per client process; ranges are disjoint by construction.
KEYSPAN = 10_000


@dataclass
class NetChaosReport:
    """Outcome of one :func:`run_network_soak`."""

    clients: int = 0
    duration: float = 0.0
    acked_puts: int = 0
    acked_deletes: int = 0
    dedup_probes: int = 0
    errors_observed: int = 0
    retries_exhausted: int = 0
    kills: int = 0
    restarts: int = 0
    io_faults_armed: int = 0
    partitions: int = 0
    boot_ids_seen: int = 0
    lost_acks: int = 0
    duplicate_applies: int = 0
    result_mismatches: int = 0
    max_error_window: float = 0.0
    drain_exit_code: Optional[int] = None
    drain_settled: bool = False
    final_entries: int = 0
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Invariants held AND the schedule actually bit."""
        return (
            self.lost_acks == 0
            and self.duplicate_applies == 0
            and self.result_mismatches == 0
            and self.max_error_window <= ERROR_WINDOW_BOUND
            and self.drain_exit_code == 0
            and self.drain_settled
            and self.kills > 0
            and self.io_faults_armed > 0
            and self.partitions > 0
            and self.acked_puts > 0
            and self.dedup_probes > 0
            # Clients must demonstrably have ridden through at least
            # one server tenure change (a kill that nobody acked across
            # proves nothing).  Surfaced errors are NOT required: the
            # retry layer absorbing the whole outage is the win, and
            # the boot-id evidence shows the outage was real.
            and self.boot_ids_seen >= 2
        )

    def summary(self) -> str:
        """One human-readable block (test failure messages, CI logs)."""
        lines = [
            f"network soak: {self.clients} client(s), "
            f"{self.duration:.1f}s, ok={self.ok}",
            f"  acked: {self.acked_puts} put(s), "
            f"{self.acked_deletes} delete(s), "
            f"{self.dedup_probes} dedup probe(s)",
            f"  adversity: {self.kills} kill(s), {self.restarts} "
            f"restart(s), {self.io_faults_armed} io fault(s), "
            f"{self.partitions} partition(s), "
            f"{self.boot_ids_seen} boot id(s) seen",
            f"  client errors: {self.errors_observed} observed, "
            f"{self.retries_exhausted} retries-exhausted, "
            f"max window {self.max_error_window:.2f}s "
            f"(bound {ERROR_WINDOW_BOUND:.0f}s)",
            f"  verdict: {self.lost_acks} lost ack(s), "
            f"{self.duplicate_applies} duplicate apply(s), "
            f"{self.result_mismatches} result mismatch(es)",
            f"  drain: exit={self.drain_exit_code} "
            f"settled={self.drain_settled}; "
            f"final entries {self.final_entries}",
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Client process
# ----------------------------------------------------------------------

def _client_proc(
    host: str,
    port: int,
    cid: int,
    seed: int,
    stop_path: str,
    log_path: str,
) -> None:
    """One traffic-driving process: sequential puts/deletes on its own
    key range, periodic dedup probes, everything logged as events."""
    rng = random.Random(seed * 1000 + cid)
    base = cid * KEYSPAN
    stop = Path(stop_path)
    client = net_client.QuitClient(host, port, deadline=6.0)
    seq = 0
    with open(log_path, "w") as log:

        def emit(*event: Any) -> None:
            log.write(repr(event) + "\n")
            log.flush()

        while not stop.exists():
            seq += 1
            key = base + rng.randrange(64)
            op = rng.random()
            try:
                if op < 0.08:
                    ack = client.delete_acked(key)
                    emit("del", key, bool(ack.result), ack.deduped,
                         ack.boot_id, time.time())
                elif op < 0.16:
                    _dedup_probe(client, emit, key, seq)
                else:
                    ack = client.insert_acked(key, seq)
                    emit("put", key, seq, ack.deduped, ack.boot_id,
                         time.time())
            except net_client.RetriesExhaustedError:
                emit("err", key, "retries_exhausted", time.time())
                client.close()
            except (net_client.NetError, OSError, protocol.ProtocolError) as exc:
                emit("err", key, type(exc).__name__, time.time())
                client.close()
                time.sleep(0.05)
    client.close()


def _dedup_probe(client: net_client.QuitClient, emit, key: int,
                 seq: int) -> None:
    """Deliver the same idempotency id twice, on purpose, and log what
    each delivery claimed — the direct observation behind the
    zero-duplicate-applies assertion."""
    rid = random.getrandbits(63) | 1
    until = time.monotonic() + 4.0
    # Probe deletes sometimes (result preservation is the interesting
    # part there: the duplicate must echo the original existed-bool).
    probe_delete = seq % 3 == 0
    if probe_delete:
        client.insert(key, seq)
        op, payload = protocol.OP_DELETE, key
    else:
        op, payload = protocol.OP_PUT, (key, seq)
    st1, fl1, res1 = client._exchange(op, rid, payload, until)
    boot1 = client.last_boot_id
    st2, fl2, res2 = client._exchange(op, rid, payload, until)
    boot2 = client.last_boot_id
    emit("probe", key, seq, probe_delete,
         st1, fl1, res1, boot1, st2, fl2, res2, boot2, time.time())
    if not probe_delete and st1 == protocol.ST_OK:
        emit("put", key, seq, False, boot1, time.time())
    if probe_delete and st1 == protocol.ST_OK:
        emit("del", key, bool(res1), False, boot1, time.time())


# ----------------------------------------------------------------------
# Server process management
# ----------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn_server(directory: Path, port: int) -> subprocess.Popen:
    src = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.net.cli", "serve", str(directory),
            "--port", str(port), "--fsync", "group", "--chaos-admin",
            "--replicas", "1", "--required-acks", "1",
            "--ack-deadline", "0.5", "--queue-wait", "0.5",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(directory.parent),
    )


def _wait_serving(proc: subprocess.Popen, deadline: float = 30.0) -> list[str]:
    """Read stdout lines until the server announces it is serving."""
    lines: list[str] = []
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        line = proc.stdout.readline()  # type: ignore[union-attr]
        if not line:
            if proc.poll() is not None:
                raise RuntimeError(
                    "server exited before serving:\n" + "".join(lines)
                )
            time.sleep(0.01)
            continue
        lines.append(line)
        if "serving until SIGTERM/SIGINT" in line:
            return lines
    raise RuntimeError("server did not start serving in time")


def _admin(host: str, port: int, *command: Any) -> Any:
    with net_client.QuitClient(host, port, deadline=5.0) as admin:
        return admin.admin(*command)


# ----------------------------------------------------------------------
# The soak
# ----------------------------------------------------------------------

def run_network_soak(
    root: Path,
    *,
    clients: int = 3,
    duration: float = 8.0,
    kills: int = 2,
    seed: int = 0,
    out=None,
) -> NetChaosReport:
    """Drive the kill/fault/partition schedule and verify the invariants.

    ``root`` must be a fresh scratch directory; the server state lives
    in ``root/state`` and survives across the staged kills exactly as a
    production directory would.
    """
    def say(msg: str) -> None:
        if out is not None:
            print(msg, file=out)
            out.flush()

    root = Path(root)
    state = root / "state"
    state.mkdir(parents=True, exist_ok=True)
    stop_path = root / "STOP"
    report = NetChaosReport(clients=clients, duration=duration)
    rng = random.Random(seed)
    host, port = "127.0.0.1", _free_port()

    say(f"[soak] serving {state} on port {port}")
    proc = _spawn_server(state, port)
    _wait_serving(proc)

    logs = [root / f"client{cid}.log" for cid in range(clients)]
    procs = [
        Process(
            target=_client_proc,
            args=(host, port, cid, seed, str(stop_path), str(logs[cid])),
            daemon=True,
        )
        for cid in range(clients)
    ]
    for p in procs:
        p.start()

    # Schedule: slices of quiet traffic interleaved with one fault of
    # each family per kill cycle.  Every phase is wall-clock paced so
    # the total runtime tracks ``duration``.
    cycles = max(1, kills)
    slice_s = max(0.4, duration / (cycles * 4))
    try:
        for cycle in range(cycles):
            time.sleep(slice_s)
            # io fault burst (transient: the RetryPolicy under the WAL
            # rides it out; clients at worst see one slow request).
            site = rng.choice(["io.wal.fsync", "io.wal.write"])
            try:
                _admin(host, port, "iofault_arm", site, "eio",
                       {"times": 2, "hits_before": 1})
                report.io_faults_armed += 1
                say(f"[soak] cycle {cycle}: armed {site} eio x2")
            except net_client.NetError as exc:
                report.notes.append(f"iofault arm failed: {exc}")
            time.sleep(slice_s)
            # replica partition: quorum waits degrade to bounded
            # QuorumTimeoutError -> RETRY_LATER at the wire.
            try:
                _admin(host, port, "partition", 0, True)
                report.partitions += 1
                say(f"[soak] cycle {cycle}: partitioned replica0")
                time.sleep(min(1.0, slice_s))
                _admin(host, port, "partition", 0, False)
                say(f"[soak] cycle {cycle}: healed replica0")
            except net_client.NetError as exc:
                report.notes.append(f"partition failed: {exc}")
            time.sleep(slice_s)
            if cycle < kills:
                say(f"[soak] cycle {cycle}: SIGKILL server pid {proc.pid}")
                proc.kill()
                proc.wait()
                report.kills += 1
                proc = _spawn_server(state, port)
                _wait_serving(proc)
                report.restarts += 1
                say(f"[soak] cycle {cycle}: restarted pid {proc.pid}")
            time.sleep(slice_s)
    finally:
        stop_path.touch()
        for p in procs:
            p.join(30.0)
            if p.is_alive():  # pragma: no cover - hang guard
                p.terminate()
                report.notes.append("client process hung; terminated")

    # Graceful drain: SIGTERM -> settle tickets -> checkpoint -> exit 0.
    say(f"[soak] SIGTERM server pid {proc.pid} for graceful drain")
    proc.send_signal(signal.SIGTERM)
    try:
        tail, _ = proc.communicate(timeout=60.0)
    except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
        proc.kill()
        tail, _ = proc.communicate()
    report.drain_exit_code = proc.returncode
    report.drain_settled = "graceful drain" in (tail or "")
    say(f"[soak] drain exit={report.drain_exit_code}")

    _verify(report, state, logs)
    say(
        f"[soak] acked_puts={report.acked_puts} "
        f"acked_deletes={report.acked_deletes} "
        f"probes={report.dedup_probes} errors={report.errors_observed} "
        f"lost={report.lost_acks} dups={report.duplicate_applies} "
        f"max_window={report.max_error_window:.2f}s ok={report.ok}"
    )
    return report


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

def _verify(report: NetChaosReport, state: Path, logs: list[Path]) -> None:
    """Cold-recover the server directory and check every invariant
    against the client event logs."""
    from ..core import DurableTree

    durable, _ = DurableTree.recover(state)
    try:
        report.final_entries = len(durable)
        boots: set[int] = set()
        for log_path in logs:
            last_ok: Optional[float] = None
            oracle = AckOracle()
            if not log_path.exists():
                report.notes.append(f"missing client log {log_path.name}")
                continue
            for line in log_path.read_text().splitlines():
                try:
                    event = ast.literal_eval(line)
                except (ValueError, SyntaxError):
                    report.notes.append(f"garbled event: {line[:80]}")
                    continue
                kind = event[0]
                if kind == "put":
                    _, key, value, deduped, boot, ts = event
                    report.acked_puts += 1
                    oracle.ack_put(key, value)
                    boots.add(boot)
                    last_ok = _window(report, last_ok, ts)
                elif kind == "del":
                    _, key, existed, deduped, boot, ts = event
                    report.acked_deletes += 1
                    oracle.ack_delete(key)
                    boots.add(boot)
                    last_ok = _window(report, last_ok, ts)
                elif kind == "probe":
                    (_, key, seq, probe_delete, st1, fl1, res1, boot1,
                     st2, fl2, res2, boot2, ts) = event
                    report.dedup_probes += 1
                    _check_probe(report, event)
                    # The probe key's state is covered by the put/del
                    # events the probe emitted; nothing extra here.
                    last_ok = _window(report, last_ok, ts)
                elif kind == "err":
                    _, key, name, ts = event
                    report.errors_observed += 1
                    if name == "retries_exhausted":
                        report.retries_exhausted += 1
                    # Unacked: the op may or may not have applied.
                    oracle.doubt(key)
            # Acked-write loss check: keys whose last event was an ack
            # (client values are never None, so None means a delete).
            for key, expected, found in oracle.lost(durable.get):
                report.lost_acks += 1
                if expected is None:
                    report.notes.append(
                        f"acked delete of {key} resurfaced as {found!r}"
                    )
                else:
                    report.notes.append(
                        f"acked put {key}={expected!r} recovered as "
                        f"{'<missing>' if found is None else repr(found)}"
                    )
        report.boot_ids_seen = len(boots)
    finally:
        durable.close()


def _window(report: NetChaosReport, last_ok: Optional[float],
            ts: float) -> float:
    if last_ok is not None and ts - last_ok > report.max_error_window:
        report.max_error_window = ts - last_ok
    return ts


def _check_probe(report: NetChaosReport, event: tuple) -> None:
    """Exactly-once-per-tenure: the duplicate delivery must never claim
    a second apply within the same boot, and must echo the original
    logical result."""
    (_, key, seq, probe_delete, st1, fl1, res1, boot1,
     st2, fl2, res2, boot2, _ts) = event
    if st1 != protocol.ST_OK or st2 != protocol.ST_OK:
        return  # a refused delivery applied nothing; nothing to check
    first_applied = bool(fl1 & protocol.FLAG_APPLIED)
    second_applied = bool(fl2 & protocol.FLAG_APPLIED)
    if boot1 == boot2:
        if first_applied and second_applied:
            report.duplicate_applies += 1
            report.notes.append(
                f"duplicate apply: key {key} seq {seq} applied twice "
                f"in tenure {boot1:08x}"
            )
        if not (fl2 & protocol.FLAG_DEDUPED):
            report.duplicate_applies += 1
            report.notes.append(
                f"duplicate delivery of key {key} seq {seq} not marked "
                f"deduped in tenure {boot1:08x}"
            )
        if res1 != res2:
            report.result_mismatches += 1
            report.notes.append(
                f"dedup result drift for key {key} seq {seq}: "
                f"{res1!r} != {res2!r}"
            )
