"""``quit-serve`` — serve a durable tree over the network, talk to one,
and administer its directory.

Server side::

    quit-serve serve /var/lib/quit/state --port 7421 --fsync group

recovers the directory, binds, and serves until SIGTERM/SIGINT, then
performs a **graceful drain**: stop accepting, settle every in-flight
ticket, checkpoint, exit 0.  ``--replicas K --required-acks Q`` serves
the directory as a replication primary with K in-process replicas under
``DIR-replicas/`` (demo / test topology), with ``--ack-deadline``
bounding every quorum wait.

Client side (against a running server)::

    quit-serve put  HOST:PORT KEY VALUE
    quit-serve get  HOST:PORT KEY
    quit-serve del  HOST:PORT KEY
    quit-serve scan HOST:PORT START END [--limit N]
    quit-serve status HOST:PORT

Keys and values are parsed as Python literals when possible (``42`` is
an int) and fall back to strings, matching what the tree stores.

Directory side (offline: run these on a directory no server holds)::

    quit-serve recover    DIR [--no-scrub]    # replay, scrub, check
    quit-serve checkpoint DIR                 # fold the WAL into a snapshot
    quit-serve inspect    DIR                 # role, epoch, cursor, footprint
    quit-serve verify     DIR [--quarantine]  # CRC audit, no recovery
    quit-serve promote    DIR                 # make a replica a primary

``recover`` exits 1 when replay, the scrub or the structural check found
damage; ``verify`` exits 1 on a damaged artifact.
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Any, Optional, Sequence, TextIO

from ..core import TREE_VARIANTS, DurableTree, RecoveryReport, TreeConfig
from ..core.durable import (
    CURSOR_FILENAME,
    SNAPSHOT_NAME,
    WAL_DIRNAME,
    read_epoch,
)
from ..core.wal import first_position, segment_paths
from .client import NetError, QuitClient
from .server import QuitServer

#: ``--variant`` choices: the paper's variants keyed by ``cls.name``.
VARIANTS: dict[str, type] = {cls.name: cls for cls in TREE_VARIANTS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quit-serve",
        description="Serve a QuIT durability directory over a socket, "
                    "run client ops against a running server, or "
                    "administer a directory offline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tree_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--variant", default="QuIT", choices=sorted(VARIANTS),
            help="tree variant to recover into (default: QuIT)",
        )
        p.add_argument(
            "--leaf-capacity", type=int, default=None,
            help="node capacity override (default: from the snapshot)",
        )

    srv = sub.add_parser(
        "serve",
        help="recover DIR and serve it until SIGTERM/SIGINT "
             "(then drain: settle tickets, checkpoint, exit 0)",
    )
    srv.add_argument("directory", type=Path)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default: 0 = pick a free one, printed)",
    )
    add_tree_args(srv)
    srv.add_argument(
        "--fsync", default="group",
        choices=["always", "interval", "none", "group"],
        help="WAL fsync policy (default: group — pipelined requests "
             "coalesce into one fsync per batch)",
    )
    srv.add_argument(
        "--max-inflight", type=int, default=64,
        help="admission budget: concurrent requests (default: 64)",
    )
    srv.add_argument(
        "--queue-high-water", type=int, default=256,
        help="waiting requests beyond which arrivals are shed "
             "(default: 256)",
    )
    srv.add_argument(
        "--queue-wait", type=float, default=1.0,
        help="queue deadline: max seconds a request may wait for an "
             "admission slot (default: 1.0)",
    )
    srv.add_argument(
        "--replicas", type=int, default=0,
        help="attach N in-process replicas (demo/test topology)",
    )
    srv.add_argument(
        "--required-acks", type=int, default=0,
        help="replica acks required before a write is acknowledged",
    )
    srv.add_argument(
        "--ack-deadline", type=float, default=None,
        help="seconds to wait for the ack quorum before degrading to "
             "QuorumTimeoutError (default: wait without bound)",
    )
    srv.add_argument(
        "--chaos-admin", action="store_true",
        help="enable the OP_ADMIN fault-injection surface "
             "(test harnesses only)",
    )

    def add_client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("address", help="server address, HOST:PORT")
        p.add_argument(
            "--deadline", type=float, default=5.0,
            help="per-request wall-clock budget in seconds "
                 "(default: 5.0)",
        )

    g = sub.add_parser("get", help="look one key up")
    add_client_args(g)
    g.add_argument("key")

    p = sub.add_parser("put", help="upsert one key (idempotent retry)")
    add_client_args(p)
    p.add_argument("key")
    p.add_argument("value")

    d = sub.add_parser("del", help="delete one key")
    add_client_args(d)
    d.add_argument("key")

    sc = sub.add_parser("scan", help="range scan [START, END]")
    add_client_args(sc)
    sc.add_argument("start")
    sc.add_argument("end")
    sc.add_argument(
        "--limit", type=int, default=0,
        help="stop after N items (default: 0 = no limit)",
    )

    st = sub.add_parser("status", help="server status + net_* counters")
    add_client_args(st)

    cp = sub.add_parser(
        "checkpoint",
        help="recover DIR, write a fresh snapshot, truncate the WAL",
    )
    cp.add_argument("directory", type=Path)
    add_tree_args(cp)

    rec = sub.add_parser(
        "recover",
        help="rebuild from DIR, scrub and check it, print the recovery "
             "report (exit 1 when damage was found)",
    )
    rec.add_argument("directory", type=Path)
    add_tree_args(rec)
    rec.add_argument(
        "--no-scrub", action="store_true",
        help="skip the post-replay audit (fast-path metadata scrub "
             "and structural check)",
    )

    pr = sub.add_parser(
        "promote",
        help="turn a (former) replica directory into a primary",
    )
    pr.add_argument("directory", type=Path)
    add_tree_args(pr)

    ins = sub.add_parser(
        "inspect",
        help="inspect a node directory without recovering it: role, "
             "epoch, cursor, footprint",
    )
    ins.add_argument("directory", type=Path)

    ver = sub.add_parser(
        "verify",
        help="offline CRC-verify DIR's snapshot and WAL segments "
             "without recovering (exit 1 when damage is found)",
    )
    ver.add_argument("directory", type=Path)
    ver.add_argument(
        "--quarantine", action="store_true",
        help="copy damaged artifacts into DIR/quarantine/ as evidence",
    )

    return parser


def _literal(text: str) -> Any:
    """CLI operand -> tree key/value: literal when parseable, else str."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"bad address {text!r}: expected HOST:PORT")
    return host, int(port)


def _config(args: argparse.Namespace) -> Optional[TreeConfig]:
    if args.leaf_capacity is None:
        return None
    return TreeConfig(
        leaf_capacity=args.leaf_capacity,
        internal_capacity=args.leaf_capacity,
    )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    tree_class = VARIANTS[args.variant]
    config = _config(args)
    durable, report = DurableTree.recover(
        args.directory, tree_class, config, fsync=args.fsync
    )
    replicas = []
    if args.replicas > 0:
        from ..replication import InProcessTransport, Primary, Replica

        backend: Any = Primary(
            durable,
            node_id="primary",
            required_acks=args.required_acks,
            ack_deadline=args.ack_deadline,
        )
        replica_root = args.directory.parent / (
            args.directory.name + "-replicas"
        )
        for i in range(args.replicas):
            replica = Replica(
                replica_root / f"replica{i}",
                InProcessTransport(backend),
                tree_class=tree_class,
                config=config,
                name=f"replica{i}",
            )
            replica.bootstrap()
            backend.attach(replica)
            replicas.append(replica)
    else:
        backend = durable

    async def _serve() -> int:
        server = QuitServer(
            backend,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            queue_high_water=args.queue_high_water,
            queue_wait=args.queue_wait,
            admin=args.chaos_admin,
        )
        server.replicas = replicas
        await server.start()
        loop = asyncio.get_running_loop()

        def _drain() -> None:  # pragma: no cover - signal context
            loop.create_task(server.drain())

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _drain)
            except (NotImplementedError, ValueError, RuntimeError):
                try:
                    signal.signal(
                        sig, lambda *_: server.request_drain_threadsafe()
                    )
                except ValueError:
                    pass  # non-main thread (test runner): no signals
        print(
            f"serving {args.directory} ({args.variant}, "
            f"{len(backend)} entries, {len(replicas)} replica(s)) "
            f"on {server.host}:{server.port}",
            file=out,
        )
        print(f"serving until SIGTERM/SIGINT (pid {os.getpid()})", file=out)
        out.flush()
        await server.serve_until_drained()
        return server.stats.net_drained_tickets

    try:
        settled = asyncio.run(_serve())
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()
        for replica in replicas:
            replica.close()
    print(
        f"graceful drain: settled {settled} in-flight request(s); "
        "checkpointed; WAL truncated",
        file=out,
    )
    return 0


# ----------------------------------------------------------------------
# client subcommands
# ----------------------------------------------------------------------

def _client(args: argparse.Namespace) -> QuitClient:
    host, port = _address(args.address)
    return QuitClient(host, port, deadline=args.deadline)


def cmd_get(args: argparse.Namespace, out: TextIO) -> int:
    with _client(args) as client:
        sentinel = object()
        value = client.get(_literal(args.key), sentinel)
    if value is sentinel:
        print("(missing)", file=out)
        return 1
    print(repr(value), file=out)
    return 0


def cmd_put(args: argparse.Namespace, out: TextIO) -> int:
    with _client(args) as client:
        ack = client.insert_acked(_literal(args.key), _literal(args.value))
    print(
        f"ok applied={ack.applied} deduped={ack.deduped} "
        f"boot={ack.boot_id:08x}",
        file=out,
    )
    return 0


def cmd_del(args: argparse.Namespace, out: TextIO) -> int:
    with _client(args) as client:
        existed = client.delete(_literal(args.key))
    print(f"ok existed={existed}", file=out)
    return 0


def cmd_scan(args: argparse.Namespace, out: TextIO) -> int:
    shown = 0
    with _client(args) as client:
        for key, value in client.range_iter(
            _literal(args.start), _literal(args.end)
        ):
            print(f"{key!r}\t{value!r}", file=out)
            shown += 1
            if args.limit and shown >= args.limit:
                break
    print(f"({shown} item(s))", file=out)
    return 0


def cmd_status(args: argparse.Namespace, out: TextIO) -> int:
    with _client(args) as client:
        status = client.status()
    stats = status.pop("stats", {})
    for key in sorted(status):
        print(f"{key:<22} {status[key]}", file=out)
    for key in sorted(stats):
        print(f"stats.{key:<16} {stats[key]}", file=out)
    return 0


# ----------------------------------------------------------------------
# directory commands
# ----------------------------------------------------------------------

def _print_rows(rows: list[tuple[str, Any]], out: TextIO) -> None:
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"  {label:<{width}}  {value}", file=out)


def print_report(report: RecoveryReport, out: TextIO) -> None:
    """Render a recovery report as aligned key/value lines."""
    rows: list[tuple[str, Any]] = [
        ("snapshot loaded", report.snapshot_loaded),
        ("snapshot entries", report.snapshot_entries),
        ("WAL segments scanned", report.segments_scanned),
        ("WAL records replayed", report.records_replayed),
        ("entries replayed", report.entries_replayed),
        ("checksum failures", report.checksum_failures),
        ("torn tail", report.truncated_tail),
        ("tail bytes dropped", report.tail_bytes_dropped),
        ("sequence gap", report.sequence_gap),
        ("unknown records skipped", report.unknown_records),
    ]
    if report.scrub is not None:
        rows.append(("scrub issues", len(report.scrub.issues)))
        rows.append(("scrub repairs", report.scrub.repairs))
    rows.append(("clean", report.clean))
    _print_rows(rows, out)


def cmd_checkpoint(args: argparse.Namespace, out: TextIO) -> int:
    durable, report = DurableTree.recover(
        args.directory, VARIANTS[args.variant], _config(args)
    )
    try:
        count = durable.checkpoint()
    finally:
        durable.close()
    print(f"recovered {len(durable)} entries:", file=out)
    print_report(report, out)
    print(f"checkpointed {count} entries; WAL truncated", file=out)
    return 0


def cmd_recover(args: argparse.Namespace, out: TextIO) -> int:
    durable, report = DurableTree.recover(
        args.directory, VARIANTS[args.variant], _config(args),
        scrub=not args.no_scrub,
    )
    violations: list[str] = (
        [] if args.no_scrub else durable.check(check_min_fill=False)
    )
    durable.close()
    print(f"recovered {len(durable)} entries:", file=out)
    print_report(report, out)
    if report.scrub is not None:
        for issue in report.scrub.issues:
            print(f"  - {issue}", file=out)
    for violation in violations:
        print(f"  ! {violation}", file=out)
    return 0 if report.clean and not violations else 1


def cmd_promote(args: argparse.Namespace, out: TextIO) -> int:
    from ..replication import Primary

    durable, _ = DurableTree.recover(
        args.directory, VARIANTS[args.variant], _config(args), scrub=False
    )
    scrub_report = durable.scrub()
    old_epoch = read_epoch(args.directory)
    primary = Primary(
        durable, epoch=old_epoch + 1, node_id=args.directory.name
    )
    count = primary.checkpoint()
    primary.close()
    # The directory is no longer a follower of anyone.
    (args.directory / CURSOR_FILENAME).unlink(missing_ok=True)
    print(f"promoted {args.directory}: epoch {old_epoch} -> "
          f"{primary.epoch}", file=out)
    print(f"  scrub: {len(scrub_report.issues)} issue(s), "
          f"{scrub_report.repairs} repair(s)", file=out)
    print(f"  checkpointed {count} entries; existing replicas must "
          "re-bootstrap", file=out)
    return 0


def cmd_inspect(args: argparse.Namespace, out: TextIO) -> int:
    from ..core.scrubber import QUARANTINE_DIRNAME

    directory = args.directory
    if not directory.exists():
        print(f"{directory}: no such directory", file=out)
        return 1
    cursor_path = directory / CURSOR_FILENAME
    role = "replica" if cursor_path.exists() else "primary"
    rows: list[tuple[str, Any]] = [
        ("role", role), ("epoch", read_epoch(directory)),
    ]
    if cursor_path.exists():
        try:
            epoch_s, seg_s, off_s = cursor_path.read_text().split()
            rows.append(("applied_lsn", f"{seg_s}:{off_s} "
                                        f"(tenure {epoch_s})"))
        except ValueError:
            rows.append(("applied_lsn", "unreadable"))
    snapshot = directory / SNAPSHOT_NAME
    if snapshot.exists():
        rows.append(("snapshot", f"{snapshot.stat().st_size} bytes"))
    else:
        rows.append(("snapshot", "none"))
    wal_dir = directory / WAL_DIRNAME
    segments = segment_paths(wal_dir) if wal_dir.exists() else []
    wal_bytes = sum(p.stat().st_size for p in segments)
    rows.append(("wal", f"{len(segments)} segment(s), {wal_bytes} bytes"))
    first = first_position(wal_dir) if wal_dir.exists() else None
    rows.append(("wal first position", first if first else "empty"))
    qdir = directory / QUARANTINE_DIRNAME
    quarantined = (
        sum(1 for p in qdir.iterdir() if p.is_file()) if qdir.is_dir() else 0
    )
    rows.append(("quarantine", f"{quarantined} artifact(s)"))
    _print_rows(rows, out)
    return 0


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    from ..core.scrubber import QUARANTINE_DIRNAME, verify_artifacts

    directory = args.directory
    if not directory.exists():
        print(f"{directory}: no such directory", file=out)
        return 1
    results = verify_artifacts(directory)
    damaged = []
    for artifact in sorted(results):
        issues = results[artifact]
        # "note:" entries describe expected conditions (a torn tail on
        # the final segment is an in-flight append at crash time that
        # recovery trims); anything else is real damage.
        fatal = [issue for issue in issues if not issue.startswith("note:")]
        verdict = "CORRUPT" if fatal else ("ok" if not issues else "ok*")
        print(f"  {artifact}: {verdict}", file=out)
        for issue in issues:
            print(f"    - {issue}", file=out)
        if fatal:
            damaged.append(Path(artifact))
    if args.quarantine and damaged:
        qdir = directory / QUARANTINE_DIRNAME
        qdir.mkdir(exist_ok=True)
        for path in damaged:
            dest = qdir / f"{path.name}.cli"
            shutil.copy2(path, dest)
            print(f"  quarantined -> {dest}", file=out)
    print(f"{len(results)} artifact(s) checked, {len(damaged)} damaged",
          file=out)
    return 1 if damaged else 0


COMMANDS = {
    "serve": cmd_serve,
    "get": cmd_get,
    "put": cmd_put,
    "del": cmd_del,
    "scan": cmd_scan,
    "status": cmd_status,
    "checkpoint": cmd_checkpoint,
    "recover": cmd_recover,
    "promote": cmd_promote,
    "inspect": cmd_inspect,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out)
    except NetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
