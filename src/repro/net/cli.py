"""``quit-serve`` — serve a durable tree over the network, and talk to one.

Server side::

    quit-serve serve /var/lib/quit/state --port 7421 --fsync group

recovers the directory, binds, and serves until SIGTERM/SIGINT, then
performs a **graceful drain**: stop accepting, settle every in-flight
ticket, checkpoint, exit 0.  ``--replicas K --required-acks Q`` serves
the directory as a replication primary with in-process replicas (demo /
test topology, like ``quit-durability replicate``), with ``--ack-deadline``
bounding every quorum wait.

Client side (against a running server)::

    quit-serve put  HOST:PORT KEY VALUE
    quit-serve get  HOST:PORT KEY
    quit-serve del  HOST:PORT KEY
    quit-serve scan HOST:PORT START END [--limit N]
    quit-serve status HOST:PORT

Keys and values are parsed as Python literals when possible (``42`` is
an int) and fall back to strings, matching what the tree stores.
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import os
import signal
import sys
from pathlib import Path
from typing import Any, Optional, Sequence, TextIO

from ..core import TREE_VARIANTS, DurableTree, TreeConfig
from .client import NetError, QuitClient
from .server import QuitServer

#: ``--variant`` choices: the paper's variants keyed by ``cls.name``.
VARIANTS: dict[str, type] = {cls.name: cls for cls in TREE_VARIANTS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quit-serve",
        description="Serve a QuIT durability directory over a socket, "
                    "or run client ops against a running server.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    srv.add_argument(
        "--variant", default="QuIT", choices=sorted(VARIANTS),
        help="tree variant to recover into (default: QuIT)",
    )
    srv.add_argument(
        "--leaf-capacity", type=int, default=None,
        help="node capacity override (default: from the snapshot)",
    )
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
    durable, report = DurableTree.recover(
        args.directory, tree_class, _config(args), fsync=args.fsync
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


COMMANDS = {
    "serve": cmd_serve,
    "get": cmd_get,
    "put": cmd_put,
    "del": cmd_del,
    "scan": cmd_scan,
    "status": cmd_status,
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
