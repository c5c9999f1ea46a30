"""``quit-durability`` — operate the crash-safety layer.

Subcommands over a durability directory (``snapshot.quit`` +
``wal/wal-*.seg``, as written by :class:`repro.core.DurableTree`):

* ``checkpoint DIR`` — recover the state, write a fresh v3 snapshot,
  truncate the WAL;
* ``recover DIR`` — rebuild the tree and print the
  :class:`~repro.core.RecoveryReport` (exit status 1 when damage was
  found and repaired, 0 when clean);
* ``scrub DIR`` — recover without the implicit scrub, then audit the
  fast-path metadata explicitly and print what was repaired;
* ``replicate DIR`` — serve DIR as a replication primary with *k*
  in-process replicas, ingest a demo workload, and report each
  replica's applied position (``--serve`` keeps running until
  SIGTERM/SIGINT, then checkpoints and closes the WAL before exiting);
* ``promote DIR`` — turn a (former) replica directory into a primary:
  scrub, bump the epoch, checkpoint;
* ``status DIR`` — inspect a node directory without recovering it:
  role, epoch, cursor, snapshot and WAL footprint, quarantine;
* ``verify DIR`` — offline CRC verification of every artifact (the
  scrubber's check, without recovering or mutating anything); with
  ``--quarantine``, damaged artifacts are copied aside as evidence.

The process installs SIGTERM/SIGINT handlers for the long-running
commands so an orderly ``kill`` produces a checkpointed, truncated-WAL
directory instead of a replay-heavy one (exit status 0).

Examples::

    quit-durability recover /var/lib/quit/state
    quit-durability replicate /var/lib/quit/state --replicas 2 --serve
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import threading
from pathlib import Path
from typing import Optional, Sequence

from ..core import DurableTree, RecoveryReport, TreeConfig
from ..core.durable import SNAPSHOT_NAME, WAL_DIRNAME
from ..core.scrubber import QUARANTINE_DIRNAME, verify_artifacts
from ..core.wal import first_position, replay_wal, segment_paths
from ..replication import (
    CURSOR_FILENAME,
    InProcessTransport,
    Primary,
    Replica,
    TransportChaos,
    read_epoch,
)
from .harness import VARIANTS


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for quit-durability."""
    parser = argparse.ArgumentParser(
        prog="quit-durability",
        description="Checkpoint, recover, scrub, replicate, and verify "
                    "the crash-safe durability layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--variant", default="QuIT", choices=sorted(VARIANTS),
            help="tree variant to rebuild into (default: QuIT)",
        )
        p.add_argument(
            "--leaf-capacity", type=int, default=None,
            help="node capacity override (default: from the snapshot)",
        )

    cp = sub.add_parser(
        "checkpoint",
        help="recover DIR, write a fresh snapshot, truncate the WAL",
    )
    cp.add_argument("directory", type=Path)
    add_common(cp)

    rec = sub.add_parser(
        "recover", help="rebuild from DIR and print the recovery report"
    )
    rec.add_argument("directory", type=Path)
    add_common(rec)
    rec.add_argument(
        "--no-scrub", action="store_true",
        help="skip the fast-path metadata audit after replay",
    )

    sc = sub.add_parser(
        "scrub",
        help="recover DIR, audit fast-path metadata, print repairs",
    )
    sc.add_argument("directory", type=Path)
    add_common(sc)

    rep = sub.add_parser(
        "replicate",
        help="serve DIR as a primary with in-process replicas",
    )
    rep.add_argument("directory", type=Path)
    add_common(rep)
    rep.add_argument(
        "--replicas", type=int, default=2,
        help="replica count (default: 2)",
    )
    rep.add_argument(
        "--replica-root", type=Path, default=None,
        help="where replica directories live "
             "(default: <DIR>-replicas)",
    )
    rep.add_argument(
        "--ops", type=int, default=1000,
        help="demo writes to stream through the cluster (default: 1000)",
    )
    rep.add_argument(
        "--required-acks", type=int, default=0,
        help="replicas that must apply a write before it is "
             "acknowledged (default: 0 = asynchronous)",
    )
    rep.add_argument(
        "--chaos-drop", type=float, default=0.0, metavar="P",
        help="per-fetch probability a replica's fetch is dropped",
    )
    rep.add_argument(
        "--seed", type=int, default=0, help="chaos RNG seed",
    )
    rep.add_argument(
        "--fsync", default="none",
        choices=("always", "group", "interval", "none"),
        help="primary WAL fsync policy (default: none)",
    )
    rep.add_argument(
        "--serve", action="store_true",
        help="keep serving after the demo workload until SIGTERM/SIGINT "
             "(then checkpoint, close the WAL, and exit 0)",
    )

    pr = sub.add_parser(
        "promote",
        help="turn a (former) replica directory into a primary",
    )
    pr.add_argument("directory", type=Path)
    add_common(pr)

    st = sub.add_parser(
        "status",
        help="inspect a node directory: role, epoch, cursor, footprint",
    )
    st.add_argument("directory", type=Path)

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


def _install_shutdown_handlers(stop: threading.Event) -> None:
    """Route SIGTERM/SIGINT into ``stop`` for a graceful shutdown.

    Signal handlers can only be installed from the main thread; called
    anywhere else (e.g. a test runner worker) this is a silent no-op
    and the command simply runs to completion.
    """

    def _handler(signum, frame):  # pragma: no cover - signal context
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)
    except ValueError:
        pass


def _config(args: argparse.Namespace) -> Optional[TreeConfig]:
    if args.leaf_capacity is None:
        return None
    return TreeConfig(
        leaf_capacity=args.leaf_capacity,
        internal_capacity=args.leaf_capacity,
    )


def print_report(report: RecoveryReport, out) -> None:
    """Render a recovery report as aligned key/value lines."""
    rows = [
        ("snapshot loaded", report.snapshot_loaded),
        ("snapshot entries", report.snapshot_entries),
        ("WAL segments scanned", report.segments_scanned),
        ("WAL records replayed", report.records_replayed),
        ("entries replayed", report.entries_replayed),
        ("checksum failures", report.checksum_failures),
        ("torn tail", report.truncated_tail),
        ("tail bytes dropped", report.tail_bytes_dropped),
        ("unknown records skipped", report.unknown_records),
    ]
    if report.scrub is not None:
        rows.append(("scrub issues", len(report.scrub.issues)))
        rows.append(("scrub repairs", report.scrub.repairs))
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"  {label:<{width}}  {value}", file=out)
    print(f"  {'clean':<{width}}  {report.clean}", file=out)


def cmd_checkpoint(args: argparse.Namespace, out) -> int:
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


def cmd_recover(args: argparse.Namespace, out) -> int:
    durable, report = DurableTree.recover(
        args.directory, VARIANTS[args.variant], _config(args),
        scrub=not args.no_scrub,
    )
    durable.close()
    print(f"recovered {len(durable)} entries:", file=out)
    print_report(report, out)
    return 0 if report.clean else 1


def cmd_scrub(args: argparse.Namespace, out) -> int:
    durable, _ = DurableTree.recover(
        args.directory, VARIANTS[args.variant], _config(args), scrub=False
    )
    report = durable.scrub()
    durable.close()
    print(f"{report.variant}: {len(report.issues)} issue(s), "
          f"{report.repairs} repair(s)", file=out)
    for issue in report.issues:
        print(f"  - {issue}", file=out)
    violations = durable.check(check_min_fill=False)
    for violation in violations:
        print(f"  ! {violation}", file=out)
    return 0 if report.clean and not violations else 1


def _print_cluster(primary: Primary, replicas, out) -> None:
    tail = primary.tail_position()
    health = primary.durable.health.state.value
    print(f"primary {primary.node_id}: epoch {primary.epoch}, "
          f"{len(primary)} entries, health {health}, WAL tail {tail}",
          file=out)
    for replica in replicas:
        durable = replica.durable
        rep_health = durable.health.state.value if durable else "n/a"
        print(f"  {replica.name}: applied_lsn {replica.position} "
              f"lag {replica.lag_bytes}B health {rep_health} "
              f"({replica.records_applied} records applied)", file=out)


def cmd_replicate(args: argparse.Namespace, out) -> int:
    stop = threading.Event()
    _install_shutdown_handlers(stop)
    tree_class = VARIANTS[args.variant]
    config = _config(args)
    durable, _ = DurableTree.recover(
        args.directory, tree_class, config, fsync=args.fsync
    )
    primary = Primary(
        durable, node_id="primary", required_acks=args.required_acks
    )
    replica_root = args.replica_root
    if replica_root is None:
        replica_root = args.directory.parent / (
            args.directory.name + "-replicas"
        )
    replicas = []
    for i in range(args.replicas):
        chaos = None
        if args.chaos_drop > 0:
            chaos = TransportChaos(
                drop_probability=args.chaos_drop, seed=args.seed + i
            )
        replica = Replica(
            replica_root / f"replica{i}",
            InProcessTransport(primary, chaos=chaos),
            tree_class=tree_class,
            config=config,
            name=f"replica{i}",
        )
        replica.bootstrap()
        primary.attach(replica)
        replicas.append(replica)
    base = len(primary)
    print(f"replicating {args.directory} to {len(replicas)} replica(s) "
          f"under {replica_root} (required_acks={args.required_acks})",
          file=out)
    out.flush()
    written = 0
    try:
        for i in range(args.ops):
            if stop.is_set():
                break
            primary.insert(base + i, i)
            written += 1
        tail = primary.tail_position()
        for replica in replicas:
            replica.catch_up(tail, max_rounds=64)
        print(f"streamed {written} write(s)", file=out)
        _print_cluster(primary, replicas, out)
        if args.serve:
            print(f"serving until SIGTERM/SIGINT (pid {os.getpid()})",
                  file=out)
            out.flush()
            while not stop.wait(0.1):
                pass
    finally:
        # Graceful shutdown: leave a checkpointed directory behind so
        # the next start replays (nearly) nothing.
        count = primary.checkpoint()
        primary.close()
        for replica in replicas:
            replica.close()
    print(f"graceful shutdown: checkpointed {count} entries; "
          "WAL truncated", file=out)
    return 0


def cmd_promote(args: argparse.Namespace, out) -> int:
    tree_class = VARIANTS[args.variant]
    durable, _ = DurableTree.recover(
        args.directory, tree_class, _config(args), scrub=False
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


def cmd_status(args: argparse.Namespace, out) -> int:
    directory = args.directory
    if not directory.exists():
        print(f"{directory}: no such directory", file=out)
        return 1
    cursor_path = directory / CURSOR_FILENAME
    role = "replica" if cursor_path.exists() else "primary"
    rows = [("role", role), ("epoch", read_epoch(directory))]
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
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"  {label:<{width}}  {value}", file=out)
    return 0


def cmd_verify(args: argparse.Namespace, out) -> int:
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


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "checkpoint": cmd_checkpoint,
        "recover": cmd_recover,
        "scrub": cmd_scrub,
        "replicate": cmd_replicate,
        "promote": cmd_promote,
        "status": cmd_status,
        "verify": cmd_verify,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
