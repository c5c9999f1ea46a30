"""Background integrity scrub: CRC-verify, quarantine, self-heal.

Silent bit rot is the one disk fault fsync cannot answer for: the ack
was honest when it was given, the medium decayed afterwards, and nobody
notices until the bytes are needed — at recovery, or when a replica
fetches them.  The :class:`Scrubber` closes that window by re-reading
durable artifacts *while the tree is healthy*:

* **closed WAL segments** are re-parsed record by record against their
  CRC32s (the active segment is deliberately skipped: its tail is in
  flux, and replay's torn-tail tolerance owns it);
* **the checkpoint snapshot** is verified with
  :func:`repro.core.persist.verify_snapshot`: per-record CRC32 for v3
  (the WAL's framing), per-line CRC32 for legacy v2, and the same
  structure checks ``load_tree`` applies.

Verification runs under the tree's checkpoint gate (shared side) so a
concurrent checkpoint cannot unlink a segment mid-read, and is *paced*:
each cycle verifies at most ``max_bytes_per_cycle`` bytes, resuming
from a rolling cursor, so a scrub never monopolizes the disk the
writers are using.

When corruption is found the artifact is first **quarantined** (copied
into ``<directory>/quarantine/`` as evidence — never destroyed in
place), then **repaired**:

* with a ``peer_heal`` hook (a ``Replica`` supplies
  ``heal_from_peer``), the node rebuilds itself from its replication
  peer via the existing snapshot + WAL-cursor machinery;
* otherwise (a primary, or a standalone tree) a checkpoint rewrites
  the snapshot from the live in-memory state — which already applied
  every record the rotted artifact held — and truncates the damaged
  WAL, which also restores a degraded :class:`HealthMonitor`.

``scrub.cycle`` is the outermost lock in the sanitizer's
``LOCK_ORDER``: a repair may take the replica lock, the checkpoint
gate, and everything below them.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from ..concurrency import sanitizer
from .durable import SNAPSHOT_NAME, WAL_DIRNAME, DurableTree
from .health import ReadOnlyError
from .persist import verify_snapshot
from .wal import (
    GAP,
    _follows,
    _read_segment,
    _segment_seq,
    is_damage,
    parse_segment,
    segment_paths,
)

QUARANTINE_DIRNAME = "quarantine"


@dataclass
class ScrubCycleReport:
    """What one scrub cycle checked, found, and fixed.

    Attributes:
        cycle: 1-based cycle number.
        segments_checked: closed WAL segments verified this cycle.
        bytes_checked: segment bytes read and CRC-verified.
        snapshot_checked: the checkpoint snapshot was verified.
        issues: human-readable descriptions of every corruption found.
        corrupt_paths: the artifacts those issues live in.
        quarantined: quarantine copies made (paths as strings).
        repaired: a local checkpoint rewrote clean state.
        peer_repaired: the peer-heal hook rebuilt this node.
    """

    cycle: int
    segments_checked: int = 0
    bytes_checked: int = 0
    snapshot_checked: bool = False
    issues: list[str] = field(default_factory=list)
    corrupt_paths: list[Path] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    repaired: bool = False
    peer_repaired: bool = False

    @property
    def clean(self) -> bool:
        """True when nothing was corrupt."""
        return not self.issues


class Scrubber:
    """Paced background integrity verification for a durable tree.

    Args:
        durable: the tree to scrub — either a :class:`DurableTree` or a
            zero-arg callable returning the *current* one (a replica's
            durable tree is replaced on bootstrap, so replicas pass
            ``lambda: replica.durable``).
        interval: seconds between background cycles (:meth:`start`).
        max_bytes_per_cycle: pacing budget — segment bytes verified per
            cycle before the cursor parks until the next one.
        peer_heal: zero-arg hook that rebuilds this node from its
            replication peer, returning True on success.  Tried before
            (instead of) the local checkpoint repair.
        auto_repair: when True (default) corruption without a working
            peer triggers a local checkpoint to rewrite clean state;
            when False the scrubber only detects and quarantines.
    """

    def __init__(
        self,
        durable: Union[DurableTree, Callable[[], DurableTree]],
        *,
        interval: float = 0.05,
        max_bytes_per_cycle: int = 4 * 1024 * 1024,
        peer_heal: Optional[Callable[[], bool]] = None,
        auto_repair: bool = True,
    ) -> None:
        if callable(durable):
            self._provider: Callable[[], DurableTree] = durable
        else:
            concrete = durable

            def _fixed() -> DurableTree:
                return concrete

            self._provider = _fixed
        self.interval = interval
        self.max_bytes_per_cycle = max(1, max_bytes_per_cycle)
        self.peer_heal = peer_heal
        self.auto_repair = auto_repair
        self._lock = sanitizer.make_lock("scrub.cycle")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._cursor_seq = 0
        self.cycles = 0
        self.segments_checked = 0
        self.bytes_checked = 0
        self.corruptions = 0
        self.quarantines = 0
        self.repairs = 0
        self.peer_repairs = 0
        self.last_report: Optional[ScrubCycleReport] = None
        self.last_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------

    def scrub_once(self, *, full: bool = False) -> ScrubCycleReport:
        """Run one verification (+ quarantine + repair) cycle.

        ``full=True`` rewinds the pacing cursor and ignores the byte
        budget, verifying *every* closed segment plus the snapshot in
        this one cycle — the "scrub everything now" operator action
        (a paced cycle only scans forward from the cursor, so damage
        behind it would otherwise wait for the pass to wrap).
        """
        with self._lock:
            durable = self._provider()
            report = ScrubCycleReport(cycle=self.cycles + 1)
            if full:
                self._cursor_seq = 0
            with durable._gate.read_locked():
                self._verify_gated(durable, report, full=full)
                if report.corrupt_paths:
                    self._quarantine_gated(durable, report)
            self.cycles += 1
            self.segments_checked += report.segments_checked
            self.bytes_checked += report.bytes_checked
            if report.corrupt_paths:
                self.corruptions += len(report.corrupt_paths)
                self.quarantines += len(report.quarantined)
                self._repair(durable, report)
                # Whatever the repair outcome, restart the pass: the
                # segment landscape has changed under the cursor.
                self._cursor_seq = 0
            self.last_report = report
            return report

    def _verify_gated(
        self, durable: DurableTree, report: ScrubCycleReport,
        *, full: bool = False,
    ) -> None:  # holds: scrub.cycle
        """Verify under the shared checkpoint gate (no truncate races).

        Closed segments are immutable while the gate is held shared, so
        any parse damage here is real corruption, not an append race.
        """
        segments = segment_paths(durable.wal.directory)
        closed = segments[:-1]
        eligible = [
            s for s in closed if _segment_seq(s) > self._cursor_seq
        ]
        wrapped = not eligible
        if wrapped:
            eligible = closed
        if wrapped or full or self.cycles == 0:
            # Start of a pass: verify the snapshot alongside the log.
            report.snapshot_checked = True
            snap = durable.snapshot_path
            for issue in verify_snapshot(snap):
                report.issues.append(f"{snap.name}: {issue}")
            if report.issues:
                report.corrupt_paths.append(snap)
        for seg in eligible:
            if not full and report.bytes_checked >= self.max_bytes_per_cycle:
                break
            self._cursor_seq = _segment_seq(seg)
            report.segments_checked += 1
            try:
                data = _read_segment(seg)
            except ReadOnlyError as exc:
                report.issues.append(f"{seg.name}: unreadable: {exc}")
                report.corrupt_paths.append(seg)
                continue
            report.bytes_checked += len(data)
            parse = parse_segment(data)
            if is_damage(parse.stop, newest=False):
                report.issues.append(
                    f"{seg.name}: {parse.stop} at offset {parse.offset} "
                    f"(closed segment: real corruption)"
                )
                report.corrupt_paths.append(seg)

    def _quarantine_gated(
        self, durable: DurableTree, report: ScrubCycleReport
    ) -> None:  # holds: scrub.cycle
        """Copy corrupt artifacts aside as evidence before any repair
        touches them.  Copies, never moves: deleting a middle WAL
        segment would manufacture a sequence gap."""
        qdir = durable.directory / QUARANTINE_DIRNAME
        try:
            qdir.mkdir(exist_ok=True)
        except OSError as exc:  # pragma: no cover - disk truly dead
            self.last_error = exc
            return
        for path in report.corrupt_paths:
            if not path.exists():
                continue
            dst = qdir / f"{path.name}.cycle{report.cycle:06d}"
            try:
                shutil.copy2(path, dst)
            except OSError as exc:
                # Evidence copy is best-effort; the repair matters more.
                self.last_error = exc
                continue
            report.quarantined.append(str(dst))

    def _repair(
        self, durable: DurableTree, report: ScrubCycleReport
    ) -> None:  # holds: scrub.cycle
        """Heal: peer rebuild when available, local checkpoint otherwise.

        Runs outside the checkpoint gate — both repairs take their own
        exclusive locks (``repl.replica`` / the write side of
        ``durable.gate``), which nest correctly inside ``scrub.cycle``.
        """
        if self.peer_heal is not None:
            try:
                healed = self.peer_heal()
            except Exception as exc:
                self.last_error = exc
                healed = False
            if healed:
                self.peer_repairs += 1
                report.peer_repaired = True
                return
        if not self.auto_repair:
            return
        try:
            # The live tree already applied every op the rotted artifact
            # held; snapshotting it and truncating the damaged WAL is a
            # full repair (and restores a degraded HealthMonitor).
            durable.checkpoint()
        except Exception as exc:
            self.last_error = exc
            return
        self.repairs += 1
        report.repaired = True

    # ------------------------------------------------------------------
    # Background thread
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the paced background loop (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="quit-scrubber", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scrub_once()
            except Exception as exc:
                # A scrub failure must not kill the watchdog; record it
                # and keep pacing.
                self.last_error = exc

    def stop(self) -> None:
        """Stop the background loop and join the thread."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "Scrubber":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def verify_artifacts(
    directory: Union[str, Path]
) -> dict[str, list[str]]:
    """Offline CRC verification of a durability directory.

    Checks the snapshot and *every* WAL segment (including the final
    one: offline there is no in-flight append, so its torn tail — a
    normal crash artifact that repair will trim — is reported as a
    ``note:`` rather than a corruption).  Returns ``{artifact:
    [issues]}`` with an empty list per intact artifact; issues starting
    with ``"note:"`` are informational, everything else is damage.
    """
    directory = Path(directory)
    out: dict[str, list[str]] = {}
    snap = directory / SNAPSHOT_NAME
    if snap.exists():
        out[str(snap)] = verify_snapshot(snap)
    segments = segment_paths(directory / WAL_DIRNAME)
    for index, seg in enumerate(segments):
        issues: list[str] = []
        if index and not _follows(segments[index - 1], seg):
            prev = _segment_seq(segments[index - 1])
            issues.append(
                f"{GAP}: follows segment {prev}, expected {prev + 1}"
            )
        try:
            parse = parse_segment(_read_segment(seg))
        except ReadOnlyError as exc:
            issues.append(f"unreadable: {exc}")
        else:
            if is_damage(parse.stop, newest=seg == segments[-1]):
                issues.append(f"{parse.stop} at offset {parse.offset}")
            elif parse.stop is not None:
                issues.append(
                    "note: torn tail (in-flight append at crash; "
                    "recovery's repair will trim it)"
                )
        out[str(seg)] = issues
    return out
