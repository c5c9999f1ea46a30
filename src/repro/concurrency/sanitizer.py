"""Runtime sanitizers: lock discipline auditing and event-loop stalls.

The repo's one confirmed production-grade bug so far — the
lost-acknowledged-write race between ``DurableTree.checkpoint`` and
in-flight mutations — was a lock-discipline error.  This module makes
that class of bug *observable at runtime*: when enabled (environment
variable ``QUIT_SANITIZE=1``, or :func:`enable` before the locks are
constructed), every named lock in the package records per-thread
acquisition stacks and feeds a global lock-order graph.

What it detects:

* **lock-order inversions** — acquiring lock *B* while holding *A*
  after some thread has ever acquired *A* while holding *B* (the
  classic deadlock recipe), and any acquisition that contradicts the
  canonical :data:`LOCK_ORDER`;
* **self-reacquisition** — taking a named lock the current thread
  already holds (none of the package's locks are reentrant; for the
  striped leaf pool this also catches unordered stripe-stripe nesting);
* **fsync-under-lock hazards** — reaching an ``fsync`` call site while
  holding one of the *short-critical-section* locks
  (:data:`FSYNC_UNSAFE`).  Coarse gates (``durable.gate``,
  ``concurrent.structure``, ``repl.replica``, ``wal.append``) are
  *designed* to be held across fsync — that is what makes
  log-then-apply atomic against checkpoints — but the metadata mutex
  and leaf stripes exist precisely to stay microseconds-short, and an
  fsync under them would stall every reader for a disk flush.

Violations are recorded, not raised: a sanitizer that throws from
inside a lock acquisition would alter the very interleavings it is
auditing.  Test suites drain them via :func:`take_violations` (the
shared conftest asserts the drain is empty after every test when the
sanitizer is on).

Beyond locks, this module is also the runtime half of the **async
discipline** contract (the static half is the ``quit-check`` rule
``async-blocking``): :data:`BLOCKING_CALLS` / :data:`BLOCKING_METHODS`
name every call the event-loop thread must never make inline, and
:class:`LoopStallWatchdog` observes real loops — a heartbeat callback
timestamps loop liveness while a monitor thread samples it; a stall
past the threshold is recorded as a ``loop-stall`` violation carrying
the loop thread's *current frame* (the code actually blocking).

This module deliberately imports nothing from the rest of the package
so that ``repro.concurrency.locks`` (and through it ``repro.core``)
can depend on it without cycles.
"""

from __future__ import annotations

import _thread
import linecache
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps imports light
    import asyncio

#: Canonical lock-acquisition order, outermost first.  A thread holding
#: a lock may only acquire locks that appear *later* in this list.  The
#: static analyzer (``repro.lint`` rule ``lock-discipline``) checks the same
#: table against the AST, so the documented discipline, the runtime
#: sanitizer, and ``quit-check`` can never drift apart.
LOCK_ORDER: tuple[str, ...] = (
    "scrub.cycle",         # Scrubber._lock: one scrub/repair cycle at a time
    "repl.replica",        # Replica._lock: held around apply + cursor persist
    "repl.primary.meta",   # Primary._meta_lock: snapshot/base consistency
    "durable.gate",        # DurableTree._gate: log+apply vs checkpoint
    "concurrent.structure",  # ConcurrentTree._structure: structural RW lock
    "concurrent.leaf",     # ConcurrentTree._leaf_locks: striped leaf mutexes
    "concurrent.meta",     # ConcurrentTree._meta: fast-path admission mutex
    "wal.group.queue",     # WriteAheadLog._group_lock: group-commit queue
    "wal.append",          # WriteAheadLog._lock: append/rotate/truncate
    "repl.epoch",          # EpochRegistry._lock: epoch counter
    "health",              # HealthMonitor._lock: state-machine transitions
    "faults",              # testing.faults._lock: innermost everywhere
)

_RANK: dict[str, int] = {name: i for i, name in enumerate(LOCK_ORDER)}

#: Locks that must never be held across an ``fsync``: they guard
#: short critical sections on hot paths.  The coarse-grained gates are
#: intentionally absent — holding them across the WAL/snapshot fsync is
#: the durability design, not a hazard.
FSYNC_UNSAFE: frozenset[str] = frozenset(
    {
        "concurrent.leaf",
        "concurrent.meta",
        "repl.primary.meta",
        "repl.epoch",
        # The group-commit queue lock is held only for enqueue/drain;
        # an fsync under it would stall every pipelined writer.
        "wal.group.queue",
        # Health transitions and the fault-arming table are consulted on
        # every instrumented I/O call — they must decide and release, not
        # ride along into the disk.
        "health",
        "faults",
    }
)


#: Canonical blocking-call table — the single source of truth for the
#: async-discipline contract.  Keys are *dotted call names* as they
#: appear in source (``os.fsync``) or bare builtins (``open``); values
#: say why the call must never run inline on an event-loop thread.  The
#: static rule (``repro.lint`` rule ``async-blocking``) flags these
#: reachable from ``async def`` bodies; :class:`LoopStallWatchdog` uses
#: the same table to label the offending frame of an observed stall, so
#: the documented contract, the linter, and the runtime watchdog cannot
#: drift apart.  The only sanctioned escapes are an executor hop
#: (``loop.run_in_executor`` / ``asyncio.to_thread``) or an explicit
#: ``# loop-safe: <reason>`` pragma at the call site.
BLOCKING_CALLS: dict[str, str] = {
    "os.fsync": "disk flush",
    "os.fdatasync": "disk flush",
    "os.replace": "directory metadata write",
    "os.write": "raw file write",
    "os.read": "raw file read",
    "time.sleep": "thread sleep",
    "open": "file open (disk I/O)",
    "socket.create_connection": "blocking connect",
}

#: Method-name half of the table: attribute calls that block on *any*
#: receiver (``ticket.wait``, ``lock.acquire``, ``sock.sendall``, a
#: backend ``drain_acks``/``checkpoint``).  An ``await``-ed call is
#: exempt — ``await event.wait()`` is the asyncio flavor, and the
#: executor bridges pass these as references, never as inline calls.
BLOCKING_METHODS: dict[str, str] = {
    "fsync": "disk flush",
    "sleep": "thread sleep",
    "wait": "blocking wait (ticket / event / condition)",
    "acquire": "sync lock acquire",
    "join": "thread join",
    "drain_acks": "quorum drain",
    "checkpoint": "snapshot write + fsync",
    "scrub": "artifact CRC scan (file reads)",
    "sendall": "blocking socket send",
    "recv": "blocking socket receive",
    "connect": "blocking socket connect",
    "accept": "blocking socket accept",
    "read_frame_blocking": "blocking frame read",
}


def classify_blocking_frame(filename: str, lineno: int, func: str) -> Optional[str]:
    """Label a stalled frame against the canonical blocking tables.

    Matches the frame's function name against :data:`BLOCKING_METHODS`
    and its current source line against :data:`BLOCKING_CALLS` (the
    builtins — ``time.sleep``, ``os.fsync`` — never appear as Python
    frames, so the *calling* line is what the watchdog sees).  Returns
    the table's reason, or ``None`` for a stall outside the tables
    (still a violation: the loop was blocked either way).
    """
    if func in BLOCKING_METHODS:
        return BLOCKING_METHODS[func]
    line = linecache.getline(filename, lineno)
    for name, reason in BLOCKING_CALLS.items():
        if name in line:
            return reason
    return None


@dataclass
class Violation:
    """One detected sanitizer violation.

    Attributes:
        kind: ``"order-inversion"``, ``"rank-inversion"``,
            ``"self-reacquire"``, ``"fsync-under-lock"``, or
            ``"loop-stall"``.
        message: human-readable description.
        held: locks the offending thread held, outermost first.
        stack: formatted acquisition stack at the violation site.
        other_stack: for graph inversions, the stack of the earlier,
            opposite-order acquisition.
    """

    kind: str
    message: str
    held: tuple[str, ...] = ()
    stack: str = ""
    other_stack: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.kind}] {self.message}"


def _env_enabled() -> bool:
    return os.environ.get("QUIT_SANITIZE", "").strip() not in ("", "0")


_enabled: bool = _env_enabled()

_state_lock = threading.Lock()
_tls = threading.local()
#: Observed nesting edges: (outer, inner) -> acquisition stack of the
#: first time the edge was seen (for inversion reports).
_edges: dict[tuple[str, str], str] = {}
_violations: list[Violation] = []
_acquisitions: int = 0
_fsync_checks: int = 0


def enabled() -> bool:
    """Whether sanitized locks are being handed out *and* audited."""
    return _enabled


def enable() -> None:
    """Turn the sanitizer on (call before constructing the locks)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the sanitizer off (already-sanitized locks keep reporting
    only if re-enabled; fresh factories return plain locks)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Clear the order graph, violations, and counters (test isolation)."""
    global _acquisitions, _fsync_checks
    with _state_lock:
        _edges.clear()
        _violations.clear()
        _acquisitions = 0
        _fsync_checks = 0


def _held() -> list[str]:
    held = getattr(_tls, "held", None)
    if held is None:
        held = []
        _tls.held = held
    return held


def held_locks() -> tuple[str, ...]:
    """Named locks the calling thread currently holds, outermost first."""
    return tuple(_held())


def violations() -> list[Violation]:
    """Snapshot of every recorded violation."""
    with _state_lock:
        return list(_violations)


def take_violations() -> list[Violation]:
    """Drain: return all recorded violations and clear the list."""
    with _state_lock:
        out = list(_violations)
        _violations.clear()
        return out


def counters() -> dict[str, int]:
    """Instrumentation volume (sanity check that auditing really ran)."""
    with _state_lock:
        return {
            "acquisitions": _acquisitions,
            "fsync_checks": _fsync_checks,
            "edges": len(_edges),
            "violations": len(_violations),
        }


def _record(violation: Violation) -> None:
    with _state_lock:
        _violations.append(violation)


def before_acquire(name: str) -> None:
    """Audit an imminent acquisition of ``name`` by this thread.

    Called *before* blocking on the underlying primitive so an
    inversion that would deadlock is recorded rather than hung on.
    """
    global _acquisitions
    held = _held()
    stack = "".join(traceback.format_stack(limit=12)[:-1])
    with _state_lock:
        _acquisitions += 1
    if name in held:
        _record(
            Violation(
                kind="self-reacquire",
                message=(
                    f"thread re-acquires {name!r} it already holds "
                    f"(held: {' -> '.join(held)})"
                ),
                held=tuple(held),
                stack=stack,
            )
        )
    for outer in held:
        if outer == name:
            continue
        rank_outer = _RANK.get(outer)
        rank_inner = _RANK.get(name)
        if (
            rank_outer is not None
            and rank_inner is not None
            and rank_outer >= rank_inner
        ):
            _record(
                Violation(
                    kind="rank-inversion",
                    message=(
                        f"acquiring {name!r} while holding {outer!r} "
                        f"contradicts LOCK_ORDER "
                        f"({outer} must nest inside {name})"
                    ),
                    held=tuple(held),
                    stack=stack,
                )
            )
        with _state_lock:
            reverse = _edges.get((name, outer))
            if reverse is not None and (outer, name) not in _edges:
                _violations.append(
                    Violation(
                        kind="order-inversion",
                        message=(
                            f"{outer!r} -> {name!r} inverts the "
                            f"previously observed order "
                            f"{name!r} -> {outer!r}"
                        ),
                        held=tuple(held),
                        stack=stack,
                        other_stack=reverse,
                    )
                )
            _edges.setdefault((outer, name), stack)


def after_acquire(name: str) -> None:
    """Push ``name`` onto the thread's held stack (acquisition won)."""
    _held().append(name)


def on_release(name: str) -> None:
    """Pop the most recent occurrence of ``name`` from the held stack."""
    held = _held()
    for i in range(len(held) - 1, -1, -1):
        if held[i] == name:
            del held[i]
            return


def note_fsync(site: str) -> None:
    """Audit an fsync call site against the locks currently held.

    No-op unless the sanitizer is enabled; instrumented modules guard
    the call with :func:`enabled` anyway to keep the production path a
    single module-attribute read.
    """
    global _fsync_checks
    if not _enabled:
        return
    with _state_lock:
        _fsync_checks += 1
    held = _held()
    hazardous = [name for name in held if name in FSYNC_UNSAFE]
    if hazardous:
        _record(
            Violation(
                kind="fsync-under-lock",
                message=(
                    f"fsync at {site!r} while holding short-critical-"
                    f"section lock(s) {', '.join(hazardous)} "
                    f"(held: {' -> '.join(held)})"
                ),
                held=tuple(held),
                stack="".join(traceback.format_stack(limit=12)[:-1]),
            )
        )


class SanitizedLock:
    """A ``threading.Lock`` wrapper that reports to the sanitizer.

    Drop-in for the mutex subset the package uses: ``acquire`` /
    ``release`` / context manager / ``locked``.
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        before_acquire(self.name)
        got = self._lock.acquire(blocking, timeout)
        if got:
            after_acquire(self.name)
        return got

    def release(self) -> None:
        on_release(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizedLock({self.name!r})"


#: What the lock factories hand out: a plain mutex in production, a
#: :class:`SanitizedLock` under ``QUIT_SANITIZE=1``.  (``_thread.LockType``
#: is the *instance* type of ``threading.Lock()`` — ``threading.Lock``
#: itself is a factory function, not a type.)
LockLike = Union["SanitizedLock", _thread.LockType]


def make_lock(name: str) -> LockLike:
    """A mutex for ``name``: sanitized when auditing, plain otherwise."""
    if _enabled:
        return SanitizedLock(name)
    return threading.Lock()


# ----------------------------------------------------------------------
# Event-loop stall watchdog
# ----------------------------------------------------------------------

def _env_stall_threshold() -> float:
    raw = os.environ.get("QUIT_STALL_THRESHOLD", "").strip()
    if not raw:
        return 0.5
    try:
        return max(0.001, float(raw))
    except ValueError:
        return 0.5


class LoopStallWatchdog:
    """Detect event-loop-thread stalls and report the offending frame.

    A *heartbeat* callback re-schedules itself on the watched loop every
    ``threshold / 4`` seconds, timestamping loop liveness; a daemon
    *monitor* thread samples that timestamp.  When the heartbeat goes
    stale past ``threshold`` while the loop reports running, the loop
    thread is blocked inside a callback — the monitor captures that
    thread's current stack via ``sys._current_frames()``, labels the
    innermost frame against :data:`BLOCKING_CALLS` /
    :data:`BLOCKING_METHODS`, and records a ``loop-stall``
    :class:`Violation`.  One report per stall episode: the next
    heartbeat re-arms detection.

    The watchdog never raises into the loop and adds only a timestamp
    store per interval, so it is safe to leave armed across whole test
    suites (CI runs the network suite under it).  ``install`` must be
    called from the loop thread; ``uninstall`` is thread-safe and
    idempotent, and a loop that simply stops or closes silences the
    monitor without a report.
    """

    def __init__(
        self,
        threshold: Optional[float] = None,
        interval: Optional[float] = None,
    ) -> None:
        self.threshold = _env_stall_threshold() if threshold is None else threshold
        self.interval = (
            max(0.005, self.threshold / 4.0) if interval is None else interval
        )
        self.stalls_reported = 0
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._thread_id: Optional[int] = None
        self._last_beat = 0.0
        self._reported_beat = -1.0
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    def install(self, loop: "asyncio.AbstractEventLoop") -> "LoopStallWatchdog":
        """Arm on ``loop`` (call from the loop thread) and start the
        monitor.  Returns ``self`` for chaining."""
        self._loop = loop
        self._thread_id = threading.get_ident()
        self._last_beat = time.monotonic()
        self._stop.clear()
        loop.call_soon(self._beat)
        self._monitor = threading.Thread(
            target=self._watch, name="quit-loop-watchdog", daemon=True
        )
        self._monitor.start()
        return self

    def uninstall(self) -> None:
        """Stop monitoring (thread-safe, idempotent).  The heartbeat
        callback sees the stop flag and stops re-scheduling itself."""
        self._stop.set()
        monitor = self._monitor
        if monitor is not None and monitor is not threading.current_thread():
            monitor.join(timeout=2.0)
        self._monitor = None

    # -- loop side ------------------------------------------------------

    def _beat(self) -> None:
        if self._stop.is_set():
            return
        self._last_beat = time.monotonic()
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_later(self.interval, self._beat)
            except RuntimeError:  # pragma: no cover - loop shutting down
                pass

    # -- monitor side ---------------------------------------------------

    def _watch(self) -> None:
        poll = max(0.001, self.interval / 2.0)
        while not self._stop.wait(poll):
            loop = self._loop
            if loop is None or loop.is_closed():
                return
            if not loop.is_running():
                # Between run_until_complete calls / after shutdown:
                # silence, and restart the staleness clock for the next
                # run so the pause is never misread as a stall.
                self._last_beat = time.monotonic()
                continue
            beat = self._last_beat
            stalled = time.monotonic() - beat
            if stalled < self.threshold or beat == self._reported_beat:
                continue
            self._reported_beat = beat
            self._report(stalled)

    def _report(self, stalled: float) -> None:
        self.stalls_reported += 1
        frame = sys._current_frames().get(self._thread_id or -1)
        if frame is not None:
            top = frame
            label = classify_blocking_frame(
                top.f_code.co_filename, top.f_lineno, top.f_code.co_name
            )
            site = (
                f"{top.f_code.co_filename}:{top.f_lineno} "
                f"in {top.f_code.co_name}"
            )
            stack = "".join(traceback.format_stack(frame, limit=12))
        else:  # pragma: no cover - loop thread already gone
            label, site, stack = None, "<thread exited>", ""
        _record(
            Violation(
                kind="loop-stall",
                message=(
                    f"event-loop thread stalled {stalled * 1000.0:.0f}ms "
                    f"(threshold {self.threshold * 1000.0:.0f}ms) at {site}"
                    + (f" — {label}" if label else "")
                    + "; blocking work belongs in an executor "
                    "(see BLOCKING_CALLS)"
                ),
                stack=stack,
            )
        )


def make_loop_watchdog(
    loop: "asyncio.AbstractEventLoop",
) -> Optional[LoopStallWatchdog]:
    """Arm a :class:`LoopStallWatchdog` on ``loop`` when the sanitizer
    is enabled; ``None`` (and zero overhead) otherwise.  Call from the
    loop thread — the server does this in ``QuitServer.start``."""
    if not _enabled:
        return None
    return LoopStallWatchdog().install(loop)
