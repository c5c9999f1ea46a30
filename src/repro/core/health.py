"""Failure taxonomy, retry/backoff, and the durability health machine.

The storage stack classifies every ``OSError`` it meets on the write
path into exactly two buckets:

* **transient** (``EIO``, ``ENOSPC``, ``EAGAIN``, ``EINTR``) — the disk
  may come back; retried with capped exponential backoff under a
  deadline (:class:`RetryPolicy`);
* **permanent** (everything else — ``EROFS``, ``EBADF``, …) — retrying
  is pointless; escalated immediately.

:class:`HealthMonitor` is the operator-visible state machine fed by
those outcomes::

    HEALTHY --retry needed--> DEGRADED --retries exhausted--> READ_ONLY
       ^                         |                               |
       |                         +--write succeeded--------------+-> (restore()
       +---------------------------- explicit heal ------------------ after a
                                                                       repair)
    any state --permanent fault--> FAILED   (terminal)

``READ_ONLY`` is a *serving* state: reads and ``range_iter`` keep
working off the in-memory tree, mutations raise :class:`ReadOnlyError`,
and outstanding group-commit tickets fail fast with the same error.  A
successful checkpoint (which proves the disk can take a full snapshot
again) restores ``HEALTHY``; ``FAILED`` is terminal.

The monitor's lock (``"health"`` in the sanitizer's ``LOCK_ORDER``) is
only ever held for the state flip itself — never across I/O.
"""

from __future__ import annotations

import enum
import errno
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.concurrency import sanitizer

T = TypeVar("T")

#: errno values worth retrying: the device said "not right now", not
#: "never".  ENOSPC is transient by design — operators free space, and
#: a store that marks itself FAILED over a full disk can never heal.
TRANSIENT_ERRNOS: frozenset[int] = frozenset(
    {errno.EIO, errno.ENOSPC, errno.EAGAIN, errno.EINTR}
)


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` is an ``OSError`` worth retrying."""
    return isinstance(exc, OSError) and exc.errno in TRANSIENT_ERRNOS


class HealthState(enum.Enum):
    """Operator-visible durability health, worst first wins."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"      # retries happening, writes still landing
    READ_ONLY = "read_only"    # write path gave up; reads keep serving
    FAILED = "failed"          # permanent fault; terminal


class ReadOnlyError(RuntimeError):
    """A mutation was refused (or abandoned) because the write path is
    degraded to read-only or failed.

    Reads keep serving; the acked history is intact — this error means
    the *new* write was never acknowledged, not that data was lost.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with an overall deadline.

    ``attempts`` bounds the tries, ``deadline`` (seconds) bounds the
    total wall clock including sleeps; whichever trips first ends the
    retry loop.  Delays double from ``base_delay`` up to ``max_delay``.
    """

    attempts: int = 5
    base_delay: float = 0.001
    max_delay: float = 0.05
    deadline: float = 1.0

    def run(
        self,
        fn: Callable[[], T],
        *,
        monitor: Optional["HealthMonitor"] = None,
        recover: Optional[Callable[[], None]] = None,
    ) -> T:
        """Run ``fn``, retrying transient ``OSError``s per this policy.

        ``recover`` (best effort) runs after every transient failure —
        the WAL uses it to rewind a torn tail before rewriting.  On a
        permanent fault the monitor (if any) goes ``FAILED``; on
        exhausted transient retries it goes ``READ_ONLY``; both raise
        :class:`ReadOnlyError` chained to the underlying ``OSError``.

        The first attempt is the hot path — this method sits on every
        WAL append — so it runs with zero setup: no clock read, no loop
        state.  All retry machinery lives in :meth:`_run_slow`.
        """
        try:
            result = fn()
        except OSError as exc:
            return self.resume(fn, exc, monitor=monitor, recover=recover)
        if monitor is not None:
            monitor.record_success()
        return result

    def resume(
        self,
        fn: Callable[[], T],
        first: OSError,
        *,
        monitor: Optional["HealthMonitor"] = None,
        recover: Optional[Callable[[], None]] = None,
    ) -> T:
        """Retry loop for a first attempt the *caller* already made.

        Hot-path callers (the WAL append) inline their first attempt so
        the success case pays for no closures and no policy machinery;
        on failure they hand the exception here and the loop proceeds
        exactly as :meth:`run` would have.  ``first`` counts as attempt
        1; the deadline clock starts here — it bounds time spent
        *retrying*, which is what it was for.
        """
        start = time.monotonic()
        delay = self.base_delay
        attempts = max(1, self.attempts)
        last = first
        attempt = 1
        while True:
            if not is_transient(last):
                if monitor is not None:
                    monitor.mark_failed(last)
                raise ReadOnlyError(
                    f"permanent I/O failure "
                    f"([Errno {last.errno}] {last.strerror}): "
                    f"not retrying"
                ) from last
            if monitor is not None:
                monitor.record_retry(last)
            if recover is not None:
                try:
                    recover()
                except OSError:
                    pass  # best effort; the retry will tell
            if (
                attempt >= attempts
                or time.monotonic() - start >= self.deadline
            ):
                break
            time.sleep(delay)
            delay = min(delay * 2.0, self.max_delay)
            attempt += 1
            try:
                result = fn()
            except OSError as exc:
                last = exc
                continue
            if monitor is not None:
                monitor.record_success()
            return result
        if monitor is not None:
            monitor.mark_read_only(last)
        raise ReadOnlyError(
            f"transient I/O failure persisted past {self.attempts} "
            f"attempt(s) / {self.deadline:.3f}s deadline; "
            f"degrading to read-only (last: [Errno "
            f"{last.errno if last else '?'}] "
            f"{last.strerror if last else '?'})"
        ) from last


class HealthMonitor:
    """Thread-safe durability health state machine plus counters.

    Shared between a :class:`~repro.core.durable.DurableTree` and its
    WAL so that a retry exhausted anywhere on the write path flips the
    whole tree.
    """

    def __init__(self, name: str = "durable") -> None:
        self.name = name
        self._lock = sanitizer.make_lock("health")
        self._state = HealthState.HEALTHY
        self._last_error: Optional[BaseException] = None
        self.retries = 0
        self.degradations = 0
        self.read_only_trips = 0
        self.recoveries = 0

    @property
    def state(self) -> HealthState:
        """Current state (lock-free read: a stale answer is benign —
        the WAL itself raises if a write slips past a flip)."""
        return self._state

    @property
    def writable(self) -> bool:
        return self._state in (HealthState.HEALTHY, HealthState.DEGRADED)

    @property
    def last_error(self) -> Optional[BaseException]:
        return self._last_error

    def record_retry(self, exc: BaseException) -> None:
        """A transient write-path fault is being retried."""
        with self._lock:
            self.retries += 1
            self._last_error = exc
            if self._state is HealthState.HEALTHY:
                self._state = HealthState.DEGRADED
                self.degradations += 1

    def record_success(self) -> None:
        """A write landed: a degraded disk has come back.

        Called on every successful append, so the HEALTHY case must not
        take the lock — the unlocked read can at worst miss a flip to
        DEGRADED that a concurrent retry is making, and the next
        success repairs that.  The flip back is re-checked under the
        lock.
        """
        if self._state is not HealthState.DEGRADED:
            return
        with self._lock:
            if self._state is HealthState.DEGRADED:
                self._state = HealthState.HEALTHY

    def mark_read_only(self, exc: Optional[BaseException]) -> None:
        """Transient retries exhausted: stop taking writes, keep reads."""
        with self._lock:
            if self._state is HealthState.FAILED:
                return
            if exc is not None:
                self._last_error = exc
            if self._state is not HealthState.READ_ONLY:
                self._state = HealthState.READ_ONLY
                self.read_only_trips += 1

    def mark_failed(self, exc: BaseException) -> None:
        """Permanent fault: terminal."""
        with self._lock:
            self._last_error = exc
            self._state = HealthState.FAILED

    def restore(self) -> bool:
        """Return to ``HEALTHY`` after a successful repair (e.g. a
        checkpoint that proved the disk writable again).  ``FAILED`` is
        terminal: returns False and stays put."""
        with self._lock:
            if self._state is HealthState.FAILED:
                return False
            healed = self._state in (
                HealthState.READ_ONLY,
                HealthState.DEGRADED,
            )
            self._state = HealthState.HEALTHY
            if healed:
                self.recoveries += 1
            return True

    def require_writable(self) -> None:
        """Raise :class:`ReadOnlyError` unless mutations are allowed.

        Lock-free on purpose: this sits in front of every mutation, and
        a racy read only delays the refusal by one op — the write path
        behind it re-raises anyway.
        """
        state = self._state
        if state is HealthState.READ_ONLY or state is HealthState.FAILED:
            exc = self._last_error
            raise ReadOnlyError(
                f"{self.name!r} is {state.value}: mutations refused, "
                f"reads still serving"
                + (f" (cause: {exc})" if exc is not None else "")
            )

    def snapshot(self) -> dict[str, object]:
        """Operator-facing view (CLI/status plumbing)."""
        with self._lock:
            return {
                "state": self._state.value,
                "retries": self.retries,
                "degradations": self.degradations,
                "read_only_trips": self.read_only_trips,
                "recoveries": self.recoveries,
                "last_error": (
                    str(self._last_error)
                    if self._last_error is not None
                    else None
                ),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HealthMonitor({self.name!r}, state={self._state.value})"
