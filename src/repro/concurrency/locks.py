"""Reader-writer lock used by the concurrent tree wrappers (§4.5).

A classic writer-preferring RW lock built on a condition variable:
any number of readers proceed together; a writer waits for readers to
drain and blocks new readers while waiting, preventing writer starvation.

Both primitives take an optional ``name``: a named lock constructed
while the sanitizer is enabled (``QUIT_SANITIZE=1`` or
:func:`repro.concurrency.sanitizer.enable`) reports every acquisition
to the lock-order auditor; unnamed or unsanitized locks pay nothing.
The canonical names and their required order live in
:data:`repro.concurrency.sanitizer.LOCK_ORDER`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from . import sanitizer
from .sanitizer import LockLike

#: Mutexes in a :class:`StripedLocks` pool.
_N_STRIPES = 64


class RWLock:
    """Writer-preferring reader-writer lock."""

    def __init__(self, name: Optional[str] = None) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        # Audit only when the sanitizer was on at construction time, so
        # the disabled path stays a None check per acquisition.
        self._audit: Optional[str] = (
            name if (name is not None and sanitizer.enabled()) else None
        )

    def acquire_read(self) -> None:
        """Block until shared (read) access is granted."""
        if self._audit is not None:
            sanitizer.before_acquire(self._audit)
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        if self._audit is not None:
            sanitizer.after_acquire(self._audit)

    def release_read(self) -> None:
        """Release shared access."""
        if self._audit is not None:
            sanitizer.on_release(self._audit)
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Block until exclusive (write) access is granted."""
        if self._audit is not None:
            sanitizer.before_acquire(self._audit)
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1
        if self._audit is not None:
            sanitizer.after_acquire(self._audit)

    def release_write(self) -> None:
        """Release exclusive access."""
        if self._audit is not None:
            sanitizer.on_release(self._audit)
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Context manager for shared access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Context manager for exclusive access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class StripedLocks:
    """A fixed pool of mutexes addressed by hashable ids.

    Per-node locks without per-node allocations: node ids map onto
    ``_N_STRIPES`` mutexes.  Two different nodes may share a stripe, which
    only costs spurious contention, never correctness.

    All stripes share one sanitizer name: no code path may ever nest two
    stripes (there is no defined stripe order), so under the sanitizer a
    stripe-inside-stripe acquisition surfaces as a self-reacquisition.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self._locks: list[LockLike]
        if name is not None and sanitizer.enabled():
            self._locks = [
                sanitizer.SanitizedLock(name) for _ in range(_N_STRIPES)
            ]
        else:
            self._locks = [threading.Lock() for _ in range(_N_STRIPES)]

    def lock_for(self, node_id: int) -> LockLike:
        """The stripe mutex owning ``node_id``."""
        return self._locks[node_id % _N_STRIPES]

    @contextmanager
    def locked(self, node_id: int) -> Iterator[None]:
        """Context manager holding the stripe for ``node_id``."""
        lock = self.lock_for(node_id)
        lock.acquire()
        try:
            yield
        finally:
            lock.release()
