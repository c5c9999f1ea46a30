"""One fault model for the durability and replication stack.

Every place where a failure is interesting is a named *site*, and
:data:`SITES` maps each site to the fault kinds it permits.  Three call
forms reach the table:

* **control-flow sites** (``wal.*``, ``snapshot.*``, ``checkpoint.*``,
  ``repl.*``) call :func:`fire` at the moment a crash or error is
  interesting — just before an fsync, between the temp-file write and
  the atomic replace, on a replication hop — and permit

  - ``"raise"``: raise :class:`FaultError`, an ordinary exception the
    caller is expected to handle (a failed network call, an error path);
  - ``"crash"``: raise :class:`SimulatedCrash`, which derives from
    ``BaseException`` so no ``except Exception`` handler can swallow
    it: the process dies at that instruction.  Whatever bytes reached
    the filesystem stay; nothing else does.

* **link sites** (``repl.transport.*``) call :func:`link` in the
  replication transport's ``fetch_records``, which returns the fired
  fault for the transport to perform.  Each permits ``raise``,
  ``crash`` and one delivery kind: ``"drop"`` (an empty batch, cursor
  unmoved), ``"partial"`` (a strict prefix, cut with the fault's
  ``rng``; reached only for batches of two or more records) or
  ``"replay"`` (the previous batch again; reached only after a
  non-empty one), so :func:`counts` counts only faults that acted.

* **``io.*`` sites** route a disk operation through one of the shims
  (:func:`write`, :func:`fsync`, :func:`replace`, :func:`read_bytes`)
  and permit the disk kinds

  - ``"eio"``: the call raises ``OSError(EIO)`` (transient device error);
  - ``"enospc"``: the call raises ``OSError(ENOSPC)`` (disk full);
  - ``"torn"``: a write persists only a prefix of the payload before
    raising ``EIO`` (short/torn write); a read returns only a prefix;
  - ``"bitrot"``: the operation *succeeds* but the bytes are silently
    corrupted (one byte flipped), modelling latent media rot that only
    a checksum scrub can catch.  For ``fsync`` the flip lands in the
    file that was just synced: rot discovered long after the ack.

  Write sites also permit ``"crash"``: the process dies just before the
  operation, so nothing of it reaches the disk.

An armed fault skips its first ``hits_before`` hits, fires at most
``times`` times (``None``: unlimited), and fires with ``probability``
per hit from its own ``random.Random(seed)``, so every schedule repeats
exactly.  Tests arm a site for a block::

    with faults.inject("wal.before_fsync", "crash"):
        durable.insert(1, "one")      # raises SimulatedCrash mid-append

or until :func:`disarm`/:func:`reset` with :func:`arm`.  Arming is
process-global (the durability code has no handle to thread test state
through).  With nothing armed, :func:`fire`, :func:`link` and every
shim start with one ``if not _active`` check, so the instrumentation
stays resident in production.  The lock is only ever held to
*decide*, never across the I/O itself (the runtime lock sanitizer
would flag an fsync under it).

The ``fault-parity`` lint rule checks the four site constants against
the call sites in both directions, and checks that each call uses the
form its site's kinds call for.
"""

from __future__ import annotations

import contextlib
import errno
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Optional, Union

from repro.concurrency import sanitizer

#: Control-flow sites, reached through :func:`fire`.
CONTROL_SITES: tuple[str, ...] = (
    "wal.before_append",
    "wal.after_append",
    "wal.before_fsync",
    "wal.before_rotate",
    "wal.before_truncate_segment",
    # Group-commit pipeline (fsync="group"): fired on the flusher
    # thread around each batch's single fsync, and just before the
    # batch's tickets resolve.  A "crash" at any of them models the
    # process dying mid-batch: pre_fsync loses the whole batch (none of
    # it was acked), post_fsync/ack keep the batch durable but unacked
    # — either way no acknowledged write is ever lost.
    "wal.group.pre_fsync",
    "wal.group.post_fsync",
    "wal.group.ack",
    "snapshot.before_tmp_write",
    "snapshot.after_tmp_write",
    "snapshot.after_replace",
    "checkpoint.before_truncate",
    "checkpoint.after_truncate",
    # Replication layer (repro.replication): primary serving side,
    # replica apply side, coordinator decisions.  A "raise" at
    # repl.snapshot_fetch models a failed network call — the
    # replication code handles FaultError as it would a TransportError.
    "repl.snapshot_fetch",
    "repl.ship_record",
    "repl.apply_record",
    "repl.promote",
    "repl.fence",
    "repl.health_check",
)

#: Link sites on the replication transport, reached through :func:`link`.
LINK_SITES: tuple[str, ...] = (
    "repl.transport.drop",     # + "drop": the response is lost
    "repl.transport.delay",    # + "partial": a strict prefix arrives
    "repl.transport.reorder",  # + "replay": the previous batch again
)

#: ``io.*`` sites on the write path (live appends, checkpoints).
IO_WRITE_SITES: tuple[str, ...] = (
    "io.wal.write",         # WAL record/batch append
    "io.wal.fsync",         # WAL segment fsync
    "io.snapshot.write",    # checkpoint temp-file write
    "io.snapshot.fsync",    # checkpoint temp-file fsync
    "io.snapshot.replace",  # atomic rename into place
)

#: ``io.*`` sites on the read path (replay, load, verification).
IO_READ_SITES: tuple[str, ...] = (
    "io.wal.read",          # WAL segment read (replay, reader, scrub)
    "io.snapshot.read",     # snapshot load/verify read
)

#: How a disk misbehaves.
DISK_KINDS: tuple[str, ...] = ("eio", "enospc", "torn", "bitrot")

#: Every site, mapped to the fault kinds it permits.
SITES: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(CONTROL_SITES, ("raise", "crash")),
    **{
        site: ("raise", "crash", kind)
        for site, kind in zip(LINK_SITES, ("drop", "partial", "replay"))
    },
    **dict.fromkeys(IO_WRITE_SITES, DISK_KINDS + ("crash",)),
    **dict.fromkeys(IO_READ_SITES, DISK_KINDS),
}


class FaultError(RuntimeError):
    """Recoverable injected failure (``kind="raise"``)."""


class SimulatedCrash(BaseException):
    """Injected process death (``kind="crash"``).

    Derives from ``BaseException`` so durability-layer ``except
    Exception`` cleanup cannot catch it — a real crash runs no cleanup
    either.  Tests catch it explicitly.
    """


@dataclass
class Fault:
    """One armed fault and its firing discipline."""

    site: str
    kind: str
    hits_before: int = 0
    times: Optional[int] = None  # fires allowed; None = unlimited
    probability: float = 1.0
    seed: int = 0
    hits: int = 0
    fired: int = 0
    rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: "
                f"{', '.join(SITES)}"
            )
        if self.kind not in SITES[self.site]:
            raise ValueError(
                f"fault kind {self.kind!r} is not permitted at "
                f"{self.site!r}; permitted: {', '.join(SITES[self.site])}"
            )
        if self.times is not None and self.times < 0:
            raise ValueError("times must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        self.rng = random.Random(self.seed)

    def should_fire(self) -> bool:
        self.hits += 1
        if self.hits <= self.hits_before:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.probability < 1.0 and self.rng.random() >= self.probability:
            return False
        self.fired += 1
        return True


_lock = sanitizer.make_lock("faults")
_active: dict[str, Fault] = {}
#: Fired faults per ``(site, kind)`` since the last :func:`reset`.
_counts: dict[tuple[str, str], int] = {}
#: Hits per site while anything is armed (the census behind sweeps).
_hits: dict[str, int] = {}


def arm(
    site: str,
    kind: str,
    *,
    hits_before: int = 0,
    times: Optional[int] = None,
    probability: float = 1.0,
    seed: int = 0,
) -> Fault:
    """Arm ``site`` to fail as ``kind`` until :func:`disarm`.

    Replaces any fault already armed there.  Returns the armed state;
    ``fault.fired`` afterwards tells whether the site triggered.
    """
    fault = Fault(site, kind, hits_before, times, probability, seed)
    with _lock:
        _active[site] = fault
    return fault


def disarm(site: str) -> None:
    """Disarm ``site`` (no-op when it was not armed)."""
    with _lock:
        _active.pop(site, None)


@contextlib.contextmanager
def inject(
    site: str,
    kind: str,
    *,
    hits_before: int = 0,
    times: Optional[int] = None,
    probability: float = 1.0,
    seed: int = 0,
) -> Iterator[Fault]:
    """Arm ``site`` for the duration of the block; yields the armed state.

    Refuses a site that is already armed: the inner block's exit would
    otherwise disarm the outer one.
    """
    fault = Fault(site, kind, hits_before, times, probability, seed)
    with _lock:
        if site in _active:
            raise RuntimeError(f"fault site {site!r} is already armed")
        _active[site] = fault
    try:
        yield fault
    finally:
        with _lock:
            if _active.get(site) is fault:
                del _active[site]


def armed() -> dict[str, str]:
    """Currently armed sites mapped to their fault kind."""
    with _lock:
        return {site: fault.kind for site, fault in _active.items()}


def counts() -> dict[tuple[str, str], int]:
    """Snapshot of fired faults per ``(site, kind)``."""
    with _lock:
        return dict(_counts)


def hits() -> dict[str, int]:
    """Snapshot of how often each site was reached while anything was
    armed.

    Counting is only live while at least one fault is armed — the
    production fast path must stay a single dict check — so arm an
    unrelated site (or the one being measured with a huge
    ``hits_before``) to take a census.
    """
    with _lock:
        return dict(_hits)


def reset() -> None:
    """Disarm everything and zero every counter (test isolation)."""
    with _lock:
        _active.clear()
        _counts.clear()
        _hits.clear()


def _claim(site: str) -> Optional[Fault]:
    """Count a hit on ``site`` and decide (under the lock) whether it
    fails right now.

    ``raise`` and ``crash`` are raised here; a disk or link fault is
    returned for the shim or transport to perform *outside* the lock.
    """
    if site not in SITES:
        raise ValueError(
            f"unregistered fault site {site!r}; add it to "
            f"repro.testing.faults first"
        )
    with _lock:
        _hits[site] = _hits.get(site, 0) + 1
        fault = _active.get(site)
        if fault is None or not fault.should_fire():
            return None
        key = (site, fault.kind)
        _counts[key] = _counts.get(key, 0) + 1
    if fault.kind == "crash":
        raise SimulatedCrash(f"simulated crash at {site}")
    if fault.kind == "raise":
        raise FaultError(f"injected failure at {site}")
    return fault


def fire(site: str) -> None:
    """Control-flow trigger point.  No-op unless something is armed."""
    if not _active:
        return
    _claim(site)


def link(site: str) -> Optional[Fault]:
    """Link trigger point: the fired delivery fault, or ``None``."""
    if not _active:
        return None
    return _claim(site)


def _os_error(fault: Fault) -> OSError:
    code = errno.ENOSPC if fault.kind == "enospc" else errno.EIO
    return OSError(code, f"injected {fault.kind} at {fault.site}", fault.site)


def _flip_byte(data: bytes) -> bytes:
    if not data:
        return data
    corrupted = bytearray(data)
    corrupted[len(data) // 2] ^= 0xFF
    return bytes(corrupted)


# ---------------------------------------------------------------------------
# The shims.  Fast path: one module-dict truthiness check, then the real
# operation.  Sites are string literals at every call site so the
# fault-parity rule can see them.
# ---------------------------------------------------------------------------


def write(site: str, fh: IO[bytes], data: bytes) -> int:
    """``fh.write(data)`` through the fault table.

    ``torn`` persists roughly half the payload and then raises ``EIO``
    (the caller must assume the tail is garbage until rewound);
    ``bitrot`` writes the full length with one byte flipped and
    *returns success*.
    """
    if _active:
        fault = _claim(site)
        if fault is not None:
            if fault.kind in ("eio", "enospc"):
                raise _os_error(fault)
            if fault.kind == "torn":
                fh.write(data[: max(1, len(data) // 2)])
                raise _os_error(fault)
            # bitrot: silent corruption, reported as a clean write.
            fh.write(_flip_byte(data))
            return len(data)
    fh.write(data)
    return len(data)


def fsync(site: str, fh: IO[bytes]) -> None:
    """``os.fsync(fh.fileno())`` through the fault table.

    ``torn`` degenerates to ``EIO`` (there is no partial fsync);
    ``bitrot`` lets the fsync succeed and then flips a byte of the
    synced file in place — the ack was honest, the media was not.
    """
    if _active:
        fault = _claim(site)
        if fault is not None:
            if fault.kind in ("eio", "enospc", "torn"):
                raise _os_error(fault)
            os.fsync(fh.fileno())
            _rot_file_tail(fh)
            return
    os.fsync(fh.fileno())


def _rot_file_tail(fh: IO[bytes]) -> None:
    # The WAL opens segments write-only, so the rot needs its own
    # read-write handle on the same path.
    path = getattr(fh, "name", None)
    if not isinstance(path, (str, bytes, os.PathLike)):
        return
    with open(path, "r+b") as rot:
        rot.seek(0, os.SEEK_END)
        size = rot.tell()
        if size == 0:
            return
        offset = size // 2
        rot.seek(offset)
        byte = rot.read(1)
        if byte:
            rot.seek(offset)
            rot.write(bytes([byte[0] ^ 0xFF]))


def replace(
    site: str, src: Union[str, Path], dst: Union[str, Path]
) -> None:
    """``os.replace(src, dst)`` through the fault table.

    ``eio``/``enospc``/``torn`` fail the rename and leave ``src`` in
    place (rename is atomic — there is no torn middle state, so
    ``torn`` degenerates to ``EIO``); ``bitrot`` performs the rename
    but flips a byte of the file first.
    """
    if _active:
        fault = _claim(site)
        if fault is not None:
            if fault.kind in ("eio", "enospc", "torn"):
                raise _os_error(fault)
            path = Path(src)
            path.write_bytes(_flip_byte(path.read_bytes()))
    os.replace(src, dst)


def read_bytes(
    site: str, path: Union[str, Path], offset: int = 0
) -> bytes:
    """The bytes of ``path`` from ``offset`` on, through the fault table.

    ``torn`` returns a prefix (short read); ``bitrot`` returns the full
    payload with one byte flipped.
    """
    fault = _claim(site) if _active else None
    if fault is not None and fault.kind in ("eio", "enospc"):
        raise _os_error(fault)
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read()
    if fault is None:
        return data
    if fault.kind == "torn":
        return data[: len(data) // 2]
    return _flip_byte(data)
