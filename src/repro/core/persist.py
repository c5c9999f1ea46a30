"""Persistence helpers: dump an index to a file and reload it.

A snapshot is a one-line text header (tab-separated format tag, entry
count, leaf capacity, internal capacity and, in files written since the
column existed, a leaf field) followed by a body.  The leaf field names
the leaf storage the file was written from: :func:`save_tree` always
writes ``gapped``, and older files may say ``list``.  Both load into the
one leaf class; any other value is a malformed header.

:func:`save_tree` writes **v3** (``quit-tree-v3``), whose body is framed
exactly like a WAL segment (:mod:`repro.core.wal`): a run of
``<len u32><crc32 u32><payload>`` records, each an ``insert_many`` op
carrying the next :data:`CHUNK_PAIRS` entries in key order.  A chunk of
``(int, int)`` pairs in int64 range takes the packed form of
:mod:`repro.core.codec`; any other chunk (str, float, tuple or ``None``
values, ints beyond int64) falls back, chunk by chunk, to the WAL's
literal encoding, checked by :func:`ast.literal_eval` at save time, so
any Python literal round-trips and an arbitrary object is rejected
before it can corrupt the file.

:func:`load_tree` also reads the text formats older code wrote, one
entry per line: **v1** (``quit-tree-v1``, ``key<TAB>value``) and **v2**
(``quit-tree-v2``, ``crc<TAB>key<TAB>value`` with the CRC32 of
``key<TAB>value``).  The compatibility is one way: code that predates
v3 cannot read a v3 snapshot, so primaries and replicas are upgraded
together.  :func:`load_tree` and :func:`verify_snapshot` share one
parser, so verification reports exactly what a load rejects: a bad
header, a CRC failure, a torn record, a record that is not a chunk of
pairs, a count that disagrees with the header, or unsorted keys.

Writes are **atomic**: the tree is serialized to a same-directory temp
file which is fsynced and ``os.replace``d over the destination only on
success.  A failure mid-write (unserializable value, full disk, injected
fault) unlinks the temp file and leaves any previous good snapshot at
``path`` untouched.

Loading rebuilds the index via packed bulk loading, so a reloaded tree
starts at optimal occupancy regardless of the ingestion history that
produced it.
"""

from __future__ import annotations

import ast
import itertools
import operator
import zlib
from pathlib import Path
from typing import Any, Optional, Type, Union

from ..concurrency import sanitizer
from ..testing import faults
from . import wal
from .bptree import BPlusTree
from .config import TreeConfig
from .health import HealthMonitor, ReadOnlyError, RetryPolicy

_FORMAT_TAG_V1 = "quit-tree-v1"
_FORMAT_TAG_V2 = "quit-tree-v2"
_FORMAT_TAG_V3 = "quit-tree-v3"

#: Values the optional fifth header field may hold.  The writer emits
#: the first; files from code that had a second leaf class may hold the
#: other.
_LEAF_FIELDS = ("gapped", "list")

#: Entries per v3 body record.
CHUNK_PAIRS = 4096

#: Issues :func:`verify_snapshot` lists before it stops looking.
_MAX_ISSUES = 8

Pairs = list[tuple[Any, Any]]


class PersistenceError(ValueError):
    """Raised for unserializable values or malformed/corrupt files."""


def _serialize(tree: BPlusTree) -> tuple[bytes, int]:
    """The v3 image of ``tree`` and its entry count, built chunk by
    chunk from ``tree.items()``."""
    records: list[bytes] = []
    items = iter(tree.items())
    count = 0
    while chunk := list(itertools.islice(items, CHUNK_PAIRS)):
        try:
            records.append(wal.frame_record((wal.OP_INSERT_MANY, chunk)))
        except ValueError:
            raise PersistenceError(
                f"entries {chunk[0][0]!r}..{chunk[-1][0]!r} hold a key or "
                "value that is not a Python literal; only literal "
                "keys/values can be persisted"
            ) from None
        count += len(chunk)
    cfg = tree.config
    header = (
        f"{_FORMAT_TAG_V3}\t{count}\t{cfg.leaf_capacity}\t"
        f"{cfg.internal_capacity}\t{_LEAF_FIELDS[0]}\n"
    )
    return b"".join([header.encode("utf-8"), *records]), count


def save_tree(
    tree: BPlusTree,
    path: Union[str, Path],
    *,
    retry: Optional[RetryPolicy] = None,
    health: Optional[HealthMonitor] = None,
) -> int:
    """Atomically write ``tree`` to ``path`` as v3; returns the entry count.

    Args:
        tree: any tree variant (anything with ``config``, ``items()``).
        path: destination file, replaced atomically on success.
        retry: when given, transient I/O faults (EIO/ENOSPC) on the
            temp-file write/fsync and the final rename are retried per
            the policy — each write attempt starts the temp file over,
            so a torn attempt can never leave a half-written prefix in
            front of the retried copy.
        health: monitor fed by the retry loop (see
            :class:`repro.core.health.HealthMonitor`).

    The tree is serialized to memory first: a serialization error
    (unserializable value) aborts before any byte touches the disk, and
    the disk write becomes a single shimmed operation that fault
    injection can tear or rot meaningfully.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    data, count = _serialize(tree)
    faults.fire("snapshot.before_tmp_write")

    def write_tmp() -> None:
        with tmp.open("wb") as fh:
            faults.write("io.snapshot.write", fh, data)
            fh.flush()
            if sanitizer.enabled():
                sanitizer.note_fsync("snapshot.tmp")
            faults.fsync("io.snapshot.fsync", fh)

    def discard_tmp() -> None:
        tmp.unlink(missing_ok=True)

    try:
        if retry is None:
            write_tmp()
        else:
            retry.run(write_tmp, monitor=health, recover=discard_tmp)
    except Exception:
        tmp.unlink(missing_ok=True)
        raise
    faults.fire("snapshot.after_tmp_write")

    def rename() -> None:
        faults.replace("io.snapshot.replace", tmp, path)

    try:
        if retry is None:
            rename()
        else:
            retry.run(rename, monitor=health)
    except Exception:
        tmp.unlink(missing_ok=True)
        raise
    wal._fsync_dir(path.parent, "snapshot.dir")
    faults.fire("snapshot.after_replace")
    return count


def _parse(
    raw: bytes, max_issues: int
) -> tuple[Optional[TreeConfig], Pairs, list[str]]:
    """Header config, entries and issues of a snapshot image.

    Parsing stops once more than ``max_issues`` issues are found, so
    :func:`load_tree` (0) fails on the first one and
    :func:`verify_snapshot` lists up to :data:`_MAX_ISSUES`.
    """
    head, _, body = raw.partition(b"\n")
    header = head.decode("utf-8", "replace").split("\t")
    if len(header) not in (4, 5) or header[0] not in (
        _FORMAT_TAG_V1, _FORMAT_TAG_V2, _FORMAT_TAG_V3
    ):
        return None, [], [f"bad header: {head[:80]!r}"]
    try:
        if len(header) == 5 and header[4] not in _LEAF_FIELDS:
            raise ValueError(
                f"leaf field must be one of {_LEAF_FIELDS}, "
                f"got {header[4]!r}"
            )
        expected = int(header[1])
        config = TreeConfig(
            leaf_capacity=int(header[2]),
            internal_capacity=int(header[3]),
        )
    except ValueError as exc:
        return None, [], [f"malformed header {head[:80]!r}: {exc}"]
    issues: list[str] = []
    if header[0] == _FORMAT_TAG_V3:
        pairs = _parse_records(body, len(head) + 1, issues)
    else:
        pairs = _parse_lines(
            body, header[0] == _FORMAT_TAG_V2, issues, max_issues
        )
    if len(issues) <= max_issues and len(pairs) != expected:
        issues.append(f"declares {expected} entries but holds {len(pairs)}")
    if not issues and not _strictly_sorted(pairs):
        issues.append("keys are not in strictly ascending order")
    return config, pairs, issues


def _parse_records(body: bytes, base: int, issues: list[str]) -> Pairs:
    """Entries of a v3 body (at file offset ``base``); damage is
    appended to ``issues``."""
    parse = wal.parse_segment(body)
    pairs: Pairs = []
    for index, op in enumerate(parse.ops):
        if not _is_chunk(op):
            issues.append(f"record {index}: not a chunk of (key, value) pairs")
            return pairs
        pairs += op[1]
    if wal.is_damage(parse.stop, newest=False):
        issues.append(f"{parse.stop} at offset {base + parse.offset}")
    return pairs


def _is_chunk(op: Any) -> bool:
    """True for ``("m", [(key, value), ...])`` with at least one pair."""
    return (
        type(op) is tuple
        and len(op) == 2
        and op[0] == wal.OP_INSERT_MANY
        and type(op[1]) is list
        and set(map(type, op[1])) == {tuple}
        and set(map(len, op[1])) == {2}
    )


def _parse_lines(
    body: bytes, checksummed: bool, issues: list[str], max_issues: int
) -> Pairs:
    """Entries of a v1/v2 body, one ``[crc<TAB>]key<TAB>value`` line
    each; damage is appended to ``issues``."""
    try:
        lines = body.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        issues.append(f"not valid UTF-8: {exc}")
        return []
    pairs: Pairs = []
    for line_no, line in enumerate(lines, start=2):
        if len(issues) > max_issues:
            break
        if not line:
            continue
        if checksummed:
            crc_hex, _, line = line.partition("\t")
            try:
                crc = int(crc_hex, 16)
            except ValueError:
                issues.append(f"line {line_no}: malformed checksum")
                continue
            if zlib.crc32(line.encode("utf-8")) != crc:
                issues.append(f"line {line_no}: checksum mismatch")
                continue
        try:
            key_repr, value_repr = line.split("\t")
            pairs.append((
                ast.literal_eval(key_repr),
                ast.literal_eval(value_repr),
            ))
        except (ValueError, SyntaxError):
            issues.append(f"line {line_no}: malformed entry")
    return pairs


def _strictly_sorted(pairs: Pairs) -> bool:
    keys = list(map(operator.itemgetter(0), pairs))
    try:
        return all(map(operator.lt, keys, keys[1:]))
    except TypeError:  # keys of mutually incomparable types
        return False


def load_tree(
    path: Union[str, Path],
    tree_class: Type[BPlusTree] = BPlusTree,
    config: Optional[TreeConfig] = None,
    fill_factor: float = 1.0,
) -> BPlusTree:
    """Rebuild an index saved by :func:`save_tree` (v1, v2 or v3).

    Args:
        path: file written by :func:`save_tree`.
        tree_class: index variant to instantiate (any tree class).
        config: overrides the persisted node capacities when given.
        fill_factor: leaf packing for the rebuild (1.0 = fully packed).

    Raises:
        PersistenceError: anything :func:`verify_snapshot` would report
            (malformed header or entries, a checksum failure, a torn
            record, a count mismatch, unsorted keys), or a snapshot
            that stays unreadable after transient-I/O retries.
    """
    path = Path(path)
    saved, pairs, issues = _parse(_read_snapshot(path), 0)
    if issues:
        raise PersistenceError(f"{path}: {issues[0]}")
    tree = tree_class(config or saved)
    tree.bulk_load(pairs, fill_factor=fill_factor)
    return tree


def _read_snapshot(path: Path) -> bytes:
    """Read a snapshot with the WAL's read retry and short-read check;
    a read failure becomes PersistenceError (except a genuinely missing
    file, which stays FileNotFoundError)."""
    try:
        return wal.read_whole(
            path, lambda: faults.read_bytes("io.snapshot.read", path)
        )
    except ReadOnlyError as exc:
        cause = exc.__cause__
        if isinstance(cause, FileNotFoundError):
            raise cause
        raise PersistenceError(f"{path} is unreadable: {exc}") from exc


def verify_snapshot(path: Union[str, Path]) -> list[str]:
    """CRC/structure-verify a snapshot without rebuilding the tree.

    Returns a list of human-readable issues — empty means intact (or no
    snapshot at all, which is a legal state) and that :func:`load_tree`
    succeeds.  Unlike :func:`load_tree` this never raises and does not
    stop at the first bad line of a v1/v2 file, so the scrubber and the
    CLI ``verify`` subcommand can report the damage (capped at 8).
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        raw = _read_snapshot(path)
    except (PersistenceError, OSError) as exc:
        return [f"unreadable: {exc}"]
    issues = _parse(raw, _MAX_ISSUES)[2]
    if len(issues) > _MAX_ISSUES:
        issues[_MAX_ISSUES:] = ["... (further issues suppressed)"]
    return issues
