"""Packed codec for integer vectors: the bulk payloads of the wire and WAL.

The wire protocol (:mod:`repro.net.protocol`) and the WAL
(:mod:`repro.core.wal`) encode most payloads as the ``repr`` of a Python
literal, parsed back with ``ast.literal_eval``.  For a batch of 1,024
integer pairs that parse costs about ten microseconds per key, an order
of magnitude more than the tree's own ``insert_many``.  This module
gives the bulk shapes a typed binary form instead.  There is no knob:
the payload's own types choose the encoding.

Shapes
------

A payload is packed when it has one of these shapes, where ``ints`` is a
non-empty ``list`` whose items are all exact ``int`` (``type(x) is
int``, so ``bool`` never qualifies) and ``pairs`` is a non-empty
``list`` of 2-tuples of exact ints:

==========  =======================  =====================================
tag         shape                    carries
==========  =======================  =====================================
``0x01``    ``ints``                 ``GET_MANY`` answers (all keys found)
``0x02``    ``pairs``                ``PUT_MANY`` requests, WAL
                                     ``insert_many`` records
``0x03``    ``(pairs, bool)``        ``SCAN`` pages: entries + done flag
``0x04``    ``(ints, None)``         ``GET_MANY`` requests (keys, default)
==========  =======================  =====================================

Anything else returns ``None`` from :func:`pack`, and the caller keeps
its literal encoding: floats, strings, tuples, ``None`` values, ints
beyond int64, empty lists, a ``GET_MANY`` answer with a missing key.

A ``SCAN`` page read from the tree arrives as two columns, keys and
values (``range_page``); :func:`pack_page` packs them as they are into
the same bytes as the paired page, so no entry is touched in Python.

Both literal encoders, the wire's and the WAL's, share one rule for
when a ``repr`` needs no parse to prove that it round-trips
(:func:`is_plain`): a plain scalar (exact ``int``, ``str``, ``bool``
or ``None``) or a flat tuple of them.

Layout (all integers little-endian)::

    u8   tag (0x01-0x1F)
    u32  count: entries per column
    u8   done flag (0 or 1) -- tag 0x03 only
    then one column per field (one for ints, two for pairs: keys, values):
    u8   width: 4 (int32) or 8 (int64), the narrowest holding every entry
    ...  count * width bytes

The tag comes from 0x01-0x1F, control characters that no ``repr``
literal can start with, so :func:`is_packed` tells the two forms apart
from the first byte and old literal frames and records stay readable.
The compatibility is one way: code that predates this module cannot
read a packed payload.
Decoding is strict: an unknown tag or width, a short column, trailing
bytes or a bad flag raise :class:`CodecError`.  Every decode builds
fresh lists from the buffer; nothing aliases the input bytes.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Any, Literal, Optional, Sequence, Union

TAG_INTS = 0x01
TAG_PAIRS = 0x02
TAG_PAGE = 0x03
TAG_KEYS = 0x04

#: First-byte range reserved for packed payloads.
_TAG_MAX = 0x1F

_HEAD = struct.Struct("<BI")
#: Column width (bytes per entry) -> ``array`` typecode.
_TYPECODES: dict[int, Literal["i", "q"]] = {4: "i", 8: "q"}
_BIG_ENDIAN = sys.byteorder == "big"

if array("i").itemsize != 4 or array("q").itemsize != 8:  # pragma: no cover
    raise ImportError("packed codec needs 4-byte 'i' and 8-byte 'q' arrays")

Buffer = Union[bytes, bytearray, memoryview]

#: Scalar types whose ``repr`` always parses back to an equal value.
#: Exact types only: a subclass may override ``__repr__``; floats are
#: out because ``repr(nan)`` does not parse.
_PLAIN_TYPES = (int, str, bool, type(None))


class CodecError(ValueError):
    """A packed payload is malformed (short, trailing, unknown tag/width)."""


def is_plain(obj: Any) -> bool:
    """True when ``obj`` is a plain scalar or a flat tuple of them: its
    ``repr`` parses back to an equal value, so a literal encoder needs
    no ``literal_eval`` round trip to prove it."""
    if type(obj) is tuple:
        return all(type(field) in _PLAIN_TYPES for field in obj)
    return type(obj) in _PLAIN_TYPES


def is_packed(data: Buffer) -> bool:
    """True when ``data`` starts with a packed tag byte."""
    return len(data) > 0 and 0 < data[0] <= _TAG_MAX


def _column(values: Sequence[Any]) -> Optional[bytes]:
    """Width byte + entries of one column, or None when an entry is not
    an exact int or does not fit int64."""
    if set(map(type, values)) != {int}:
        return None
    for width in (4, 8):
        try:
            column = array(_TYPECODES[width], values)
        except OverflowError:
            continue
        if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts
            column.byteswap()
        return bytes((width,)) + column.tobytes()
    return None


def _packed(tag: int, fields: Sequence[Sequence[Any]],
            flag: bytes = b"") -> Optional[bytes]:
    """Header, ``flag`` and one column per field (all of one length),
    or None when a field does not pack."""
    columns: list[bytes] = []
    for field in fields:
        column = _column(field)
        if column is None:
            return None
        columns.append(column)
    return b"".join((_HEAD.pack(tag, len(fields[0])), flag, *columns))


def pack(obj: Any) -> Optional[bytes]:
    """Packed form of ``obj``, or None when ``obj`` has no packed shape.

    The exact-type and range checks here are the whole validation: a
    packed payload always decodes back to an equal object of the same
    container and item types.
    """
    flag = b""
    if type(obj) is list:
        items = obj
        tag = TAG_PAIRS if items and type(items[0]) is tuple else TAG_INTS
    elif type(obj) is tuple and len(obj) == 2 and type(obj[0]) is list:
        items, extra = obj
        if extra is None:
            tag = TAG_KEYS
        elif type(extra) is bool:
            tag, flag = TAG_PAGE, bytes((extra,))
        else:
            return None
    else:
        return None
    if not items:
        return None
    fields: Sequence[Sequence[Any]] = (items,)
    if tag in (TAG_PAIRS, TAG_PAGE):
        if set(map(type, items)) != {tuple}:
            return None
        try:
            fields = tuple(zip(*items, strict=True))
        except ValueError:  # tuples of mixed lengths
            return None
        if len(fields) != 2:
            return None
    return _packed(tag, fields, flag)


class Packed(bytes):
    """A payload already in packed form: the wire encoder
    (``repro.net.protocol.encode_payload``) sends it unchanged."""


def pack_page(keys: Sequence[Any], values: Sequence[Any],
              done: bool) -> Optional[Packed]:
    """The ``TAG_PAGE`` payload of a ``SCAN`` page held as two columns
    of equal length, as a ``range_page`` returns it.

    The bytes equal ``pack((list(zip(keys, values)), done))``, but the
    columns are packed as they are, never paired up.  None when that
    ``pack`` would return None: an empty page, or an entry that is not
    an exact int within int64.
    """
    if not keys:
        return None
    packed = _packed(TAG_PAGE, (keys, values), bytes((done,)))
    return None if packed is None else Packed(packed)


class _Reader:
    """Bounds-checked cursor over one packed payload."""

    __slots__ = ("data", "offset", "count")

    def __init__(self, data: Buffer) -> None:
        if len(data) < _HEAD.size:
            raise CodecError(f"short packed header ({len(data)}B)")
        self.data = memoryview(data)
        self.count = _HEAD.unpack_from(self.data)[1]
        self.offset = _HEAD.size

    def byte(self, what: str) -> int:
        if self.offset >= len(self.data):
            raise CodecError(f"packed payload ends before its {what}")
        value = self.data[self.offset]
        self.offset += 1
        return value

    def column(self) -> list[int]:
        width = self.byte("column width")
        code = _TYPECODES.get(width)
        if code is None:
            raise CodecError(f"unknown packed column width {width}")
        start = self.offset
        end = start + self.count * width
        if end > len(self.data):
            raise CodecError(
                f"short packed column: {len(self.data) - start}B for "
                f"{self.count} x {width}B"
            )
        column = array(code)
        column.frombytes(self.data[start:end])
        if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts
            column.byteswap()
        self.offset = end
        return column.tolist()

    def pairs(self) -> list[tuple[int, int]]:
        keys = self.column()
        return list(zip(keys, self.column()))

    def finish(self) -> None:
        extra = len(self.data) - self.offset
        if extra:
            raise CodecError(f"{extra} trailing bytes after packed payload")


def unpack(data: Buffer) -> Any:
    """Decode a payload produced by :func:`pack`.

    Raises :class:`CodecError` on any malformed input; never returns a
    partial result.
    """
    if not is_packed(data):
        raise CodecError("payload does not start with a packed tag")
    reader = _Reader(data)
    tag = data[0]
    result: Any
    if tag == TAG_INTS:
        result = reader.column()
    elif tag == TAG_PAIRS:
        result = reader.pairs()
    elif tag == TAG_PAGE:
        flag = reader.byte("done flag")
        if flag > 1:
            raise CodecError(f"bad packed done flag {flag}")
        result = (reader.pairs(), bool(flag))
    elif tag == TAG_KEYS:
        result = (reader.column(), None)
    else:
        raise CodecError(f"unknown packed tag 0x{tag:02x}")
    reader.finish()
    return result
