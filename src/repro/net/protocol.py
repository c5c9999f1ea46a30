"""Length-prefixed binary wire protocol for the QuIT network tier.

Everything on the wire is framed with stdlib ``struct`` — no
third-party serialization.  A payload takes one of two forms, chosen by
its own types (there is no knob):

* **Packed** (:mod:`repro.core.codec`): a non-empty list of exact ints
  or of ``(int, int)`` pairs, a ``SCAN`` page ``(pairs, done)`` or a
  ``GET_MANY`` request ``(keys, None)``.  A tag byte in 0x01-0x1F, a
  little-endian u32 count, then one column per field (keys, values),
  each the narrowest of int32/int64 that holds all its entries.  This
  carries the bulk ops (``PUT_MANY``, ``GET_MANY`` keys and answers,
  ``SCAN`` pages) at a few bytes and well under a microsecond per key.
  The exact-type and range checks of the packer are its validation.
  The server packs a ``SCAN`` page straight from the tree's key and
  value columns (:func:`codec.pack_page`, same bytes) and hands it
  over as a :class:`codec.Packed`, which goes out as it is.
* **Literal**: everything else — single-key ops, ``STATUS``,
  ``CHECK``, ``SCRUB``, ``ADMIN``, and any bulk payload holding a
  float, string, tuple, ``None``, ``bool`` or an int beyond int64.  The
  ``repr`` of a Python literal, checked to round-trip at encode time
  and parsed back with ``ast.literal_eval``, so exactly the key/value
  types the tree itself round-trips travel the wire, and nothing else
  can (``literal_eval`` never executes code).  A plain scalar or a flat
  tuple of them (:func:`codec.is_plain`, the rule the WAL uses too)
  round-trips by construction and skips the check.

No ``repr`` starts with a byte below 0x20, so the decoder tells the
forms apart from the first payload byte; version-1 (literal-only)
frames remain readable.  That holds one way only: the version is not
negotiated and all-int bulk answers are always packed, so a version-1
peer cannot read version-2 bulk frames.  Servers, clients and replicas
are upgraded together.  A malformed packed payload is a
:class:`ProtocolError`, which the server answers with
``ST_BAD_REQUEST``.

Frames
------

Request (client -> server)::

    !I   frame length (bytes after this field)
    !B   opcode (OP_*)
    !Q   request id — the idempotency id: unique per *logical* request,
         reused verbatim on every retry of it
    !d   deadline budget in seconds (remaining time the client is
         willing to wait; the server refuses work it cannot finish
         inside the budget instead of doing it for nobody)
    ...  payload (packed, or repr literal in UTF-8)

Response (server -> client)::

    !I   frame length
    !B   status (ST_*)
    !Q   request id being answered (responses may be interleaved under
         pipelining; clients match by id, never by order)
    !I   server boot id (random per process start: lets a client — and
         the chaos harness — tell server tenures apart)
    !B   flags (FLAG_APPLIED / FLAG_DEDUPED)
    ...  payload

Every mutation is an upsert or a delete, so retrying one is
*state*-idempotent even without the server's dedup table; the table's
job is to also preserve the **logical result** (``delete``'s
existed-bool, ``insert_many``'s added-count) across at-least-once
delivery, making the retry invisible to the caller.
"""

from __future__ import annotations

import ast
import struct
from typing import TYPE_CHECKING, Any, Optional, Tuple

from ..core import codec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio
    import socket

#: Protocol revision; bumped on any frame-layout change.
PROTOCOL_VERSION = 2

#: Hard per-frame cap: a frame length beyond this is a protocol error,
#: not an allocation request (defends both sides against garbage).
MAX_FRAME = 16 * 1024 * 1024

_LEN = struct.Struct("!I")
_REQ_HEAD = struct.Struct("!BQd")
_RESP_HEAD = struct.Struct("!BQIB")

# -- opcodes -----------------------------------------------------------

OP_GET = 1
OP_PUT = 2
OP_DELETE = 3
OP_GET_MANY = 4
OP_PUT_MANY = 5
OP_SCAN = 6
OP_COUNT = 7
OP_LEN = 8
OP_STATUS = 9
OP_CHECK = 10
OP_SCRUB = 11
#: Test/chaos control surface; refused unless the server was started
#: with ``admin=True`` (the soak harness's fault-injection side channel).
OP_ADMIN = 12

#: Opcodes that mutate state — the only ones the dedup table tracks.
MUTATING_OPS = frozenset({OP_PUT, OP_DELETE, OP_PUT_MANY})

#: Human-readable opcode names (logs, errors, stats).
OP_NAMES = {
    OP_GET: "get",
    OP_PUT: "put",
    OP_DELETE: "delete",
    OP_GET_MANY: "get_many",
    OP_PUT_MANY: "put_many",
    OP_SCAN: "scan",
    OP_COUNT: "count",
    OP_LEN: "len",
    OP_STATUS: "status",
    OP_CHECK: "check",
    OP_SCRUB: "scrub",
    OP_ADMIN: "admin",
}

# -- statuses ----------------------------------------------------------

ST_OK = 0
#: Load shed / draining: nothing happened; retry after the advisory
#: backoff carried in the payload ``(advisory_seconds, reason)``.
ST_RETRY_LATER = 1
#: The store is read-only (degraded disk) — reads keep serving, this
#: mutation was refused before any state change.  Clients surface it
#: without retrying (the condition outlives any sane backoff).
ST_READ_ONLY = 2
#: The request's deadline budget expired before the server finished
#: (possibly before it even started).  Nothing was acknowledged.
ST_DEADLINE = 3
#: Malformed frame / unknown op / bad payload shape.
ST_BAD_REQUEST = 4
#: The server hit an unexpected error applying the op.
ST_INTERNAL = 5
#: This node was fenced by a newer epoch — it must not acknowledge
#: writes; clients surface it without retry (retrying the same node
#: cannot help; a director must point them at the new primary).
ST_FENCED = 6

ST_NAMES = {
    ST_OK: "ok",
    ST_RETRY_LATER: "retry_later",
    ST_READ_ONLY: "read_only",
    ST_DEADLINE: "deadline_exceeded",
    ST_BAD_REQUEST: "bad_request",
    ST_INTERNAL: "internal_error",
    ST_FENCED: "fenced",
}

#: Response flag: the mutation was applied by *this* request.
FLAG_APPLIED = 0x01
#: Response flag: a duplicate idempotency id was answered from the
#: dedup table — the original apply's result, no second apply.
FLAG_DEDUPED = 0x02


class ProtocolError(RuntimeError):
    """The peer sent bytes this protocol version cannot accept."""


def encode_payload(obj: Any) -> bytes:
    """Serialize ``obj`` packed when its shape allows, else as a
    round-trippable Python literal.  A :class:`codec.Packed` payload
    is already packed and goes out as it is."""
    if type(obj) is codec.Packed:
        return obj
    packed = codec.pack(obj)
    if packed is not None:
        return packed
    text = repr(obj)
    if codec.is_plain(obj):
        return text.encode("utf-8")
    try:
        if ast.literal_eval(text) != obj:
            raise ValueError("payload does not round-trip")
    except (ValueError, SyntaxError) as exc:
        raise ProtocolError(
            f"payload {type(obj).__name__!r} is not literal-encodable: {exc}"
        ) from exc
    return text.encode("utf-8")


def decode_payload(data: bytes) -> Any:
    """Parse a payload produced by :func:`encode_payload`."""
    if not data:
        return None
    if codec.is_packed(data):
        try:
            return codec.unpack(data)
        except codec.CodecError as exc:
            raise ProtocolError(f"malformed packed payload: {exc}") from exc
    try:
        return ast.literal_eval(data.decode("utf-8"))
    except (ValueError, SyntaxError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable payload: {exc}") from exc


def encode_request(op: int, request_id: int, budget: float, obj: Any) -> bytes:
    """One request frame, length prefix included."""
    payload = encode_payload(obj)
    body = _REQ_HEAD.pack(op, request_id, budget) + payload
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"request frame {len(body)}B exceeds {MAX_FRAME}B")
    return _LEN.pack(len(body)) + body


def decode_request(body: bytes) -> Tuple[int, int, float, Any]:
    """Parse a request frame body -> ``(op, request_id, budget, payload)``."""
    if len(body) < _REQ_HEAD.size:
        raise ProtocolError(f"short request frame ({len(body)}B)")
    op, request_id, budget = _REQ_HEAD.unpack_from(body)
    if op not in OP_NAMES:
        raise ProtocolError(f"unknown opcode {op}")
    return op, request_id, budget, decode_payload(body[_REQ_HEAD.size:])


def encode_response(
    status: int, request_id: int, boot_id: int, flags: int, obj: Any
) -> bytes:
    """One response frame, length prefix included."""
    payload = encode_payload(obj)
    body = _RESP_HEAD.pack(status, request_id, boot_id, flags) + payload
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"response frame {len(body)}B exceeds {MAX_FRAME}B")
    return _LEN.pack(len(body)) + body


def decode_response(body: bytes) -> Tuple[int, int, int, int, Any]:
    """Parse a response body -> ``(status, request_id, boot_id, flags,
    payload)``."""
    if len(body) < _RESP_HEAD.size:
        raise ProtocolError(f"short response frame ({len(body)}B)")
    status, request_id, boot_id, flags = _RESP_HEAD.unpack_from(body)
    if status not in ST_NAMES:
        raise ProtocolError(f"unknown status {status}")
    return status, request_id, boot_id, flags, decode_payload(
        body[_RESP_HEAD.size:]
    )


def read_frame_blocking(sock: socket.socket) -> Optional[bytes]:
    """Read one frame body from a blocking socket.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ConnectionError` on EOF mid-frame (the peer died while
    talking) and :class:`ProtocolError` on an oversized length prefix.
    """
    head = _read_exact(sock, _LEN.size, eof_ok=True)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length}B exceeds {MAX_FRAME}B")
    body = _read_exact(sock, length, eof_ok=False)
    if body is None:  # pragma: no cover - eof_ok=False never returns None
        raise ConnectionError("peer closed mid-frame")
    return body


def _read_exact(sock: socket.socket, n: int, *, eof_ok: bool) -> Optional[bytes]:
    parts = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise ConnectionError(
                f"peer closed with {remaining}/{n}B of a frame outstanding"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


async def read_frame_async(
    reader: "asyncio.StreamReader",
) -> Optional[bytes]:
    """Read one frame body from an ``asyncio.StreamReader``.

    Same contract as :func:`read_frame_blocking`.
    """
    import asyncio

    try:
        head = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionError("peer closed mid-length-prefix") from exc
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length}B exceeds {MAX_FRAME}B")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("peer closed mid-frame") from exc
