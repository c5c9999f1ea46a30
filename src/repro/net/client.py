"""``QuitClient``: a resilient synchronous client for ``QuitServer``.

The client mirrors the tree facade surface (``get`` / ``insert`` /
``delete`` / ``get_many`` / ``insert_many`` / ``range_query`` /
``range_iter`` / ``count_range`` / ``check`` / ``scrub``) over the
:mod:`repro.net.protocol` wire format, and makes every call robust
end-to-end:

* **deadlines** — each logical request gets a wall-clock budget
  (``deadline`` seconds, per call or per client); every attempt frames
  the *remaining* budget so the server can refuse work it cannot finish
  in time, and the client never blocks past it;
* **idempotency ids** — one random 64-bit id per logical request,
  reused verbatim on every retry, so the server's dedup table turns
  at-least-once delivery into exactly-once apply;
* **retries** — transient failures (connection reset/refused, read
  timeout, server ``RETRY_LATER`` shed, server-side deadline with
  budget left here) are retried with the storage stack's own
  :class:`~repro.core.health.RetryPolicy` (capped exponential backoff
  under the request deadline).  Typed refusals that retrying cannot fix
  — ``ST_READ_ONLY``, ``ST_FENCED``, bad requests — surface
  immediately as :class:`ServerReadOnlyError` / :class:`ServerFencedError`
  / :class:`RequestError` without burning a single retry.

``RetryPolicy`` only retries transient ``OSError``s, so the transport
layer normalizes every retryable network failure into
:class:`TransientNetworkError` (an ``OSError`` with ``EAGAIN``) before
handing it to the policy; the typed server refusals are *not*
``OSError``s and pass straight through.  When the policy gives up it
raises the stack's ``ReadOnlyError`` — the client converts that into
:class:`RetriesExhaustedError` so callers can tell "my retries ran out"
from "the server is read-only".
"""

from __future__ import annotations

import dataclasses
import errno
import random
import socket
import time
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from ..core.health import ReadOnlyError, RetryPolicy
from . import protocol


class NetError(RuntimeError):
    """Base for every typed client-side network error."""


class DeadlineError(NetError):
    """The request's deadline budget expired without a definitive
    answer.  A mutation may or may not have applied — re-issuing the
    *same logical request* (same client call pattern) is safe because
    retries reuse the idempotency id within a call, but a fresh call is
    a fresh id."""


class RetriesExhaustedError(NetError):
    """Transient failures persisted past the retry policy's attempt and
    deadline budget.  The last transport failure is chained."""


class ServerReadOnlyError(NetError):
    """The server refused the mutation: its store is read-only or
    failed (disk degraded past retry).  Not retried — the condition
    outlives any sane backoff; reads still work."""


class ServerFencedError(NetError):
    """The server refused the mutation: it was fenced by a newer
    epoch.  Not retried — this node will never ack again; a director
    must point the client at the new primary."""


class RequestError(NetError):
    """The server rejected or failed the request for a non-retryable
    reason (malformed payload, internal error)."""


class TransientNetworkError(OSError):
    """A retryable transport-level failure, normalized so
    :class:`~repro.core.health.RetryPolicy` (which retries transient
    ``OSError``s by errno) drives the backoff."""

    def __init__(self, message: str) -> None:
        super().__init__(errno.EAGAIN, message)


class Ack(NamedTuple):
    """Full acknowledgement detail for one mutation (soak-harness
    surface; the plain API methods unwrap ``result``).

    ``applied`` — this delivery performed the apply; ``deduped`` — a
    retry was answered from the server's idempotency table (the apply
    happened on an earlier delivery); ``boot_id`` — the answering
    server tenure; ``request_id`` — the idempotency id used.
    """

    applied: bool
    deduped: bool
    boot_id: int
    request_id: int
    result: Any


#: Client-side retry: more patient than the storage stack's (network
#: blips outlast disk blips); its ``deadline`` field is re-derived per
#: request from the request budget.
_RETRY = RetryPolicy(attempts=8, base_delay=0.01, max_delay=0.25, deadline=5.0)
#: Cap on a single TCP connect (seconds).
_CONNECT_TIMEOUT = 2.0
#: Keys fetched per SCAN page by :meth:`QuitClient.range_iter`.
_SCAN_PAGE = 512


class QuitClient:
    """Synchronous client for a :class:`~repro.net.server.QuitServer`.

    Args:
        host / port: server address.
        deadline: default per-request wall-clock budget (seconds);
            every public method takes a ``deadline=`` override.

    One socket, lazily (re)connected; any transport error closes it so
    the next attempt starts clean.  Not thread-safe — use one client
    per thread (they are cheap)."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        deadline: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.deadline = deadline
        #: boot id of the last server tenure that answered; the soak
        #: harness watches it change across kills/restarts.
        self.last_boot_id: Optional[int] = None
        self._sock: Optional[socket.socket] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass

    def __enter__(self) -> "QuitClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _connected(self, budget: float) -> socket.socket:
        if self._sock is not None:
            return self._sock
        timeout = max(0.001, min(_CONNECT_TIMEOUT, budget))
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
        except OSError as exc:
            raise TransientNetworkError(f"connect failed: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def _exchange(
        self, op: int, request_id: int, payload: Any, deadline: float
    ) -> tuple[int, int, Any]:
        """One attempt: send one frame, read until its response.

        Any transport failure closes the socket and surfaces as
        :class:`TransientNetworkError`; returns ``(status, flags,
        payload)`` and records the answering boot id."""
        budget = deadline - time.monotonic()
        if budget <= 0:
            raise DeadlineError(
                f"deadline expired before sending "
                f"{protocol.OP_NAMES.get(op, op)}"
            )
        sock = self._connected(budget)
        frame = protocol.encode_request(op, request_id, budget, payload)
        try:
            sock.settimeout(max(0.001, budget))
            sock.sendall(frame)
            while True:
                body = protocol.read_frame_blocking(sock)
                if body is None:
                    raise ConnectionError("server closed the connection")
                status, rid, boot_id, flags, resp = protocol.decode_response(
                    body
                )
                if rid != request_id and rid != 0:
                    continue  # stale response from an earlier attempt
                self.last_boot_id = boot_id
                return status, flags, resp
        except (ConnectionError, TimeoutError, socket.timeout) as exc:
            self.close()
            raise TransientNetworkError(f"transport failure: {exc}") from exc
        except OSError as exc:
            self.close()
            if exc.errno in (errno.EPIPE, errno.ECONNRESET, errno.ECONNABORTED):
                raise TransientNetworkError(
                    f"transport failure: {exc}"
                ) from exc
            raise

    # ------------------------------------------------------------------
    # Request core: deadline + idempotency id + retry policy
    # ------------------------------------------------------------------

    def request(
        self, op: int, payload: Any, *, deadline: Optional[float] = None
    ) -> Ack:
        """Issue one logical request with full robustness semantics.

        Allocates the idempotency id, then drives attempts through the
        retry policy until an answer, a typed refusal, or the deadline.
        Raises the typed errors documented on this module; returns an
        :class:`Ack` on success.
        """
        budget = self.deadline if deadline is None else deadline
        until = time.monotonic() + budget
        request_id = random.getrandbits(63) | 1
        policy = dataclasses.replace(_RETRY, deadline=budget)

        def attempt() -> Ack:
            status, flags, resp = self._exchange(op, request_id, payload, until)
            if status == protocol.ST_OK:
                return Ack(
                    applied=bool(flags & protocol.FLAG_APPLIED),
                    deduped=bool(flags & protocol.FLAG_DEDUPED),
                    boot_id=self.last_boot_id or 0,
                    request_id=request_id,
                    result=resp,
                )
            if status == protocol.ST_RETRY_LATER:
                advisory, reason = resp
                remaining = until - time.monotonic()
                if remaining <= 0:
                    raise DeadlineError(f"shed and out of budget: {reason}")
                # Honor the server's advisory as a floor under the
                # policy's own backoff, without blowing the budget.
                time.sleep(min(float(advisory), max(0.0, remaining - 0.001)))
                raise TransientNetworkError(f"server shed load: {reason}")
            if status == protocol.ST_DEADLINE:
                if until - time.monotonic() > 0:
                    # The *server* refused for time (queue wait, fsync
                    # stall) but our budget remains: retrying the same
                    # id is safe and may land on a less loaded moment.
                    raise TransientNetworkError(
                        f"server-side deadline: {resp}"
                    )
                raise DeadlineError(str(resp))
            if status == protocol.ST_READ_ONLY:
                raise ServerReadOnlyError(str(resp))
            if status == protocol.ST_FENCED:
                raise ServerFencedError(str(resp))
            raise RequestError(
                f"{protocol.ST_NAMES.get(status, status)}: {resp}"
            )

        try:
            return policy.run(attempt)
        except ReadOnlyError as exc:
            # The policy's exhaustion signal, not a server refusal
            # (that one is ServerReadOnlyError and skips the policy).
            raise RetriesExhaustedError(
                f"{protocol.OP_NAMES.get(op, op)} still failing after "
                f"{policy.attempts} attempt(s) / {budget:.3f}s"
            ) from (exc.__cause__ or exc)

    # ------------------------------------------------------------------
    # Read surface (mirrors the tree facade)
    # ------------------------------------------------------------------

    def get(self, key: Any, default: Any = None, *,
            deadline: Optional[float] = None) -> Any:
        found, value = self.request(protocol.OP_GET, key, deadline=deadline).result
        return value if found else default

    def __getitem__(self, key: Any) -> Any:
        found, value = self.request(protocol.OP_GET, key).result
        if not found:
            raise KeyError(key)
        return value

    def __contains__(self, key: Any) -> bool:
        found, _ = self.request(protocol.OP_GET, key).result
        return bool(found)

    def get_many(self, keys: Iterable[Any], default: Any = None, *,
                 deadline: Optional[float] = None) -> list:
        payload = (list(keys), default)
        return list(
            self.request(protocol.OP_GET_MANY, payload, deadline=deadline).result
        )

    def _scan_pages(self, start: Any, end: Any,
                    deadline: Optional[float]) -> Iterator[list]:
        """The entries of ``[start, end)`` one ``SCAN`` page at a time
        (each page gets a fresh deadline budget; the cursor resumes
        after the last key)."""
        cursor, exclusive = start, False
        while True:
            items, done = self.request(
                protocol.OP_SCAN,
                (cursor, end, _SCAN_PAGE, exclusive),
                deadline=deadline,
            ).result
            yield items
            if done:
                return
            cursor, exclusive = items[-1][0], True

    def range_iter(self, start: Any, end: Any, *,
                   deadline: Optional[float] = None) -> Iterator[tuple]:
        """Lazy range scan, paged over SCAN requests."""
        for items in self._scan_pages(start, end, deadline):
            yield from items

    def range_query(self, start: Any, end: Any, *,
                    deadline: Optional[float] = None) -> list:
        out: list = []
        for items in self._scan_pages(start, end, deadline):
            out += items
        return out

    def count_range(self, start: Any, end: Any, *,
                    deadline: Optional[float] = None) -> int:
        return self.request(
            protocol.OP_COUNT, (start, end), deadline=deadline
        ).result

    def __len__(self) -> int:
        return self.request(protocol.OP_LEN, None).result

    # ------------------------------------------------------------------
    # Mutation surface
    # ------------------------------------------------------------------

    def insert(self, key: Any, value: Any = None, *,
               deadline: Optional[float] = None) -> None:
        self.insert_acked(key, value, deadline=deadline)

    def __setitem__(self, key: Any, value: Any) -> None:
        self.insert(key, value)

    def insert_acked(self, key: Any, value: Any = None, *,
                     deadline: Optional[float] = None) -> Ack:
        """Upsert, returning the full :class:`Ack` (the soak harness
        records ``applied``/``deduped``/``boot_id`` per request)."""
        return self.request(protocol.OP_PUT, (key, value), deadline=deadline)

    def delete(self, key: Any, *, deadline: Optional[float] = None) -> bool:
        return bool(self.delete_acked(key, deadline=deadline).result)

    def delete_acked(self, key: Any, *,
                     deadline: Optional[float] = None) -> Ack:
        """Delete, returning the full :class:`Ack`; ``result`` is the
        existed-bool from the apply (preserved across dedup)."""
        return self.request(protocol.OP_DELETE, key, deadline=deadline)

    def insert_many(self, items: Iterable[tuple], *,
                    deadline: Optional[float] = None) -> int:
        """Batched upsert: one frame, one WAL record, one group-commit
        slot server-side.  Returns the number of new keys added (the
        original apply's count, preserved across dedup)."""
        batch = [(k, v) for k, v in items]
        if not batch:
            return 0
        return int(
            self.request(protocol.OP_PUT_MANY, batch, deadline=deadline).result
        )

    # ------------------------------------------------------------------
    # Pipelined ingest (bench / bulk surface)
    # ------------------------------------------------------------------

    def pipeline_insert_many(
        self,
        batches: Iterable[list],
        *,
        window: int = 32,
        deadline: Optional[float] = None,
    ) -> int:
        """Send PUT_MANY frames keeping up to ``window`` outstanding.

        The network analogue of the in-process submit/drain pattern:
        frames stream into the server's admission window and group
        commit batches them; responses (possibly out of order) are
        collected by id.  Returns the summed added-count.  Happy-path
        surface: a transport failure or refusal raises without internal
        retry — bulk loads re-run; they do not need per-frame dedup.
        """
        budget = self.deadline if deadline is None else deadline
        until = time.monotonic() + budget
        outstanding: dict[int, None] = {}
        total = 0

        def reap(block_until_below: int) -> int:
            reaped = 0
            sock = self._sock
            while sock is not None and len(outstanding) > block_until_below:
                remaining = until - time.monotonic()
                if remaining <= 0:
                    raise DeadlineError("pipeline deadline expired")
                sock.settimeout(max(0.001, remaining))
                body = protocol.read_frame_blocking(sock)
                if body is None:
                    raise ConnectionError("server closed mid-pipeline")
                status, rid, boot_id, flags, resp = (
                    protocol.decode_response(body)
                )
                self.last_boot_id = boot_id
                if rid not in outstanding:
                    continue
                del outstanding[rid]
                if status != protocol.ST_OK:
                    raise RequestError(
                        f"pipelined put_many refused: "
                        f"{protocol.ST_NAMES.get(status, status)}: {resp}"
                    )
                reaped += int(resp)
            return reaped

        try:
            for batch in batches:
                remaining = until - time.monotonic()
                if remaining <= 0:
                    raise DeadlineError("pipeline deadline expired")
                sock = self._connected(remaining)
                rid = random.getrandbits(63) | 1
                frame = protocol.encode_request(
                    protocol.OP_PUT_MANY, rid, remaining, list(batch)
                )
                sock.settimeout(max(0.001, remaining))
                sock.sendall(frame)
                outstanding[rid] = None
                if len(outstanding) >= window:
                    total += reap(window - 1)
            total += reap(0)
        except (ConnectionError, TimeoutError, socket.timeout, OSError):
            self.close()
            raise
        return total

    # ------------------------------------------------------------------
    # Introspection / maintenance surface
    # ------------------------------------------------------------------

    def status(self, *, deadline: Optional[float] = None) -> dict:
        return dict(self.request(protocol.OP_STATUS, None, deadline=deadline).result)

    def check(self, check_min_fill: bool = False, *,
              deadline: Optional[float] = None) -> list[str]:
        del check_min_fill  # the server audits without min-fill, like recovery
        return list(self.request(protocol.OP_CHECK, None, deadline=deadline).result)

    def scrub(self, *, deadline: Optional[float] = None) -> dict:
        return dict(self.request(protocol.OP_SCRUB, None, deadline=deadline).result)

    def admin(self, *command: Any, deadline: Optional[float] = None) -> Any:
        """Chaos-control side channel (server must run ``admin=True``)."""
        return self.request(
            protocol.OP_ADMIN, tuple(command), deadline=deadline
        ).result
