"""``QuitServer``: an asyncio socket front-end over a durable tree.

The server wraps a :class:`~repro.core.durable.DurableTree` (or a
:class:`~repro.replication.primary.Primary`) and speaks the
length-prefixed binary protocol of :mod:`repro.net.protocol`.  Its job
is *end-to-end request robustness* — the storage stack below already
survives crashes, disk faults, and failovers; this layer makes sure the
RPC boundary never converts those slow paths into a stalled fast path:

* **deadlines** — every request carries a budget; work that cannot
  finish inside it is refused (``ST_DEADLINE``), at admission if
  possible, so the server never burns capacity on answers nobody is
  waiting for;
* **admission control** — a bounded in-flight budget with queue
  deadlines and load shedding (:mod:`repro.net.admission`): past high
  water the server answers ``RETRY_LATER`` + advisory backoff in
  microseconds instead of queueing without bound;
* **idempotency** — retried mutations (same request id) are answered
  from a bounded dedup table with the original logical result, so
  at-least-once delivery from the client yields exactly-once apply
  per server tenure (cross-tenure retries re-apply upserts, which the
  WAL already guarantees is a state no-op);
* **pipelined durability** — mutations go through the ``submit_*`` /
  :class:`~repro.core.wal.CommitTicket` surface, so concurrent
  requests' fsyncs coalesce into group-commit batches, and (on a
  ``Primary``) quorum confirmation is amortized: one ``drain_acks``
  round settles every request submitted since the last round;
* **health integration** — a read-only (degraded-disk) store keeps
  serving reads while refusing writes with a typed ``ST_READ_ONLY``
  the client surfaces without retry;
* **graceful drain** — stop accepting, settle every in-flight ticket,
  checkpoint, exit clean (the ``quit-serve`` CLI wires SIGTERM/SIGINT
  into :meth:`QuitServer.request_drain_threadsafe`).

All server state lives on the event-loop thread — no new locks, no new
``LOCK_ORDER`` entries.  The only excursions off the loop are blocking
waits (ticket fsync acks, quorum drains, checkpoint) via the default
executor.
"""

from __future__ import annotations

import asyncio
import collections
import random
import threading
import time
from typing import Any, Optional

from ..concurrency import sanitizer
from ..core import codec
from ..core.health import ReadOnlyError
from ..core.wal import WALError
from ..testing import faults
from . import protocol
from .admission import (
    AdmissionController,
    QueueDeadlineError,
    ServerStats,
    ShedError,
)

#: Budget cap: a client may not park a request on the server for longer
#: than this regardless of the budget it framed (guards the drain and
#: the dedup table against immortal requests).
MAX_BUDGET = 60.0

#: Fallback budget for a frame that carries none (<= 0).
DEFAULT_BUDGET = 5.0

#: Retained idempotency results; the oldest fall out first (a retry
#: older than the window re-applies, which upsert/delete absorb).
_DEDUP_CAPACITY = 8192
#: Hard cap on items per SCAN page.
_SCAN_LIMIT_MAX = 4096
#: Longest a drain waits for in-flight requests before cancelling them.
_DRAIN_TIMEOUT = 30.0

#: The only sites the chaos admin may arm: disk faults, never a crash.
_ADMIN_IO_SITES = frozenset(faults.IO_WRITE_SITES + faults.IO_READ_SITES)

_READ_OPS = frozenset(
    {
        protocol.OP_GET,
        protocol.OP_GET_MANY,
        protocol.OP_SCAN,
        protocol.OP_COUNT,
        protocol.OP_LEN,
    }
)


class QuitServer:
    """Serve a durable tree (or replication primary) over a socket.

    Args:
        backend: a :class:`~repro.core.durable.DurableTree` or
            :class:`~repro.replication.primary.Primary`; anything with
            the ``get/get_many/range_page/count_range`` read surface
            and the ``submit_insert/submit_delete/submit_many`` write
            surface.  A ``SCAN`` page is one ``range_page`` call whose
            key and value columns are packed onto the wire as they
            are (:func:`~repro.core.codec.pack_page`).
        host / port: bind address (``port=0`` picks a free port,
            published as :attr:`port` after :meth:`start`).
        max_inflight / queue_high_water / queue_wait: admission knobs
            (see :class:`~repro.net.admission.AdmissionController`).
        admin: enable the chaos-control admin opcode (test harnesses
            only — never in production serving).

    A drain always ends with a checkpoint (snapshot + WAL truncate), so
    the next start replays ~nothing.
    """

    def __init__(
        self,
        backend: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        queue_high_water: int = 256,
        queue_wait: float = 1.0,
        admin: bool = False,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self.admin = admin
        self.boot_id = random.getrandbits(32)
        self.stats = ServerStats()
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            queue_high_water=queue_high_water,
            queue_wait=queue_wait,
            stats=self.stats,
        )
        #: Replicas the CLI attached (admin partition targets).
        self.replicas: list[Any] = []
        self._dedup: "collections.OrderedDict[int, tuple[int, int, Any]]" = (
            collections.OrderedDict()
        )
        self._inprogress: dict[int, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._drain_started = False
        self._drained: Optional[asyncio.Event] = None
        # Quorum amortization (Primary with required_acks > 0): waiters
        # registered between drain rounds are settled by one
        # ``drain_acks`` call each round.
        self._quorum = (
            getattr(backend, "required_acks", 0) > 0
            and hasattr(backend, "drain_acks")
        )
        #: Waiters registered for the next ack round, with their
        #: deadlines so the drain bridge can bound its own wait.
        self._ack_waiters: list[tuple[asyncio.Future, float]] = []
        self._ack_drainer: Optional[asyncio.Task] = None
        # Armed in start() under QUIT_SANITIZE=1: reports loop-thread
        # stalls (blocking work that dodged the executor) as sanitizer
        # violations.
        self._watchdog: Optional[sanitizer.LoopStallWatchdog] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port`."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._watchdog = sanitizer.make_loop_watchdog(self._loop)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_until_drained(self) -> None:
        """Block until a drain (requested via :meth:`drain` or
        :meth:`request_drain_threadsafe`) has fully settled."""
        if self._drained is None:
            raise RuntimeError("server not started")
        await self._drained.wait()

    def request_drain_threadsafe(self) -> None:
        """Schedule a graceful drain from any thread (signal handlers,
        test drivers).  Idempotent."""
        loop = self._loop
        if loop is None:
            raise RuntimeError("server not started")
        loop.call_soon_threadsafe(
            lambda: self._loop.create_task(self.drain())  # type: ignore[union-attr]
        )

    async def drain(self) -> int:
        """Graceful drain: stop accepting, refuse new work, settle every
        in-flight request (tickets included), checkpoint, release.

        Returns the number of in-flight requests that were settled
        (also recorded as ``net_drained_tickets``).  Idempotent; later
        calls return 0 immediately.
        """
        if self._drain_started:
            if self._drained is not None:
                await self._drained.wait()
            return 0
        self._drain_started = True
        self.admission.draining = True
        # 1. Stop accepting new connections.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # 2. Settle in-flight requests.  New frames on live connections
        #    are already being refused (admission shed: "draining").
        pending = [t for t in self._tasks if not t.done()]
        settled = len(pending)
        if pending:
            done, not_done = await asyncio.wait(
                pending, timeout=_DRAIN_TIMEOUT
            )
            for task in not_done:  # pragma: no cover - requires a hang
                task.cancel()
                settled -= 1
        self.stats.net_drained_tickets += settled
        # 3. Every ticket acked: barrier the WAL and leave a snapshot
        #    behind so restart replays ~nothing.
        checkpoint = getattr(self.backend, "checkpoint", None)
        if checkpoint is not None:
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, checkpoint)
            except (ReadOnlyError, WALError, OSError):
                # A drain on a degraded disk still settles and exits;
                # the WAL holds everything acked.
                pass
        # 4. Close lingering connections.
        for writer in list(self._conn_writers):
            try:
                writer.close()
            except Exception:  # pragma: no cover - best effort
                pass
        if self._watchdog is not None:
            self._watchdog.uninstall()
            self._watchdog = None
        if self._drained is not None:
            self._drained.set()
        return settled

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.net_connections += 1
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    body = await protocol.read_frame_async(reader)
                except (
                    protocol.ProtocolError,
                    ConnectionError,
                    asyncio.IncompleteReadError,
                ):
                    self.stats.net_protocol_errors += 1
                    break
                if body is None:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._serve_frame(body, writer, write_lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            self._conn_writers.discard(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover - best effort
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        status: int,
        request_id: int,
        flags: int,
        payload: Any,
    ) -> None:
        frame = protocol.encode_response(
            status, request_id, self.boot_id, flags, payload
        )
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(frame)
            try:
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client went away; nothing to do with the answer

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    async def _serve_frame(
        self,
        body: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            op, request_id, budget, payload = protocol.decode_request(body)
        except protocol.ProtocolError as exc:
            self.stats.net_protocol_errors += 1
            await self._respond(
                writer, write_lock, protocol.ST_BAD_REQUEST, 0, 0, str(exc)
            )
            return
        if budget <= 0 or budget != budget:  # NaN guard
            budget = DEFAULT_BUDGET
        deadline = time.monotonic() + min(budget, MAX_BUDGET)
        try:
            await self.admission.admit(deadline)
        except ShedError as exc:
            await self._respond(
                writer,
                write_lock,
                protocol.ST_RETRY_LATER,
                request_id,
                0,
                (round(exc.advisory, 4), exc.reason),
            )
            return
        except QueueDeadlineError as exc:
            await self._respond(
                writer, write_lock, protocol.ST_DEADLINE, request_id, 0, str(exc)
            )
            return
        try:
            status, flags, result = await self._dispatch(
                op, request_id, deadline, payload
            )
        except Exception as exc:  # pragma: no cover - defensive surface
            self.stats.net_errors += 1
            status, flags, result = protocol.ST_INTERNAL, 0, repr(exc)
        finally:
            self.admission.release()
        await self._respond(
            writer, write_lock, status, request_id, flags, result
        )

    async def _dispatch(
        self, op: int, request_id: int, deadline: float, payload: Any
    ) -> tuple[int, int, Any]:
        self.stats.net_requests += 1
        if op in _READ_OPS:
            self.stats.net_reads += 1
            return await self._serve_read(op, payload)
        if op in protocol.MUTATING_OPS:
            return await self._serve_mutation(op, request_id, deadline, payload)
        if op == protocol.OP_STATUS:
            return protocol.ST_OK, 0, self._status_payload()
        # check/scrub walk the whole tree (and scrub re-reads artifact
        # bytes): loop-thread poison, so both run in the executor.
        loop = asyncio.get_running_loop()
        if op == protocol.OP_CHECK:
            issues = await loop.run_in_executor(
                None, lambda: list(self.backend.check(check_min_fill=False))
            )
            return protocol.ST_OK, 0, issues
        if op == protocol.OP_SCRUB:
            report = await loop.run_in_executor(None, self.backend.scrub)
            return protocol.ST_OK, 0, {
                "variant": report.variant,
                "issues": list(report.issues),
                "repairs": report.repairs,
            }
        if op == protocol.OP_ADMIN:
            return await self._serve_admin(payload)
        self.stats.net_protocol_errors += 1
        return protocol.ST_BAD_REQUEST, 0, f"unhandled opcode {op}"

    # -- reads ---------------------------------------------------------

    async def _serve_read(self, op: int, payload: Any) -> tuple[int, int, Any]:
        backend = self.backend
        try:
            if op == protocol.OP_GET:
                key = payload
                sentinel = object()
                value = backend.get(key, sentinel)
                if value is sentinel:
                    return protocol.ST_OK, 0, (False, None)
                return protocol.ST_OK, 0, (True, value)
            if op == protocol.OP_GET_MANY:
                keys, default = payload
                return protocol.ST_OK, 0, backend.get_many(keys, default)
            if op == protocol.OP_SCAN:
                start, end, limit, exclusive = payload
                keys, values, done = backend.range_page(
                    start, end, max(1, min(int(limit), _SCAN_LIMIT_MAX)),
                    bool(exclusive),
                )
                page = codec.pack_page(keys, values, done)
                if page is None:
                    return protocol.ST_OK, 0, (list(zip(keys, values)), done)
                return protocol.ST_OK, 0, page
            if op == protocol.OP_COUNT:
                start, end = payload
                return protocol.ST_OK, 0, backend.count_range(start, end)
            if op == protocol.OP_LEN:
                return protocol.ST_OK, 0, len(backend)
        except (TypeError, ValueError) as exc:
            self.stats.net_protocol_errors += 1
            return protocol.ST_BAD_REQUEST, 0, f"bad read payload: {exc}"
        return protocol.ST_BAD_REQUEST, 0, f"unhandled read op {op}"

    # -- mutations -----------------------------------------------------

    async def _serve_mutation(
        self, op: int, request_id: int, deadline: float, payload: Any
    ) -> tuple[int, int, Any]:
        self.stats.net_writes += 1
        # Dedup first: a retry of an applied mutation must not touch
        # the tree again, whatever the health or load situation.
        cached = self._dedup.get(request_id)
        if cached is not None:
            self.stats.net_dedup_hits += 1
            status, _flags, result = cached
            return status, protocol.FLAG_DEDUPED, result
        racing = self._inprogress.get(request_id)
        if racing is not None:
            # The first delivery is still applying (client timed out
            # early and retried): piggyback on its outcome.
            self.stats.net_dedup_hits += 1
            try:
                status, _flags, result = await asyncio.wait_for(
                    asyncio.shield(racing), max(0.0, deadline - time.monotonic())
                )
            except asyncio.TimeoutError:
                self.stats.net_deadline_refusals += 1
                return (
                    protocol.ST_DEADLINE,
                    0,
                    "deadline expired awaiting the original delivery",
                )
            return status, protocol.FLAG_DEDUPED, result
        if time.monotonic() >= deadline:
            self.stats.net_deadline_refusals += 1
            return protocol.ST_DEADLINE, 0, "deadline expired before apply"
        loop = asyncio.get_running_loop()
        outcome: asyncio.Future = loop.create_future()
        self._inprogress[request_id] = outcome
        try:
            result_triple = await self._apply_mutation(op, deadline, payload)
        except BaseException as exc:
            if not outcome.done():
                outcome.set_exception(exc)
                # A piggybacked retry may or may not be waiting; either
                # way the exception must not be "unretrieved".
                outcome.exception()
            raise
        else:
            if not outcome.done():
                outcome.set_result(result_triple)
        finally:
            self._inprogress.pop(request_id, None)
        status, flags, result = result_triple
        if status == protocol.ST_OK:
            self._remember(request_id, (status, flags, result))
        return status, flags, result

    def _remember(self, request_id: int, triple: tuple[int, int, Any]) -> None:
        table = self._dedup
        table[request_id] = triple
        table.move_to_end(request_id)
        while len(table) > _DEDUP_CAPACITY:
            table.popitem(last=False)

    async def _apply_mutation(
        self, op: int, deadline: float, payload: Any
    ) -> tuple[int, int, Any]:
        backend = self.backend
        try:
            # Submits only append + enqueue under the served
            # fsync='group' policy; the blocking part (the fsync ack)
            # is awaited off-loop in _await_ticket.
            if op == protocol.OP_PUT:
                key, value = payload
                ticket = backend.submit_insert(key, value)  # loop-safe: group-commit enqueue
            elif op == protocol.OP_DELETE:
                ticket = backend.submit_delete(payload)  # loop-safe: group-commit enqueue
            else:  # OP_PUT_MANY
                # submit_many re-lists the batch itself; a bad shape
                # raises TypeError/ValueError into the handler below.
                ticket = backend.submit_many(payload)  # loop-safe: group-commit enqueue
        except ReadOnlyError as exc:
            self.stats.net_readonly_refusals += 1
            return protocol.ST_READ_ONLY, 0, str(exc)
        except (TypeError, ValueError) as exc:
            self.stats.net_protocol_errors += 1
            return protocol.ST_BAD_REQUEST, 0, f"bad mutation payload: {exc}"
        except Exception as exc:
            refused = self._classify_write_failure(exc)
            if refused is not None:
                return refused
            raise
        # Local durability: group-commit tickets resolve when their
        # batch's fsync lands; other policies return resolved tickets.
        try:
            await self._await_ticket(ticket, deadline)
        except ReadOnlyError as exc:
            self.stats.net_readonly_refusals += 1
            return protocol.ST_READ_ONLY, 0, str(exc)
        except WALError as exc:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stats.net_deadline_refusals += 1
                return (
                    protocol.ST_DEADLINE,
                    0,
                    "deadline expired before the fsync ack",
                )
            self.stats.net_errors += 1
            return protocol.ST_INTERNAL, 0, f"durability failure: {exc}"
        # Quorum confirmation (Primary in sync mode), amortized: one
        # drain round settles every concurrently submitted request.
        if self._quorum:
            refused = await self._await_quorum(deadline)
            if refused is not None:
                return refused
        self.stats.net_applied += 1
        return protocol.ST_OK, protocol.FLAG_APPLIED, ticket.value

    def _classify_write_failure(
        self, exc: Exception
    ) -> Optional[tuple[int, int, Any]]:
        """Map replication-layer refusals to wire statuses (imported
        lazily so ``repro.net`` does not require ``repro.replication``)."""
        from ..replication import AckQuorumError, FencedError

        if isinstance(exc, FencedError):
            self.stats.net_fenced_refusals += 1
            return protocol.ST_FENCED, 0, str(exc)
        if isinstance(exc, AckQuorumError):
            self.stats.net_quorum_refusals += 1
            return (
                protocol.ST_RETRY_LATER,
                0,
                (self.admission.advisory(), f"quorum: {exc}"),
            )
        return None

    async def _await_ticket(self, ticket: Any, deadline: float) -> None:
        if ticket.done():
            ticket.wait(0)  # loop-safe: already resolved, re-raises without blocking
            return
        remaining = max(0.001, deadline - time.monotonic())
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, ticket.wait, remaining)

    async def _await_quorum(
        self, deadline: float
    ) -> Optional[tuple[int, int, Any]]:
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._ack_waiters.append((fut, deadline))
        if self._ack_drainer is None or self._ack_drainer.done():
            self._ack_drainer = loop.create_task(self._drain_ack_rounds())
        try:
            await asyncio.wait_for(
                asyncio.shield(fut), max(0.001, deadline - time.monotonic())
            )
        except asyncio.TimeoutError:
            self.stats.net_deadline_refusals += 1
            return (
                protocol.ST_DEADLINE,
                0,
                "deadline expired before quorum confirmation",
            )
        except Exception as exc:
            refused = self._classify_write_failure(exc)
            if refused is not None:
                return refused
            self.stats.net_errors += 1
            return protocol.ST_INTERNAL, 0, f"quorum failure: {exc}"
        return None

    async def _drain_ack_rounds(self) -> None:
        """One ``drain_acks`` executor round per batch of waiters."""
        loop = asyncio.get_running_loop()
        while self._ack_waiters:
            waiters, self._ack_waiters = self._ack_waiters, []
            # The round is bounded by the latest waiter deadline (every
            # earlier one gives up via its own wait_for), capped so a
            # rogue budget can never pin the executor slot.
            horizon = max(dl for _fut, dl in waiters) - time.monotonic()
            budget = max(0.001, min(horizon, MAX_BUDGET))
            try:
                await loop.run_in_executor(
                    None, self.backend.drain_acks, budget
                )
            except Exception as exc:
                for fut, _dl in waiters:
                    if not fut.done():
                        fut.set_exception(exc)
                        fut.exception()  # consumed by _await_quorum or nobody
            else:
                for fut, _dl in waiters:
                    if not fut.done():
                        fut.set_result(None)

    # -- status / admin ------------------------------------------------

    def _status_payload(self) -> dict:
        backend = self.backend
        durable = getattr(backend, "durable", backend)
        health = getattr(durable, "health", None)
        payload = {
            "role": "primary" if hasattr(backend, "drain_acks") else "durable",
            "entries": len(backend),
            "boot_id": self.boot_id,
            "draining": self.admission.draining,
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "health": health.state.value if health is not None else "n/a",
            "stats": self.stats.as_dict(),
        }
        epoch = getattr(backend, "epoch", None)
        if epoch is not None:
            payload["epoch"] = epoch
        return payload

    async def _serve_admin(self, payload: Any) -> tuple[int, int, Any]:
        if not self.admin:
            self.stats.net_protocol_errors += 1
            return protocol.ST_BAD_REQUEST, 0, "admin surface disabled"
        self.stats.net_admin_ops += 1
        try:
            cmd, *args = payload
            if cmd == "sleep":
                await asyncio.sleep(float(args[0]))
                return protocol.ST_OK, 0, None
            if cmd == "iofault_arm":
                site, kind, kwargs = args
                # Disk faults only: a remote request must never arm a
                # SimulatedCrash (a BaseException) into the serving
                # process, nor reach a control-flow site.
                if (site not in _ADMIN_IO_SITES
                        or kind not in faults.DISK_KINDS):
                    self.stats.net_protocol_errors += 1
                    return (
                        protocol.ST_BAD_REQUEST, 0,
                        f"admin may arm only io.* disk faults, not "
                        f"{kind!r} at {site!r}",
                    )
                faults.arm(site, kind, **dict(kwargs))
                return protocol.ST_OK, 0, None
            if cmd == "iofault_disarm":
                if args[0] in _ADMIN_IO_SITES:
                    faults.disarm(args[0])
                return protocol.ST_OK, 0, None
            if cmd == "partition":
                index, severed = int(args[0]), bool(args[1])
                transport = self.replicas[index].transport
                if severed:
                    transport.partition()
                else:
                    transport.heal()
                return protocol.ST_OK, 0, None
        except (IndexError, TypeError, ValueError, KeyError) as exc:
            self.stats.net_protocol_errors += 1
            return protocol.ST_BAD_REQUEST, 0, f"bad admin payload: {exc}"
        self.stats.net_protocol_errors += 1
        return protocol.ST_BAD_REQUEST, 0, f"unknown admin command {payload!r}"


class BackgroundServer:
    """Run a :class:`QuitServer` on a daemon thread with its own loop.

    The in-process analogue of ``quit-serve serve`` — tests, examples,
    and the network bench use it to get a live port without forking::

        with BackgroundServer(durable) as bg:
            client = QuitClient("127.0.0.1", bg.port)
            ...

    ``stop()`` performs the same graceful drain the CLI performs on
    SIGTERM; ``kill()`` abandons the loop without settling (the chaos
    tests' stand-in for SIGKILL — note the backend's group flusher, if
    any, keeps running until the owner aborts/closes the backend).
    """

    def __init__(self, backend: Any, **server_kwargs: Any) -> None:
        self._backend = backend
        self._kwargs = server_kwargs
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self.server: Optional[QuitServer] = None

    @property
    def port(self) -> int:
        if self.server is None:
            raise RuntimeError("server not started")
        return self.server.port

    @property
    def stats(self) -> ServerStats:
        if self.server is None:
            raise RuntimeError("server not started")
        return self.server.stats

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="quit-net-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(10.0):
            raise RuntimeError("background server failed to start in 10s")
        if self._failure is not None:
            raise RuntimeError("background server failed") from self._failure
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._failure = exc
            self._started.set()

    async def _main(self) -> None:
        self.server = QuitServer(self._backend, **self._kwargs)
        await self.server.start()
        self._started.set()
        await self.server.serve_until_drained()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain, then join the loop thread."""
        if self.server is not None and self._thread is not None:
            if self._thread.is_alive():
                self.server.request_drain_threadsafe()
            self._thread.join(timeout)
            if self._thread.is_alive():  # pragma: no cover - hang guard
                raise RuntimeError("background server did not drain in time")

    def kill(self) -> None:
        """Abandon without settling: close the listener and every
        connection so clients see resets, exactly like a process kill.
        The loop thread is left to unwind as a daemon."""
        server = self.server
        if server is None or server._loop is None:
            return

        def _slam() -> None:
            server.admission.draining = True
            if server._watchdog is not None:
                server._watchdog.uninstall()
                server._watchdog = None
            if server._server is not None:
                server._server.close()
            for writer in list(server._conn_writers):
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            for task in list(server._tasks):
                task.cancel()
            if server._drained is not None:
                server._drained.set()

        try:
            server._loop.call_soon_threadsafe(_slam)
        except RuntimeError:  # loop already closed
            return
        if self._thread is not None:
            self._thread.join(5.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
