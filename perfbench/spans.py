"""In-memory span recording around the program's public functions.

The traced run installs wrappers from this file around the calls into
each layer — in the benchmark process (client and in-process tree) and,
through ``serve_traced.py``, in the server process.  Each wrapper
records one span ``(span_id, name, start_ns, end_ns, parent_id, rid)``.
The parent is the span that was open in the same thread or asyncio task
when the call began (a ``ContextVar``, which asyncio copies into every
task); ``rid`` is the wire request id the span serves, when known.
Spans of plain and generator functions also record the CPU time their
thread spent inside them (``time.thread_time_ns``) when the workload
is served: the benchmark and the server share one core, so a span's
wall time can hold the other process's work, and per-layer self times
are taken from CPU time.
Spans stay in memory until the run ends.  Nothing under ``src/`` is
edited: wrappers replace class and module attributes at run time.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from array import array
from typing import Any, Callable, Iterator, Optional

#: Name of the synthetic per-request span in the server: from
#: ``decode_request`` entry to ``encode_response`` exit of one id.
REQUEST_SPAN = "net.server.request"


class SpanTable:
    """Spans in columns of int64 (a traced in-process run records about
    200 k per round); iterating yields ``(sid, name, start, end, parent,
    rid)`` tuples, with None for a missing parent or request id."""

    COLUMNS = ("sid", "start", "end", "parent", "rid", "cpu")

    def __init__(self) -> None:
        self.cols = {c: array("q") for c in self.COLUMNS}
        self.name_ids = array("H")
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._lock = threading.Lock()

    def append(self, sid: int, name: str, start: int, end: int,
               parent: Optional[int], rid: Optional[int],
               cpu: int = -1) -> None:
        index = self._name_index.get(name)
        with self._lock:
            if index is None:
                index = self._name_index.setdefault(name, len(self.names))
                if index == len(self.names):
                    self.names.append(name)
            c = self.cols
            c["sid"].append(sid)
            c["start"].append(start)
            c["end"].append(end)
            c["parent"].append(-1 if parent is None else parent)
            c["rid"].append(-1 if rid is None else rid)
            c["cpu"].append(cpu)
            self.name_ids.append(index)

    def __iter__(self) -> Iterator[tuple]:
        names, c = self.names, self.cols
        for sid, n, start, end, parent, rid in zip(
            c["sid"], self.name_ids, c["start"], c["end"], c["parent"],
            c["rid"],
        ):
            yield (sid, names[n], start, end,
                   None if parent < 0 else parent, None if rid < 0 else rid)

    def cpu_by_sid(self) -> dict[int, int]:
        """Thread CPU ns inside each span that recorded it."""
        return {sid: cpu for sid, cpu in zip(self.cols["sid"], self.cols["cpu"])
                if cpu >= 0}

    def to_json(self) -> dict:
        return {"names": self.names, "name_ids": self.name_ids.tolist(),
                **{k: v.tolist() for k, v in self.cols.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "SpanTable":
        table = cls()
        table.names = list(data["names"])
        table._name_index = {n: i for i, n in enumerate(table.names)}
        table.name_ids = array("H", data["name_ids"])
        table.cols = {k: array("q", data[k]) for k in cls.COLUMNS}
        return table


class Tracer:
    """Span recorder; one per process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 cpu_clock: Callable[[], int] = time.thread_time_ns) -> None:
        """``cpu_clock=int`` (always 0) records no CPU time: a process
        alone on its core needs none, and the CPU clock is a system
        call that slows the code around it."""
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans = SpanTable()
        self._ids = itertools.count(1)
        #: ``(span_id, rid)`` of the innermost open span, or None.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: Parent links for work handed to another thread by object
        #: identity (commit tickets waited on in an executor).
        self.handoff: dict[int, tuple] = {}
        self._request_start: dict[int, int] = {}
        #: Client request span id -> the wire request id it sent.
        self.span_rid: dict[int, int] = {}
        #: Bytes on the wire, counted at the client codec.
        self.wire_bytes = 0

    # -- recording -----------------------------------------------------

    def current(self) -> Optional[tuple]:
        return self._current.get()

    def record(self, name: str, start: int, end: int,
               parent: Optional[tuple], sid: Optional[int] = None,
               rid: Optional[int] = None, cpu: int = -1) -> int:
        sid = next(self._ids) if sid is None else sid
        if rid is None and parent is not None:
            rid = parent[1]
        self.spans.append(sid, name, start, end,
                          parent[0] if parent else None, rid, cpu)
        return sid

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable[[Any, tuple, int], None]] = None) -> Callable:
        """Wrap ``fn`` (plain, generator or coroutine function) so every
        call records a span named ``name``.  ``after(result, args, sid)``
        runs on normal return."""
        tracer = self
        thread_ns = self.cpu_clock
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = tracer._current.get()
                sid = next(tracer._ids)
                inner = fn(*args, **kwargs)
                first = last = None
                cpu = 0
                try:
                    while True:
                        c0 = thread_ns()
                        t0 = tracer.clock()
                        if first is None:
                            first = t0
                        try:
                            item = next(inner)
                        except StopIteration:
                            last = tracer.clock()
                            cpu += thread_ns() - c0
                            return
                        last = tracer.clock()
                        cpu += thread_ns() - c0
                        yield item
                finally:
                    if first is not None:
                        tracer.record(name, first, last, parent, sid,
                                      cpu=cpu)
            return gen_wrapper
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = tracer._current.get()
                sid = next(tracer._ids)
                token = tracer._current.set(
                    (sid, parent[1] if parent else None)
                )
                t0 = tracer.clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = tracer.clock()
                    tracer._current.reset(token)
                    tracer.record(name, t0, t1, parent, sid)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = tracer._current.get()
            sid = next(tracer._ids)
            token = tracer._current.set((sid, parent[1] if parent else None))
            c0 = thread_ns()
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = tracer.clock()
                cpu = thread_ns() - c0
                tracer._current.reset(token)
                tracer.record(name, t0, t1, parent, sid, cpu=cpu)
            if after is not None:
                after(result, args, sid)
            return result
        return wrapper

    # -- server request spans ------------------------------------------

    def wrap_decode_request(self, fn: Callable) -> Callable:
        """``decode_request`` opens the request span: the rest of the
        frame's task runs as its child, tagged with the request id."""
        tracer = self
        thread_ns = self.cpu_clock

        @functools.wraps(fn)
        def wrapper(body: bytes) -> Any:
            req = next(tracer._ids)
            c0 = thread_ns()
            t0 = tracer.clock()
            token = tracer._current.set((req, None))
            try:
                result = fn(body)
            finally:
                t1 = tracer.clock()
                cpu = thread_ns() - c0
                tracer._current.reset(token)
            rid = result[1]
            tracer.record("net.protocol.decode_request", t0, t1, (req, rid),
                          cpu=cpu)
            tracer._request_start[req] = t0
            # Set in the frame's task context: every later call in this
            # task (admission, apply, encode) nests under the request.
            tracer._current.set((req, rid))
            return result
        return wrapper

    def wrap_encode_response(self, fn: Callable) -> Callable:
        """``encode_response`` closes the request span of its id."""
        tracer = self
        thread_ns = self.cpu_clock

        @functools.wraps(fn)
        def wrapper(status: int, request_id: int, *rest: Any) -> Any:
            parent = tracer._current.get()
            c0 = thread_ns()
            t0 = tracer.clock()
            result = fn(status, request_id, *rest)
            t1 = tracer.clock()
            cpu = thread_ns() - c0
            tracer.record("net.protocol.encode_response", t0, t1, parent,
                          cpu=cpu)
            if parent is not None and parent[1] == request_id:
                start = tracer._request_start.pop(parent[0], None)
                if start is not None:
                    tracer.record(REQUEST_SPAN, start, t1, None,
                                  sid=parent[0], rid=request_id)
            return result
        return wrapper

    def wrap_ticket_wait(self, fn: Callable) -> Callable:
        """``CommitTicket.wait`` runs in an executor thread, outside the
        request's context: its parent comes from the submit that made
        the ticket (see :meth:`remember_ticket`)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(ticket: Any, *args: Any, **kwargs: Any) -> Any:
            parent = tracer.handoff.pop(id(ticket), None) or tracer._current.get()
            t0 = tracer.clock()
            try:
                return fn(ticket, *args, **kwargs)
            finally:
                tracer.record("wal.ticket_wait", t0, tracer.clock(), parent)
        return wrapper

    def calibrate(self, calls: int = 20_000) -> tuple[float, float]:
        """Median wall and CPU ns of a span around a call that does
        nothing: the wrapper's own cost inside each span, subtracted
        from self times."""
        probe = Tracer(self.clock, self.cpu_clock)
        noop = probe.wrap(lambda: None, "noop")
        for _ in range(calls):
            noop()
        walls = sorted(end - start for _s, _n, start, end, _p, _r
                       in probe.spans)
        cpus = sorted(probe.spans.cpu_by_sid().values())
        return float(walls[len(walls) // 2]), float(cpus[len(cpus) // 2])

    def remember_ticket(self, ticket: Any, _args: tuple, sid: int) -> None:
        cur = self._current.get()
        self.handoff[id(ticket)] = (cur[0], cur[1]) if cur else (sid, None)


def patch(owner: Any, attr: str, wrapper: Callable) -> None:
    """Replace ``owner.attr`` (keeps classmethods classmethods)."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrapper))
    else:
        setattr(owner, attr, wrapper)


def _func(owner: Any, attr: str) -> Callable:
    raw = inspect.getattr_static(owner, attr)
    return raw.__func__ if isinstance(raw, classmethod) else getattr(owner, attr)


#: Tree methods traced as the ``tree`` layer.
TREE_METHODS = ("insert", "insert_many", "get", "get_many", "range_iter")


def install_tree(tracer: Tracer, tree_class: type) -> None:
    for attr in TREE_METHODS:
        patch(tree_class, attr,
              tracer.wrap(_func(tree_class, attr), f"tree.{attr}"))


def install_client(tracer: Tracer) -> None:
    """Client-side spans: each logical request and the client codec."""
    from repro.net import client, protocol

    patch(client.QuitClient, "request",
          tracer.wrap(client.QuitClient.request, "net.client.request"))
    patch(client.QuitClient, "pipeline_insert_many",
          tracer.wrap(client.QuitClient.pipeline_insert_many,
                      "net.client.pipeline"))
    def sent(frame: bytes, args: tuple, _sid: int) -> None:
        tracer.wire_bytes += len(frame)
        cur = tracer.current()
        if cur is not None:
            tracer.span_rid[cur[0]] = args[1]

    def received(_result: Any, args: tuple, _sid: int) -> None:
        tracer.wire_bytes += len(args[0]) + 4  # + the length prefix

    patch(protocol, "encode_request",
          tracer.wrap(protocol.encode_request, "net.protocol.encode_request",
                      after=sent))
    patch(protocol, "decode_response",
          tracer.wrap(protocol.decode_response,
                      "net.protocol.decode_response", after=received))


def install_durable(tracer: Tracer, on_recover: Optional[Callable] = None) -> None:
    """``durable`` and ``wal`` spans (both processes use this)."""
    from repro.core import durable, wal

    D = durable.DurableTree
    for attr in ("submit_insert", "submit_delete", "submit_many"):
        patch(D, attr, tracer.wrap(_func(D, attr), f"durable.{attr}",
                                   after=tracer.remember_ticket))
    for attr in ("insert_many", "checkpoint"):
        patch(D, attr, tracer.wrap(_func(D, attr), f"durable.{attr}"))
    patch(D, "recover", tracer.wrap(_func(D, "recover"), "durable.recover",
                                    after=on_recover))
    W = wal.WriteAheadLog
    for attr in ("submit_insert", "submit_delete", "submit_insert_many"):
        patch(W, attr, tracer.wrap(_func(W, attr), f"wal.{attr}"))
    patch(wal.CommitTicket, "wait",
          tracer.wrap_ticket_wait(wal.CommitTicket.wait))


def install_server(tracer: Tracer, on_start: Callable) -> None:
    """Server-side spans: request codec, admission, and a hook that
    captures the :class:`QuitServer` once it starts."""
    from repro.net import protocol, server

    patch(protocol, "decode_request",
          tracer.wrap_decode_request(protocol.decode_request))
    patch(protocol, "encode_response",
          tracer.wrap_encode_response(protocol.encode_response))
    from repro.net.admission import AdmissionController

    patch(AdmissionController, "admit",
          tracer.wrap(AdmissionController.admit, "net.admission.admit"))
    start = server.QuitServer.start

    async def traced_start(self: Any) -> None:
        on_start(self)
        await start(self)
    patch(server.QuitServer, "start", traced_start)
