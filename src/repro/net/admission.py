"""Admission control for the network tier: budgets, shedding, queues.

The FB+-tree lesson applied at the RPC boundary: the slow path must
never stall the fast path.  Here that means a request the server cannot
start promptly is **refused fast** — a cheap ``RETRY_LATER`` with an
advisory backoff — instead of being queued without bound until every
client's deadline has silently expired and the work is done for nobody.

Three regimes, in order of consultation:

1. **shed** — the waiting queue is at/past ``queue_high_water`` (or the
   server is draining): refuse immediately, before any tree work, with
   an advisory backoff that grows with queue depth;
2. **queue** — a free slot is likely soon: wait for one, but never past
   the request's own deadline budget nor ``queue_wait`` (the *queue
   deadline* — a bound on how stale admitted work may be);
3. **admit** — an in-flight slot is held until :meth:`release`; the
   concurrent-admissions high-water mark is the ``net_inflight_max``
   stat the overload tests pin the budget with.

Everything here runs on the server's event loop thread, so the state
needs no locks (and adds none to ``LOCK_ORDER``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, fields

#: Floor of the advisory backoff (seconds) handed to shed clients;
#: :meth:`AdmissionController.advisory` scales it up with queue depth.
_ADVISORY_BASE = 0.05


class ShedError(RuntimeError):
    """The request was refused at admission (load shed or draining).

    ``advisory`` is the backoff (seconds) the server suggests before a
    retry; clients treat it as a floor under their own backoff.
    """

    def __init__(self, reason: str, advisory: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.advisory = advisory


class QueueDeadlineError(RuntimeError):
    """The request's deadline budget expired while waiting for a slot."""


@dataclass
class ServerStats:
    """Counters for one :class:`~repro.net.server.QuitServer` life.

    The ``net_*`` family mirrors the tree's ``TreeStats`` discipline:
    work-proportional counters, written only with declared field names
    (the ``stats-parity`` lint rule audits every write site).

    Attributes:
        net_connections: connections accepted over this server's life.
        net_requests: request frames admitted into a handler (sheds and
            protocol errors are counted separately, not here).
        net_reads: read-family ops served (get/get_many/scan/count/len).
        net_writes: mutation ops that reached the apply path.
        net_applied: mutations actually applied (writes minus dedups
            and refusals).
        net_dedup_hits: mutations answered from the idempotency table —
            a retry of an already-applied request, not re-applied.
        net_sheds: requests refused fast with ``RETRY_LATER`` (queue
            past high water, or draining).
        net_queue_waits: admissions that had to wait for a slot.
        net_deadline_refusals: requests refused because their deadline
            budget expired (at admission or before the ack settled).
        net_readonly_refusals: mutations refused because the store is
            read-only/failed (reads kept serving).
        net_fenced_refusals: mutations refused because this node was
            fenced by a newer epoch.
        net_quorum_refusals: mutations locally durable but refused an
            ack because the replica quorum could not confirm in time.
        net_errors: internal errors surfaced as ``ST_INTERNAL``.
        net_protocol_errors: frames rejected before dispatch.
        net_admin_ops: admin (chaos-control) ops served.
        net_inflight_max: high-water mark of concurrently admitted
            requests — never exceeds the configured budget.
        net_queued_max: high-water mark of requests waiting for a slot.
        net_drained_tickets: in-flight requests settled by a graceful
            drain before the listener shut down.
    """

    net_connections: int = 0
    net_requests: int = 0
    net_reads: int = 0
    net_writes: int = 0
    net_applied: int = 0
    net_dedup_hits: int = 0
    net_sheds: int = 0
    net_queue_waits: int = 0
    net_deadline_refusals: int = 0
    net_readonly_refusals: int = 0
    net_fenced_refusals: int = 0
    net_quorum_refusals: int = 0
    net_errors: int = 0
    net_protocol_errors: int = 0
    net_admin_ops: int = 0
    net_inflight_max: int = 0
    net_queued_max: int = 0
    net_drained_tickets: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (STATUS responses, reports)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class AdmissionController:
    """Bounded in-flight budget with queue deadlines and load shedding.

    Args:
        max_inflight: concurrent requests allowed past admission.
        queue_high_water: waiting requests beyond which new arrivals
            are shed instead of queued.
        queue_wait: the queue deadline — the longest any request may
            wait for a slot regardless of its own (longer) budget.
    """

    def __init__(
        self,
        *,
        max_inflight: int = 64,
        queue_high_water: int = 256,
        queue_wait: float = 1.0,
        stats: ServerStats,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        if queue_high_water < 0:
            raise ValueError(
                f"queue_high_water must be >= 0, got {queue_high_water}"
            )
        self.max_inflight = max_inflight
        self.queue_high_water = queue_high_water
        self.queue_wait = queue_wait
        self.stats = stats
        self.draining = False
        self._inflight = 0
        self._queued = 0
        self._sem = asyncio.Semaphore(max_inflight)

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def queued(self) -> int:
        return self._queued

    def advisory(self) -> float:
        """Suggested client backoff, proportional to the backlog."""
        depth = self._queued + self._inflight
        capacity = self.max_inflight + max(1, self.queue_high_water)
        return _ADVISORY_BASE * (1.0 + 4.0 * depth / capacity)

    async def admit(self, deadline: float) -> None:
        """Admit one request or refuse it; ``deadline`` is absolute
        (``time.monotonic()`` scale).

        Raises :class:`ShedError` (queue full / draining / queue
        deadline hit with budget left) or :class:`QueueDeadlineError`
        (the request's own budget expired while waiting).
        """
        stats = self.stats
        if self.draining:
            stats.net_sheds += 1
            raise ShedError("draining", _ADVISORY_BASE)
        # A request "would wait" when no slot is free OR someone is
        # already queued (a momentarily free slot belongs to the queue,
        # not to the newcomer).  Only those are measured against the
        # high water — ``queue_high_water=0`` therefore means "never
        # queue": admit straight into free slots, shed the rest.
        if (self._sem.locked() or self._queued > 0) and (
            self._queued >= self.queue_high_water
        ):
            stats.net_sheds += 1
            raise ShedError("queue past high water", self.advisory())
        budget = deadline - time.monotonic()
        if budget <= 0:
            stats.net_deadline_refusals += 1
            raise QueueDeadlineError("deadline expired before admission")
        if self._sem.locked():
            stats.net_queue_waits += 1
        self._queued += 1
        if self._queued > stats.net_queued_max:
            stats.net_queued_max = self._queued
        try:
            wait = min(budget, self.queue_wait)
            try:
                await asyncio.wait_for(self._sem.acquire(), wait)
            except asyncio.TimeoutError:
                if deadline - time.monotonic() <= 0:
                    stats.net_deadline_refusals += 1
                    raise QueueDeadlineError(
                        "deadline expired waiting for an admission slot"
                    ) from None
                # Budget remains but the queue deadline tripped: the
                # backlog is too old to keep growing — shed.
                stats.net_sheds += 1
                raise ShedError(
                    f"no admission slot within {self.queue_wait}s",
                    self.advisory(),
                ) from None
        finally:
            self._queued -= 1
        self._inflight += 1
        if self._inflight > stats.net_inflight_max:
            stats.net_inflight_max = self._inflight
        if self.draining:
            # Drain began while this request waited: hand the slot back
            # rather than starting work the shutdown must then outwait.
            self.release()
            stats.net_sheds += 1
            raise ShedError("draining", _ADVISORY_BASE)

    def release(self) -> None:
        """Return an admitted request's slot."""
        self._inflight -= 1
        self._sem.release()
