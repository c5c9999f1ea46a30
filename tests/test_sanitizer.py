"""Runtime lock-sanitizer tests: every violation kind is detectable,
lock wrappers report correctly, and a real concurrent workload under
the canonical discipline stays violation-free."""

import threading

import pytest

from repro.concurrency import sanitizer
from repro.concurrency.concurrent_tree import ConcurrentTree
from repro.concurrency.locks import RWLock, StripedLocks
from repro.core import QuITTree


@pytest.fixture
def sanitized():
    """Enable the sanitizer for one test, restoring prior state after."""
    was_enabled = sanitizer.enabled()
    sanitizer.enable()
    sanitizer.reset()
    yield
    sanitizer.take_violations()
    sanitizer.reset()
    if not was_enabled:
        sanitizer.disable()


def kinds():
    return [v.kind for v in sanitizer.violations()]


def test_factory_returns_plain_lock_when_disabled():
    was_enabled = sanitizer.enabled()
    sanitizer.disable()
    try:
        lock = sanitizer.make_lock("t.plain")
        assert not isinstance(lock, sanitizer.SanitizedLock)
    finally:
        if was_enabled:
            sanitizer.enable()


def test_factory_returns_sanitized_lock_when_enabled(sanitized):
    lock = sanitizer.make_lock("t.audited")
    assert isinstance(lock, sanitizer.SanitizedLock)
    with lock:
        assert "t.audited" in sanitizer.held_locks()
    assert "t.audited" not in sanitizer.held_locks()


def test_order_inversion_via_graph(sanitized):
    a = sanitizer.SanitizedLock("t.a")
    b = sanitizer.SanitizedLock("t.b")
    with a:
        with b:
            pass
    assert kinds() == []  # first order observed: no violation yet
    with b:
        with a:
            pass
    assert "order-inversion" in kinds()
    (v,) = sanitizer.take_violations()
    assert "'t.b' -> 't.a'" in v.message
    assert v.other_stack  # carries the earlier opposite-order stack


def test_rank_inversion_against_canonical_order(sanitized):
    outer = sanitizer.SanitizedLock("wal.append")
    inner = sanitizer.SanitizedLock("durable.gate")
    with outer:
        with inner:
            pass
    assert "rank-inversion" in kinds()


def test_canonical_order_is_silent(sanitized):
    gate = sanitizer.SanitizedLock("durable.gate")
    wal = sanitizer.SanitizedLock("wal.append")
    with gate:
        with wal:
            pass
    assert sanitizer.take_violations() == []


def test_self_reacquire(sanitized):
    # Two distinct mutexes sharing one name model the striped-pool
    # convention (all stripes report as one lock) without deadlocking.
    first = sanitizer.SanitizedLock("t.stripe")
    second = sanitizer.SanitizedLock("t.stripe")
    with first:
        with second:
            pass
    assert "self-reacquire" in kinds()


def test_fsync_hazard_under_short_lock(sanitized):
    meta = sanitizer.SanitizedLock("concurrent.meta")
    with meta:
        sanitizer.note_fsync("test.site")
    (v,) = sanitizer.take_violations()
    assert v.kind == "fsync-under-lock"
    assert "concurrent.meta" in v.message


def test_fsync_under_coarse_gate_is_designed(sanitized):
    gate = sanitizer.SanitizedLock("durable.gate")
    with gate:
        sanitizer.note_fsync("test.site")
    assert sanitizer.take_violations() == []


def test_note_fsync_noop_when_disabled():
    was_enabled = sanitizer.enabled()
    sanitizer.disable()
    try:
        before = sanitizer.counters()["fsync_checks"]
        sanitizer.note_fsync("test.site")
        assert sanitizer.counters()["fsync_checks"] == before
    finally:
        if was_enabled:
            sanitizer.enable()


def test_take_violations_drains(sanitized):
    lock = sanitizer.SanitizedLock("t.x")
    with lock:
        with sanitizer.SanitizedLock("t.x"):
            pass
    assert sanitizer.take_violations() != []
    assert sanitizer.violations() == []


def test_rwlock_reports_when_named(sanitized):
    rw = RWLock(name="t.rw")
    with rw.read_locked():
        assert "t.rw" in sanitizer.held_locks()
    with rw.write_locked():
        assert "t.rw" in sanitizer.held_locks()
    assert "t.rw" not in sanitizer.held_locks()
    assert sanitizer.take_violations() == []


def test_striped_locks_share_one_name(sanitized):
    pool = StripedLocks(name="t.stripes")
    with pool.lock_for(0):
        assert "t.stripes" in sanitizer.held_locks()
        # Nesting a *different* stripe under the first is exactly the
        # unordered stripe-stripe nesting the shared name exists to
        # catch.
        with pool.lock_for(1):
            pass
    assert "self-reacquire" in [v.kind for v in sanitizer.take_violations()]


def test_concurrent_workload_is_violation_free(sanitized):
    tree = ConcurrentTree(QuITTree())
    errors = []

    def writer(base):
        try:
            for i in range(300):
                tree.insert(base + i, i)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def reader():
        try:
            for i in range(100):
                tree.get(i)
                tree.range_query(0, 50)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(k * 1000,)) for k in range(3)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    counts = sanitizer.counters()
    assert counts["acquisitions"] > 0  # instrumentation really ran
    assert sanitizer.take_violations() == []
    assert tree.check() == []


# ---------------------------------------------------------------------------
# loop-stall watchdog
# ---------------------------------------------------------------------------


def test_loop_stall_reported_with_frame(sanitized):
    import asyncio
    import time

    dog = sanitizer.LoopStallWatchdog(threshold=0.1)

    async def stall():
        dog.install(asyncio.get_running_loop())
        try:
            await asyncio.sleep(0)
            time.sleep(0.3)  # loop-safe: deliberate stall under test
            await asyncio.sleep(0)
        finally:
            dog.uninstall()

    asyncio.run(stall())
    stalls = [v for v in sanitizer.take_violations() if v.kind == "loop-stall"]
    assert stalls, "injected time.sleep on the loop thread was not reported"
    assert dog.stalls_reported >= 1
    v = stalls[0]
    assert "stalled" in v.message
    # The classified frame points back into this test file.
    assert "test_sanitizer.py" in v.message


def test_loop_watchdog_healthy_loop_silent(sanitized):
    import asyncio

    dog = sanitizer.LoopStallWatchdog(threshold=0.1)

    async def healthy():
        dog.install(asyncio.get_running_loop())
        try:
            for _ in range(10):
                await asyncio.sleep(0.02)
        finally:
            dog.uninstall()

    asyncio.run(healthy())
    assert dog.stalls_reported == 0
    assert "loop-stall" not in kinds()


def test_make_loop_watchdog_disabled():
    import asyncio

    was_enabled = sanitizer.enabled()
    sanitizer.disable()
    try:

        async def probe():
            return sanitizer.make_loop_watchdog(asyncio.get_running_loop())

        assert asyncio.run(probe()) is None
    finally:
        if was_enabled:
            sanitizer.enable()


def test_server_arms_watchdog_when_sanitizing(sanitized):
    from repro.net.server import QuitServer

    server = QuitServer(object())

    async def lifecycle():
        await server.start()
        assert server._watchdog is not None
        await server.drain()
        assert server._watchdog is None

    import asyncio

    asyncio.run(lifecycle())
