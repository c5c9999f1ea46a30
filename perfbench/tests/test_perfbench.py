"""Tests of the benchmark's own logic: estimators, pacing, spans, checks.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import asyncio
import statistics
import time

import pytest

import estimators
import spans
import workloads
import yardstick


# -- window medians -----------------------------------------------------

def test_window_rates_divide_units_by_window_time():
    windows = [(1.0, 100), (2.0, 200), (0.5, 50)]
    assert estimators.window_rates(windows) == [100.0, 100.0, 100.0]


def test_window_median_ignores_a_stall_in_a_minority_of_windows():
    windows = [(5.0 if i in (3, 7) else 1.0, 1000) for i in range(10)]
    rates = estimators.window_rates(windows)
    assert statistics.median(rates) == 1000.0
    total = sum(s for s, _u in windows)
    assert 1000 * 10 / total < 700  # a whole-run average would have moved


def test_yardstick_scales_a_fast_host_back_to_the_reference():
    ref = yardstick.REFERENCE_OPS_PER_S
    # The same work, once on the reference host and once on a host
    # 1.5x faster: the raw figures differ, the scaled ones do not.
    assert yardstick.rate_at_reference(1500.0, 1.5 * ref) == \
        yardstick.rate_at_reference(1000.0, ref) == 1000.0
    assert yardstick.time_at_reference(2.0, 1.5 * ref) == \
        yardstick.time_at_reference(3.0, ref) == 3.0


def test_window_percentile_is_the_median_of_per_window_percentiles():
    windows = estimators.WindowedPercentiles({50: 1000})
    windows.extend([1.0] * 1000 + [2.0] * 600)
    windows.extend([2.0] * 400 + [50.0] * 1000 + [7.0] * 999)
    assert windows.values[50] == [1.0, 2.0, 50.0]  # the short tail dropped
    assert windows.median(50) == 2.0


def test_p99_windows_need_ten_samples_beyond_p99():
    windows = estimators.WindowedPercentiles()
    assert windows.sizes[99] * 0.01 >= 10
    windows.extend([1.0] * 999)
    assert windows.median(99) is None
    assert windows.median(50) == 1.0


# -- spans and self time ------------------------------------------------

def span(sid, start, end, parent=None, name="x"):
    return (sid, name, start, end, parent, None)


def test_self_time_subtracts_nested_children():
    rows = [span(1, 0, 100), span(2, 10, 30, 1), span(3, 40, 50, 1),
            span(4, 12, 20, 2)]
    selfs = estimators.self_times(rows)
    assert selfs == {1: 70, 2: 12, 3: 10, 4: 8}


def test_self_time_counts_overlapping_children_once():
    rows = [span(1, 0, 100), span(2, 10, 60, 1), span(3, 40, 80, 1),
            span(4, 90, 120, 1)]  # the last one outlives its parent
    selfs = estimators.self_times(rows)
    assert selfs[1] == 100 - (80 - 10) - (100 - 90)


def test_self_cpu_subtracts_the_cpu_of_children_on_the_same_thread():
    rows = [span(1, 0, 100), span(2, 10, 30, 1), span(3, 40, 50, 1),
            span(4, 60, 90, 1)]
    # Span 4 (an awaited coroutine, say) recorded no CPU time: it is
    # neither given a self CPU time nor subtracted from its parent.
    cpu = {1: 50, 2: 15, 3: 5}
    assert estimators.self_cpu(rows, cpu) == {1: 30, 2: 15, 3: 5}


def test_wrapped_calls_record_their_cpu_time_and_coroutines_do_not():
    tracer = spans.Tracer()

    def busy():
        t = time.thread_time_ns()
        while time.thread_time_ns() - t < 2_000_000:
            pass

    async def awaited():
        await asyncio.sleep(0)

    tracer.wrap(busy, "busy")()
    asyncio.run(tracer.wrap(awaited, "awaited")())
    cpu = tracer.spans.cpu_by_sid()
    ((busy_sid,), (awaited_sid,)) = (
        [sid for sid, name, *_ in tracer.spans if name == n]
        for n in ("busy", "awaited"))
    assert cpu[busy_sid] >= 2_000_000
    assert awaited_sid not in cpu


def test_tracer_links_nested_calls_and_asyncio_tasks():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()

    async def child():
        inner()

    async def main():
        await tracer.wrap(child, "task")()

    asyncio.run(main())
    rows = {name: (sid, parent) for sid, name, _s, _e, parent, _r
            in tracer.spans if name != "inner"}
    inners = [parent for _sid, name, _s, _e, parent, _r in tracer.spans
              if name == "inner"]
    assert inners == [rows["outer"][0], rows["task"][0]]
    assert rows["outer"][1] is None


def test_generator_span_covers_the_iteration():
    tracer = spans.Tracer()

    def gen():
        yield 1
        yield 2

    assert list(tracer.wrap(gen, "g")()) == [1, 2]
    ((_sid, name, start, end, parent, rid),) = list(tracer.spans)
    assert name == "g" and end >= start and parent is None


def test_span_table_round_trips_through_json():
    tracer = spans.Tracer()
    tracer.record("a", 1, 2, None, rid=7)
    tracer.record("b", 3, 4, (1, 7))
    back = spans.SpanTable.from_json(tracer.spans.to_json())
    assert list(back) == list(tracer.spans)
    assert [r[5] for r in back] == [7, 7]


# -- correctness checks -------------------------------------------------

@pytest.fixture
def ledger():
    return workloads.Ledger({k: workloads.value_of(k) for k in range(0, 20, 2)})


def test_checker_accepts_right_answers(ledger):
    ledger.check_get(4, workloads.value_of(4))
    ledger.acked_many([(5, workloads.value_of(5))])
    ledger.check_scan(4, 8, [(4, workloads.value_of(4)),
                             (5, workloads.value_of(5)),
                             (6, workloads.value_of(6))])


def test_checker_catches_a_planted_wrong_value(ledger):
    with pytest.raises(workloads.WrongAnswer):
        ledger.check_get(4, workloads.value_of(4) + 1)
    with pytest.raises(workloads.WrongAnswer):
        ledger.check_get(5, 0)  # a key that was never written


@pytest.mark.parametrize("items", [
    [(6, workloads.value_of(6)), (4, workloads.value_of(4))],   # order
    [(4, workloads.value_of(4))],                               # missing 6
    [(4, workloads.value_of(4)), (6, workloads.value_of(6)),
     (8, workloads.value_of(8))],                               # past end
    [(4, workloads.value_of(4)), (6, 0)],                       # value
])
def test_checker_catches_a_planted_wrong_scan(ledger, items):
    with pytest.raises(workloads.WrongAnswer):
        ledger.check_scan(4, 8, items)


def test_verify_all_reads_back_every_acknowledged_key(ledger):
    class Client:
        def get_many(self, keys):
            return [None if k == 8 else ledger.expected[k] for k in keys]

    with pytest.raises(workloads.WrongAnswer):
        ledger.verify_all(Client())
