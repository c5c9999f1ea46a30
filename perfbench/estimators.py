"""Estimators the benchmark reports: window medians, percentiles, self time.

Every throughput and latency the benchmark prints is a median over
fixed-size windows of one run, so a host stall that hits a few windows
cannot move it.  Span self time follows the usual definition: a span's
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

#: Windows for the 99th percentile hold at least this many samples, so
#: that each window's p99 has at least ten samples beyond it.
MIN_LATENCY_WINDOW = 1000
#: Windows for the median: one pipelined burst of 16 frames on
#: ``net-ingest``.
MEDIAN_WINDOW = 16


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def window_rates(windows: Sequence[tuple[float, float]]) -> list[float]:
    """Per-window rates from ``(seconds, units)`` windows: each window
    holds a fixed amount of work, and its rate is units over seconds."""
    rates = []
    for seconds, units in windows:
        if seconds <= 0:
            raise ValueError(f"window of {seconds} s")
        rates.append(units / seconds)
    return rates


class WindowedPercentiles:
    """Per-window percentiles of a stream of samples, in send order.

    Each percentile ``q`` has its own window size (``sizes[q]``).  A full
    window is reduced to its percentile as soon as it fills, so a long
    run keeps no samples; a tail shorter than a window is dropped.
    """

    def __init__(self, sizes: Optional[dict[float, int]] = None) -> None:
        self.sizes = sizes or {50: MEDIAN_WINDOW, 99: MIN_LATENCY_WINDOW}
        self.values: dict[float, list[float]] = {q: [] for q in self.sizes}
        self._pending: dict[float, list[float]] = {q: [] for q in self.sizes}

    def extend(self, samples: Sequence[float]) -> None:
        for q, size in self.sizes.items():
            pending = self._pending[q]
            pending.extend(samples)
            while len(pending) >= size:
                self.values[q].append(percentile(pending[:size], q))
                del pending[:size]

    def median(self, q: float) -> Optional[float]:
        """Median over windows of the windows' ``q``-th percentiles, or
        None when the samples did not fill one window."""
        if not self.values[q]:
            return None
        return statistics.median(self.values[q])


def quartiles(values: Sequence[float]) -> list[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them
    (a single value is its own quartiles)."""
    if len(values) == 1:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


def covered(interval: tuple[float, float],
            children: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``
    (each clipped to the interval; overlaps count once)."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, s), min(hi, e)) for s, e in children if e > lo and s < hi
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Self time of every span.

    ``spans`` holds ``(span_id, name, start, end, parent_id, rid)``
    tuples; a span's self time is its duration minus the part of its
    interval covered by the spans whose parent it is.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _rid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for sid, _name, start, end, _parent, _rid in spans:
        kids = children.get(sid)
        cover = covered((start, end), kids) if kids else 0.0
        result[sid] = (end - start) - cover
    return result


def self_cpu(spans: Sequence[tuple], cpu: dict[int, float]) -> dict[int, float]:
    """Self CPU time of every span that recorded its thread's CPU time
    (``cpu``, by span id): that time minus its children's.  Such a span
    and its children are plain calls on one thread, so the children run
    inside it, one after another, and their CPU times add up."""
    inner: dict[int, float] = {}
    for sid, _name, _start, _end, parent, _rid in spans:
        if parent is not None and sid in cpu:
            inner[parent] = inner.get(parent, 0.0) + cpu[sid]
    return {sid: c - inner.get(sid, 0.0) for sid, c in cpu.items()}

