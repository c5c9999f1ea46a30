"""The host yardstick: a fixed workload that times the machine, not the program.

On a shared VM the speed of a core moves by 1.3-1.9x, in episodes that
last from seconds to minutes, and a whole run can fall into a fast one.
The benchmark times this yardstick next to every measured window and
scales the window's figures to a reference host on which the yardstick
runs at ``REFERENCE_OPS_PER_S``.  No program change can move the
yardstick: it uses nothing from ``src/``.

The yardstick is three small pure-Python loops, each built to slow down
with the host the way the tree's code does: a binary search over the
key lists of node objects (bytecode, attribute and list access), dict
stores of fresh tuples (allocation), and ``bisect.insort`` into a
bounded sorted list (C-level search plus list moves).  Its rate is the
geometric mean of the three loops' iterations per second.  Probed
against per-key ``QuITTree`` inserts and gets in alternating 10 ms
slices on a 2-vCPU VM (Intel Xeon, shared host), the tree's speed went
as the yardstick's to the power 1.16 (inserts) and 1.19 (gets), against
1.62 and 1.38 for a plain arithmetic loop.  ``ast.literal_eval`` and
``repr`` of a 1,024-pair list, the bulk of ``net-ingest``'s CPU, went as
its power 1.27 and 1.16.
"""

from __future__ import annotations

import bisect
import gc
import math
import time

#: Yardstick ops/s of the reference host.  Normalized figures read as
#: if measured there; the value is that of the VM above in its usual
#: (slower) state, so normalized and raw figures are close.
REFERENCE_OPS_PER_S = 1.5e6


class _Node:
    __slots__ = ("keys",)

    def __init__(self, keys: list[int]) -> None:
        self.keys = keys

    def find(self, key: int) -> int:
        keys = self.keys
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo


_NODES = [_Node(list(range(j, j + 2000, 2))) for j in range(64)]


def _search(n: int) -> None:
    nodes = _NODES
    for i in range(n):
        nodes[i & 63].find((i * 7919) % 2000)


def _alloc(n: int) -> None:
    table: dict[int, tuple[int, int]] = {}
    out = []
    for i in range(n):
        table[i & 4095] = (i, i + 1)
        out.append([i])


def _insort(n: int) -> None:
    ordered: list[int] = []
    for i in range(n):
        bisect.insort(ordered, (i * 7919) % 100_003)
        if len(ordered) > 256:
            del ordered[:128]


#: Loop and iterations per slice; one slice takes ~2.5 ms.
_PARTS = ((_search, 500), (_alloc, 2000), (_insort, 1500))


def rate() -> float:
    """Yardstick ops/s of one slice, on the caller's core.  The
    collector is paused for the slice, so the program's heap cannot
    slow the yardstick down."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        logs = 0.0
        for loop, n in _PARTS:
            t0 = time.perf_counter_ns()
            loop(n)
            logs += math.log(n * 1e9 / max(1, time.perf_counter_ns() - t0))
    finally:
        if collecting:
            gc.enable()
    return math.exp(logs / len(_PARTS))


def rate_at_reference(rate_: float, host: float) -> float:
    """A throughput measured while the yardstick ran at ``host``,
    scaled to the reference host."""
    return rate_ * REFERENCE_OPS_PER_S / host


def time_at_reference(seconds: float, host: float) -> float:
    """A duration measured while the yardstick ran at ``host``, scaled
    to the reference host."""
    return seconds * host / REFERENCE_OPS_PER_S
