"""Sorted-run detection and merging for the batched ingest pipeline.

The paper's thesis is that near-sorted ingest should not pay a full
root-to-leaf traversal per key; the pure-Python reproduction additionally
should not pay a full *interpreter dispatch* per key.  This module holds
the two order-N primitives the batch path is built on:

* :func:`carve_runs` scans a batch once and carves it into maximal
  non-decreasing runs — the unit the tree applies with one descent per
  pivot-bounded segment instead of one per key;
* :func:`merge_run` merges one such run into a leaf's key/value lists with
  a single linear pass (upsert semantics: the run's value wins).

Run semantics (documented in docs/tuning.md): a run ends at the first key
strictly smaller than its predecessor.  Equal adjacent keys do *not* end a
run — they are collapsed in place, last write winning, which preserves the
arrival-order upsert semantics of a per-key ``insert`` loop.  Because runs
are applied in batch order, a key recurring in a later run likewise
overwrites its earlier value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator

# Key is structurally ``Any`` (see repro.core.node); redeclared here rather
# than imported so node.py can use merge_run without an import cycle.
Key = Any


def probe_runs(
    items: Iterable[tuple[Key, Any]],
) -> tuple[list[tuple[Key, Any]], int]:
    """Materialize ``items`` and count its maximal non-decreasing runs.

    One O(n) scan that does *not* build the runs — callers use the count
    to pick an ingest strategy (apply runs in arrival order vs coalesce a
    fragmented batch by sorting) before paying for :func:`carve_runs`.
    Returns ``(items_as_list, run_count)``.
    """
    if not isinstance(items, list):
        items = list(items)
    n = len(items)
    if n < 2:
        return items, n
    runs = 1
    prev = items[0][0]
    for key, _ in items:
        if key < prev:
            runs += 1
        prev = key
    return items, runs


def carve_runs(
    items: Iterable[tuple[Key, Any]],
) -> Iterator[tuple[list[Key], list[Any]]]:
    """Carve ``(key, value)`` pairs into maximal non-decreasing runs.

    Yields ``(run_keys, run_values)`` pairs where ``run_keys`` is strictly
    increasing (duplicates within a run collapse to the latest value).
    A fully sorted batch yields exactly one run; a reverse-sorted batch
    degenerates to one run per entry, matching the per-key insert cost.
    Keys are compared as Python objects, so mixed int/float keys keep
    their exact order.
    """
    run_keys: list[Key] = []
    run_vals: list[Any] = []
    append_key = run_keys.append
    append_val = run_vals.append
    prev: Key = None
    for key, value in items:
        if run_keys:
            if key > prev:
                append_key(key)
                append_val(value)
            elif key == prev:
                run_vals[-1] = value
            else:
                yield run_keys, run_vals
                run_keys = [key]
                run_vals = [value]
                append_key = run_keys.append
                append_val = run_vals.append
        else:
            append_key(key)
            append_val(value)
        prev = key
    if run_keys:
        yield run_keys, run_vals


def merge_run(
    base_keys: list[Key],
    base_vals: list[Any],
    run_keys: list[Key],
    run_vals: list[Any],
) -> tuple[list[Key], list[Any], int]:
    """Merge a strictly-increasing run into sorted ``base`` lists.

    Returns ``(keys, values, added)`` where ``added`` is the number of run
    keys not already present in the base.  For duplicate keys the run's
    value wins (it is the freshest write).  Neither input is mutated.

    Disjoint placements — the run entirely before or after the base, or
    nested between two adjacent base keys — are served by C-level list
    concatenation; only the overlapping window (located by two bisects)
    is merged element by element.
    """
    if not base_keys:
        return list(run_keys), list(run_vals), len(run_keys)
    if not run_keys:
        return list(base_keys), list(base_vals), 0
    if run_keys[0] > base_keys[-1]:
        return base_keys + run_keys, base_vals + run_vals, len(run_keys)
    if run_keys[-1] < base_keys[0]:
        return run_keys + base_keys, run_vals + base_vals, len(run_keys)
    lo = bisect_left(base_keys, run_keys[0])
    hi = bisect_right(base_keys, run_keys[-1], lo)
    if lo == hi:
        out_keys = base_keys[:lo] + run_keys + base_keys[lo:]
        out_vals = base_vals[:lo] + run_vals + base_vals[lo:]
        return out_keys, out_vals, len(run_keys)
    rn = len(run_keys)
    if rn * 4 <= hi - lo:
        # Sparse run: copying the base (C-speed) and placing each run key
        # with bisect + list.insert (C-speed memmove) is cheaper than an
        # element-by-element interpreted walk of the window.
        out_keys = base_keys[:]
        out_vals = base_vals[:]
        pos = lo
        added = 0
        for t in range(rn):
            key = run_keys[t]
            pos = bisect_left(out_keys, key, pos)
            if pos < len(out_keys) and out_keys[pos] == key:
                out_vals[pos] = run_vals[t]
            else:
                out_keys.insert(pos, key)
                out_vals.insert(pos, run_vals[t])
                added += 1
            pos += 1
        return out_keys, out_vals, added
    out_keys = base_keys[:lo]
    out_vals = base_vals[:lo]
    bi, ri = lo, 0
    while bi < hi and ri < rn:
        bk = base_keys[bi]
        rk = run_keys[ri]
        if bk < rk:
            out_keys.append(bk)
            out_vals.append(base_vals[bi])
            bi += 1
        elif bk > rk:
            out_keys.append(rk)
            out_vals.append(run_vals[ri])
            ri += 1
        else:
            out_keys.append(rk)
            out_vals.append(run_vals[ri])
            bi += 1
            ri += 1
    if ri < rn:
        out_keys.extend(run_keys[ri:])
        out_vals.extend(run_vals[ri:])
    out_keys.extend(base_keys[bi:])
    out_vals.extend(base_vals[bi:])
    return out_keys, out_vals, len(out_keys) - len(base_keys)
