#!/usr/bin/env python3
"""Batched reads: hand the tree probe batches instead of single keys.

``get_many`` sorts each probe batch and drains it in key order: probes
that share a leaf cost one leaf bisect each, the next leaf is found
through the parent's pivots, and a root descent happens only when the
probes leave the parent's key range — on near-sorted probe streams
this is several times faster than a per-key ``get`` loop, with
identical results.  ``range_iter`` streams a range
scan lazily so an abandoned scan never walks the whole chain, and
``count_range`` counts without materializing.

Run:  python examples/batched_reads.py
"""

import time

from repro import BPlusTree, QuITTree, TreeConfig
from repro.sortedness import generate_keys

N = 50_000
READ_BATCH_SIZE = 4096


def main() -> None:
    # The paper's default near-sorted shape: 5% of keys displaced by up
    # to 5% of the stream length.  The probe stream replays the arrival
    # order — the read phase of a mixed workload.
    keys = [int(k) for k in generate_keys(N, 0.05, 0.05, seed=42)]
    config = TreeConfig(leaf_capacity=64, internal_capacity=64)
    tree = BPlusTree(config)
    tree.insert_many([(k, k) for k in keys])

    # Per-key baseline.
    start = time.perf_counter()
    per_key_out = [tree.get(k) for k in keys]
    per_key_s = time.perf_counter() - start

    # Same probes, batched: chunk the stream and call get_many.
    start = time.perf_counter()
    batched_out = []
    for lo in range(0, len(keys), READ_BATCH_SIZE):
        batched_out.extend(tree.get_many(keys[lo : lo + READ_BATCH_SIZE]))
    batched_s = time.perf_counter() - start

    assert batched_out == per_key_out
    print(f"{N:,} probes, K=5% L=5%, batches of {READ_BATCH_SIZE}")
    print(f"per-key get : {per_key_s:.3f}s")
    print(
        f"get_many    : {batched_s:.3f}s "
        f"({per_key_s / batched_s:.1f}x faster, identical answers)"
    )

    # The read counters show how the work collapsed: almost every probe
    # was served from the current leaf or a sibling found through the
    # parent's pivots instead of a fresh root-to-leaf descent.
    stats = tree.stats
    print(
        f"\n{stats.read_batches:,} batches: "
        f"{stats.read_chain_hits:,} probes served without a descent, "
        f"{stats.read_redescents:,} re-descents"
    )

    # Fast-path variants also answer per-key point reads from the cached
    # leaf's key window without descending at all.
    quit_tree = QuITTree(config)
    quit_tree.insert_many([(k, k) for k in keys])
    tail = keys[-200:]  # newest keys: many fall in QuIT's cached leaf
    for k in tail:
        quit_tree.get(k)
    qstats = quit_tree.stats
    print(
        f"QuIT: {qstats.read_fast_hits:,} of {len(tail):,} recent probes "
        f"answered from the fast-path window"
    )

    # Lazy range scans: take a few entries and abandon the iterator —
    # the chain walk stops where you stop.
    it = tree.range_iter(1_000, 40_000)
    first_three = [next(it) for _ in range(3)]
    print(f"\nrange_iter(1000, 40000) first 3: {first_three}")
    print(f"count_range(1000, 40000) = {tree.count_range(1_000, 40_000):,}")


if __name__ == "__main__":
    main()
