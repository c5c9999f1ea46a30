"""Bε-tree related-work baseline (bench target for exp_betree; §6)."""

import pytest

from repro.betree import BeTree, BeTreeConfig


@pytest.mark.parametrize("workload", ["sorted", "scrambled"])
def test_betree_ingest(benchmark, scale, request, workload):
    keys = request.getfixturevalue(f"{workload}_keys")
    config = BeTreeConfig(
        leaf_capacity=scale.leaf_capacity,
        fanout=max(4, scale.leaf_capacity // 8),
        buffer_capacity=scale.leaf_capacity * 4,
    )

    def build():
        tree = BeTree(config)
        for k in keys:
            tree.insert(k, k)
        return tree

    tree = benchmark.pedantic(build, rounds=2, iterations=1)
    benchmark.extra_info["moves_per_insert"] = round(
        tree.stats.messages_moved / len(keys), 3
    )


def test_betree_flat_vs_quit_proportional_wall_clock():
    """§6 in wall-clock terms: across the K grid, QuIT's speedup over
    the classical B+-tree swings far more than the Bε-tree's.  Tier-1
    checks the same claim on deterministic work counters; this timed
    form can flake on a loaded machine, so it re-runs the experiment up
    to twice before failing."""
    from repro.bench.experiments import exp_betree
    from repro.bench.harness import BenchScale

    tiny = BenchScale(
        n=6_000, leaf_capacity=32, point_lookups=200, range_lookups=10,
        repeats=2, seed=7,
    )
    for attempt in range(3):
        rows = exp_betree(tiny).rows
        be = [r["betree_x"] for r in rows]
        qt = [r["quit_x"] for r in rows]
        swing_be, swing_qt = max(be) / min(be), max(qt) / min(qt)
        if swing_qt > 1.5 * swing_be:
            return
    assert swing_qt > 1.5 * swing_be, (swing_qt, swing_be)
