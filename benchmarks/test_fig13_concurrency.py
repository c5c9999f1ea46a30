"""Fig. 13 — concurrent throughput (bench target for exp_fig13).

Benchmarks the thread-safe wrapper's two insert paths and records the
modeled 1-16 thread curves in extra_info (DESIGN.md substitution 4)."""

import time

import pytest

from repro.bench.harness import make_tree
from repro.concurrency import (
    ConcurrentTree,
    insert_profile,
    throughput_curve,
)


@pytest.mark.parametrize("name", ["B+-tree", "QuIT"])
def test_concurrent_wrapper_ingest(benchmark, scale, near_sorted_keys, name):
    def build():
        ct = ConcurrentTree(make_tree(name, scale))
        for k in near_sorted_keys:
            ct.insert(k, k)
        return ct

    ct = benchmark.pedantic(build, rounds=2, iterations=1)
    if benchmark.stats is not None:
        best = benchmark.stats.stats.min
    else:
        # --benchmark-disable ran build() once untimed: time one here.
        started = time.perf_counter()
        ct = build()
        best = time.perf_counter() - started
    assert len(ct) == len(set(near_sorted_keys))
    fast_frac = ct.fast_path_inserts / len(near_sorted_keys)
    benchmark.extra_info["fast_path_fraction"] = round(fast_frac, 4)
    per_op = best / len(near_sorted_keys)
    curve = throughput_curve(insert_profile(per_op, fast_frac))
    benchmark.extra_info["modeled_tput"] = {
        t: round(v) for t, v in curve.items()
    }


def test_quit_models_higher_ceiling(scale, near_sorted_keys):
    results = {}
    for name in ("B+-tree", "QuIT"):
        ct = ConcurrentTree(make_tree(name, scale))
        for k in near_sorted_keys:
            ct.insert(k, k)
        fast_frac = ct.fast_path_inserts / len(near_sorted_keys)
        curve = throughput_curve(insert_profile(2e-6, fast_frac))
        results[name] = curve[16]
    assert results["QuIT"] > 1.3 * results["B+-tree"]
