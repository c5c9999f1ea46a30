"""Group-commit gate: pipelined durable ingest must beat per-op fsync.

The full-scale numbers are the row from commit ``527307f`` in
``BENCH_HISTORY.json``.  With 8 writers submitting per-key durable
inserts through :func:`repro.bench.harness.durable_ingest`,
``fsync="group"`` must
out-ingest ``fsync="always"`` — the batched fsync amortization is the
whole point, so losing this race means the pipeline regressed.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import durable_ingest
from repro.sortedness import generate_keys

WRITERS = 8
N = 4_000


@pytest.fixture(scope="module")
def bench_keys(scale):
    return [int(k) for k in generate_keys(N, 0.05, 1.0, seed=scale.seed)]


def _run(policy, keys, scale):
    return durable_ingest(policy, keys, WRITERS, 1, scale)


@pytest.mark.parametrize("policy", ["always", "group"])
def test_durable_ingest_policy(benchmark, scale, bench_keys, policy):
    def run():
        return _run(policy, bench_keys, scale)

    seconds, wal_stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["ingest_seconds"] = round(seconds, 4)
    benchmark.extra_info["ops_per_second"] = round(N / seconds, 1)
    benchmark.extra_info.update(wal_stats)


def test_group_beats_always_with_8_writers(scale, bench_keys):
    """The gate itself: interleaved in-process A/B, best of 2, group
    must be at least as fast as always (it is ~5x at full scale)."""
    best = {"always": float("inf"), "group": float("inf")}
    stats = {}
    for rep in range(2):
        order = ("always", "group") if rep % 2 == 0 else ("group", "always")
        for policy in order:
            seconds, wal_stats = _run(policy, bench_keys, scale)
            if seconds < best[policy]:
                best[policy] = seconds
                stats[policy] = wal_stats
    assert stats["group"]["group_batches"] >= 1
    assert stats["group"]["unsynced_acks"] == 0
    assert best["group"] <= best["always"], (
        f"group commit ingested {N} keys in {best['group']:.3f}s but "
        f"always-fsync took {best['always']:.3f}s — batching should "
        "never lose to per-op fsync with 8 writers"
    )
