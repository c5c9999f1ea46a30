"""Network-ingest gate: the loopback-served pipelined path must stay
within a fixed factor of the in-process ``submit_many`` baseline.

Both sides are timed by :mod:`repro.bench.harness`: ``network_ingest``
against ``durable_ingest`` with ``fsync="group"``.  The full-scale
numbers are the row from commit ``d7e39de`` in ``BENCH_HISTORY.json``.
The wire adds framing, the asyncio hop, and admission — a bounded tax,
measured at ~2.5x at full scale.  The gate bounds it at
:data:`MAX_FACTOR` so a regression in the server's request path (a lost
pipelining window, an accidental per-frame fsync, a serialization
blow-up) fails loudly rather than shipping as "the network is just
slow".
"""

from __future__ import annotations

import pytest

from repro.bench.harness import durable_ingest, network_ingest
from repro.sortedness import generate_keys

N = 4_000
BATCH = 256
WINDOW = 32

#: Allowed wall-clock factor of network over in-process.  Observed
#: ~2.5x at full scale and ~2.5x at smoke; 8x leaves room for CI-host
#: noise while still catching an order-of-magnitude request-path
#: regression.
MAX_FACTOR = 8.0


@pytest.fixture(scope="module")
def bench_keys(scale):
    return [int(k) for k in generate_keys(N, 0.05, 1.0, seed=scale.seed)]


def test_pipelined_network_ingest_benchmark(benchmark, scale, bench_keys):
    def run():
        return network_ingest(bench_keys, 1, BATCH, WINDOW, scale)

    seconds, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["ingest_seconds"] = round(seconds, 4)
    benchmark.extra_info["ops_per_second"] = round(N / seconds, 1)
    benchmark.extra_info["net_requests"] = stats.get("net_requests", 0)
    benchmark.extra_info["net_inflight_max"] = stats.get(
        "net_inflight_max", 0
    )


def test_network_within_factor_of_inprocess(scale, bench_keys):
    """The gate itself: best of 2 per side, interleaved."""
    best = {"inprocess": float("inf"), "network": float("inf")}
    for rep in range(2):
        order = (
            ("inprocess", "network") if rep % 2 == 0
            else ("network", "inprocess")
        )
        for side in order:
            if side == "inprocess":
                seconds, _ = durable_ingest(
                    "group", bench_keys, 1, BATCH, scale
                )
            else:
                seconds, _ = network_ingest(
                    bench_keys, 1, BATCH, WINDOW, scale
                )
            best[side] = min(best[side], seconds)
    factor = best["network"] / best["inprocess"]
    assert factor <= MAX_FACTOR, (
        f"network ingest took {best['network']:.3f}s vs "
        f"{best['inprocess']:.3f}s in-process ({factor:.2f}x > "
        f"{MAX_FACTOR}x): the request path regressed"
    )
