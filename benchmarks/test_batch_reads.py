"""Batched point lookups (``get_many``) vs per-key ``get``.

Two parts, mirroring ``test_batch_ingest.py``:

* pytest-benchmark cases at the shared smoke scale, one per index, for
  both read styles — these feed regression tracking alongside the figure
  benchmarks;
* a hard throughput assertion at the default scale (n=100000, K=5%,
  L=5%): replaying the BoDS arrival order as the probe stream (the read
  phase of the paper's mixed workloads), ``get_many`` on the classical
  B+-tree must be at least 2x faster than the per-key ``get`` loop.
  The classical tree is the honest subject for the ratio — its per-key
  path has no fast-path read shortcut, so the comparison isolates what
  probe sorting and leaf-chain draining buy.
  ``BENCH_HISTORY.json`` (repo root) records the same measurement for
  the full matrix in its row from commit ``932da59``.
"""

from __future__ import annotations

import random
import statistics

import pytest

from repro.bench.harness import (
    BenchScale,
    ingest_batched,
    make_tree,
    time_point_lookups,
    time_point_lookups_batched,
)
from repro.sortedness.bods import generate_keys

INDEXES = ("B+-tree", "tail-B+-tree", "lil-B+-tree", "QuIT", "SWARE")

#: Probe chunk size; the one the recorded history used.
READ_BATCH_SIZE = 4096


@pytest.fixture(scope="module")
def bods_keys(scale):
    """K=5%, L=5% near-sorted stream at smoke scale."""
    return [
        int(k) for k in generate_keys(scale.n, 0.05, 0.05, seed=scale.seed)
    ]


@pytest.fixture(scope="module")
def probe_targets(bods_keys):
    """Full-coverage probe set replaying the BoDS arrival order."""
    return list(bods_keys)


def _build(name, scale, keys):
    tree = make_tree(name, scale)
    ingest_batched(tree, keys, READ_BATCH_SIZE)
    if name == "SWARE":
        tree.flush()
    return tree


@pytest.mark.parametrize("name", INDEXES)
def test_per_key_reads(benchmark, scale, bods_keys, probe_targets, name):
    tree = _build(name, scale, bods_keys)
    benchmark.pedantic(
        lambda: time_point_lookups(tree, probe_targets, repeats=1),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["index"] = name
    benchmark.extra_info["style"] = "per-key"


@pytest.mark.parametrize("name", INDEXES)
def test_batched_reads(benchmark, scale, bods_keys, probe_targets, name):
    tree = _build(name, scale, bods_keys)
    benchmark.pedantic(
        lambda: time_point_lookups_batched(
            tree, probe_targets, READ_BATCH_SIZE, repeats=1
        ),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["index"] = name
    benchmark.extra_info["style"] = f"batched-{READ_BATCH_SIZE}"
    stats = tree.stats
    benchmark.extra_info["read_batches"] = stats.read_batches
    benchmark.extra_info["read_chain_hits"] = stats.read_chain_hits
    benchmark.extra_info["read_redescents"] = stats.read_redescents


def test_batched_beats_per_key_2x():
    """Acceptance gate: >=2x batched read throughput on the classical
    B+-tree for a full-coverage probe set at default scale.

    Five pairs, each timing one per-key and one batched pass; the side
    that runs first alternates between pairs, so a host-speed change
    inside the run moves both sides instead of one.  The gate is on the
    median of the per-pair ratios.  The row from commit ``932da59`` in
    ``BENCH_HISTORY.json`` records ~3.4x for this cell, so 2x leaves
    headroom without making the gate vacuous.
    """
    scale = BenchScale.default()
    keys = [
        int(k) for k in generate_keys(scale.n, 0.05, 0.05, seed=scale.seed)
    ]
    tree = _build("B+-tree", scale, keys)
    targets = list(keys)
    ratios = []
    for rep in range(5):
        order = ("per-key", "batched") if rep % 2 == 0 else (
            "batched", "per-key"
        )
        seconds = {}
        for side in order:
            if side == "per-key":
                seconds[side] = time_point_lookups(tree, targets, repeats=1)
            else:
                seconds[side] = time_point_lookups_batched(
                    tree, targets, READ_BATCH_SIZE, repeats=1
                )
        ratios.append(seconds["per-key"] / seconds["batched"])
    speedup = statistics.median(ratios)
    assert speedup >= 2.0, (
        f"batched read speedup degraded: {speedup:.2f}x "
        f"(per-pair ratios {[round(r, 2) for r in ratios]})"
    )


@pytest.mark.parametrize("name", INDEXES)
def test_get_many_agrees_with_get(scale, bods_keys, probe_targets, name):
    """The timed paths must agree bit-for-bit: every probe answered by
    ``get_many`` matches per-key ``get``, misses and shuffled (adversarial
    for chain locality) probe order included."""
    tree = _build(name, scale, bods_keys)
    probes = probe_targets[:2_000] + [-1, max(bods_keys) + 7]
    random.Random(scale.seed + 1).shuffle(probes)
    expected = [tree.get(k) for k in probes]
    assert tree.get_many(probes) == expected
