"""Shared fixtures for the pytest-benchmark suite.

Each benchmark file corresponds to one table or figure of the paper (see
DESIGN.md's per-experiment index).  Benchmarks run at the smoke scale so
the whole suite finishes in minutes; run ``quit-bench`` for the
default-scale numbers recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import BenchScale
from repro.sortedness import generate_keys

#: Smoke sizing shared by all benchmark files.
SCALE = BenchScale(
    n=20_000, leaf_capacity=64, point_lookups=500, range_lookups=20,
    repeats=1, seed=42,
)


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return SCALE


@pytest.fixture(scope="session")
def sorted_keys():
    return [int(k) for k in generate_keys(SCALE.n, 0.0, 1.0, seed=SCALE.seed)]


@pytest.fixture(scope="session")
def near_sorted_keys():
    return [
        int(k) for k in generate_keys(SCALE.n, 0.05, 1.0, seed=SCALE.seed)
    ]


@pytest.fixture(scope="session")
def less_sorted_keys():
    return [
        int(k) for k in generate_keys(SCALE.n, 0.25, 1.0, seed=SCALE.seed)
    ]


@pytest.fixture(scope="session")
def scrambled_keys():
    return [
        int(k) for k in generate_keys(SCALE.n, 1.0, 1.0, seed=SCALE.seed)
    ]
