"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import zlib

import pytest

from repro.concurrency import sanitizer
from repro.testing import faults
from repro.core import (
    BPlusTree,
    LilBPlusTree,
    PoleBPlusTree,
    QuITNoResetTree,
    QuITNoVariableSplitTree,
    QuITTree,
    TailBPlusTree,
    TreeConfig,
)

#: Every tree variant, including ablations (ids used in parametrize).
ALL_TREE_CLASSES = [
    BPlusTree,
    TailBPlusTree,
    LilBPlusTree,
    PoleBPlusTree,
    QuITTree,
    QuITNoResetTree,
    QuITNoVariableSplitTree,
]

#: The variants with a fast path.
FASTPATH_TREE_CLASSES = ALL_TREE_CLASSES[1:]


@pytest.fixture(autouse=True)
def _disarm_faults():
    """Fault arming is process-global; never leak across tests."""
    yield
    faults.reset()


@pytest.fixture(autouse=True)
def _lock_sanitizer_clean():
    """Under ``QUIT_SANITIZE=1`` every test doubles as a lock-discipline
    assertion: any violation the sanitizer recorded during the test
    fails it.  (Tests that *seed* violations drain them before
    returning.)  A no-op when the sanitizer is off."""
    if sanitizer.enabled():
        sanitizer.reset()
    yield
    if sanitizer.enabled():
        leftover = sanitizer.take_violations()
        details = "\n".join(
            f"[{v.kind}] {v.message}\n{v.stack}" for v in leftover
        )
        assert not leftover, f"lock sanitizer violations:\n{details}"


@pytest.fixture
def small_config() -> TreeConfig:
    """Tiny nodes: forces deep trees and frequent splits."""
    return TreeConfig(leaf_capacity=8, internal_capacity=8)


@pytest.fixture
def medium_config() -> TreeConfig:
    """The benchmark default."""
    return TreeConfig(leaf_capacity=64, internal_capacity=64)


@pytest.fixture(params=ALL_TREE_CLASSES, ids=lambda c: c.name)
def any_tree_class(request):
    """Parametrizes a test over every tree variant."""
    return request.param


@pytest.fixture(params=FASTPATH_TREE_CLASSES, ids=lambda c: c.name)
def fastpath_tree_class(request):
    """Parametrizes a test over every fast-path variant."""
    return request.param


def shuffled_keys(n: int, seed: int = 0) -> list[int]:
    """Keys 0..n-1 uniformly shuffled."""
    keys = list(range(n))
    random.Random(seed).shuffle(keys)
    return keys


def validate_tree(tree) -> None:
    """Validate with min-fill relaxed (QuIT variants create small
    leaves by design)."""
    tree.validate(check_min_fill=False)


def legacy_snapshot_bytes(items, config: TreeConfig, version: int) -> bytes:
    """A v1 or v2 text snapshot of sorted ``items``, byte for byte as
    writers before the v3 format produced it (``test_snapshot_compat``
    checks this against the committed fixtures).  The fifth header field
    is the literal ``gapped`` those writers emitted by default."""
    tag = "quit-tree-v2" if version == 2 else "quit-tree-v1"
    lines = [
        f"{tag}\t{len(items)}\t{config.leaf_capacity}\t"
        f"{config.internal_capacity}\tgapped"
    ]
    for key, value in items:
        body = f"{key!r}\t{value!r}"
        if version == 2:
            body = f"{zlib.crc32(body.encode('utf-8')):08x}\t{body}"
        lines.append(body)
    return ("\n".join(lines) + "\n").encode("utf-8")
