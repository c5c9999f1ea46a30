"""The fast paths run dispatch-free: a cursor-hit fast insert and an
in-window ``get`` make no Python-level call, and a served ``SCAN`` page
makes calls per leaf, not per entry (``repro.bench.meter``)."""

import sys

import pytest

from repro.bench.meter import python_calls
from repro.core import (
    BPlusTree,
    DurableTree,
    LilBPlusTree,
    PoleBPlusTree,
    QuITTree,
    TailBPlusTree,
    TreeConfig,
)
from repro.net import protocol
from repro.net.server import QuitServer

FAST_PATH_CLASSES = [TailBPlusTree, LilBPlusTree, PoleBPlusTree, QuITTree]


def _leaf_with_room(cls):
    """A tree whose fast-path leaf has room and its gap cursor at the
    end, with the last key inserted and the next in-order key (returned)
    both inside its window."""
    tree = cls(TreeConfig(leaf_capacity=16, internal_capacity=16))
    key = 0
    while True:
        tree.insert(key, key)
        key += 1
        leaf = tree.fast_path_leaf
        if (
            key > 100 and leaf.fill < 16
            and tree._fast_path_accepts(key - 1)
            and tree._fast_path_accepts(key)
        ):
            assert leaf.gap == leaf.fill
            return tree, key


class TestMeter:
    def test_counts_nested_calls_not_the_callee(self):
        def leaf():
            return 1

        def two_calls():
            return leaf() + leaf()

        assert python_calls(leaf) == 0
        assert python_calls(two_calls) == 2
        assert python_calls(sorted, [3, 1, 2]) == 0

    def test_restores_the_previous_trace(self):
        previous = sys.gettrace()
        assert python_calls(lambda: None) == 0
        assert sys.gettrace() is previous

    def test_top_insert_dispatches(self):
        tree = BPlusTree(TreeConfig(leaf_capacity=16, internal_capacity=16))
        assert python_calls(tree.insert, 1, 1) > 0


@pytest.mark.parametrize("cls", FAST_PATH_CLASSES, ids=lambda c: c.name)
def test_cursor_hit_fast_insert_makes_no_call(cls):
    tree, key = _leaf_with_room(cls)
    before = tree.stats.fast_inserts
    assert python_calls(tree.insert, key, key) == 0
    assert tree.stats.fast_inserts == before + 1
    assert tree.get(key) == key


@pytest.mark.parametrize("cls", FAST_PATH_CLASSES, ids=lambda c: c.name)
def test_in_window_get_makes_no_call(cls):
    tree, key = _leaf_with_room(cls)
    hits = tree.stats.read_fast_hits
    assert python_calls(tree.get, key - 1) == 0
    assert tree.stats.read_fast_hits == hits + 1
    assert tree.get(key - 1) == key - 1


def test_served_scan_page_calls_per_leaf_not_per_entry(tmp_path):
    """Serving a 512-entry ``SCAN`` page (read, pack, encode) makes
    Python-level calls per leaf touched plus a constant: the page goes
    from leaf slices to packed columns without a call per entry."""
    durable = DurableTree(
        QuITTree(TreeConfig(leaf_capacity=32, internal_capacity=32)),
        tmp_path / "state", fsync="group",
    )
    durable.insert_many([(k, k * 3) for k in range(4_000)])
    server = QuitServer(durable)

    def serve():
        coro = server._serve_read(protocol.OP_SCAN, (100, 10**9, 512, False))
        try:
            coro.send(None)
        except StopIteration as stop:
            status, _flags, page = stop.value
        assert status == protocol.ST_OK
        return protocol.encode_payload(page)

    assert protocol.decode_payload(serve()) == (
        [(k, k * 3) for k in range(100, 612)], False
    )
    stats = durable.tree.stats
    leaves = stats.leaf_accesses
    calls = python_calls(serve)
    leaves = stats.leaf_accesses - leaves
    assert 512 // 32 <= leaves <= 512 // 16 + 2
    assert calls <= leaves + 16, (calls, leaves)
    durable.close()
