"""The fast paths run dispatch-free: a cursor-hit fast insert and an
in-window ``get`` make no Python-level call (``repro.bench.meter``)."""

import sys

import pytest

from repro.bench.meter import python_calls
from repro.core import (
    BPlusTree,
    LilBPlusTree,
    PoleBPlusTree,
    QuITTree,
    TailBPlusTree,
    TreeConfig,
)

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
