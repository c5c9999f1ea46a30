"""Tests for repro.core.node (leaf and internal node mechanics)."""

import random

import pytest

from repro.analysis.cache import lookup_trace
from repro.core import BPlusTree, TreeConfig
from repro.core.node import InternalNode, LeafNode
from repro.core.stats import TreeStats


def make_leaf(keys):
    leaf = LeafNode()
    for k in keys:
        leaf.insert_entry(k, k * 10)
    return leaf


class TestLeafNode:
    def test_insert_keeps_sorted(self):
        leaf = make_leaf([5, 1, 3, 2, 4])
        assert leaf.keys == [1, 2, 3, 4, 5]
        assert leaf.values == [10, 20, 30, 40, 50]

    def test_insert_duplicate_upserts(self):
        leaf = make_leaf([1, 2, 3])
        assert leaf.insert_entry(2, 99) is False
        assert leaf.keys == [1, 2, 3]
        assert leaf.values[1] == 99

    def test_append_path_matches_general_path(self):
        ascending = make_leaf(list(range(10)))
        shuffled = make_leaf([7, 3, 9, 1, 0, 8, 2, 5, 4, 6])
        assert ascending.keys == shuffled.keys

    def test_find(self):
        leaf = make_leaf([10, 20, 30])
        assert leaf.find(20) == 1
        assert leaf.find(15) is None
        assert leaf.find(5) is None
        assert leaf.find(35) is None

    def test_min_max(self):
        leaf = make_leaf([4, 2, 9])
        assert leaf.min_key == 2
        assert leaf.max_key == 9

    def test_remove_at(self):
        leaf = make_leaf([1, 2, 3])
        key, value = leaf.remove_at(1)
        assert (key, value) == (2, 20)
        assert leaf.keys == [1, 3]

    def test_split_at_middle(self):
        leaf = make_leaf(list(range(8)))
        right, split_key = leaf.split_at(4)
        assert split_key == 4
        assert leaf.keys == [0, 1, 2, 3]
        assert right.keys == [4, 5, 6, 7]
        assert leaf.next is right and right.prev is leaf

    def test_split_preserves_chain(self):
        a = make_leaf([1, 2, 3, 4])
        c = make_leaf([9])
        a.next, c.prev = c, a
        b, _ = a.split_at(2)
        assert a.next is b and b.next is c
        assert c.prev is b and b.prev is a

    @pytest.mark.parametrize("pos", [0, 8, -1])
    def test_split_rejects_degenerate_positions(self, pos):
        leaf = make_leaf(list(range(8)))
        with pytest.raises(ValueError):
            leaf.split_at(pos)

    def test_items(self):
        leaf = make_leaf([2, 1])
        assert list(leaf.items()) == [(1, 10), (2, 20)]


class TestTypedSlots:
    """Typed key slabs and gap-pool accounting of the leaf."""

    def test_bulk_load_promotes_int_keys(self):
        t = BPlusTree(TreeConfig(leaf_capacity=64, internal_capacity=64))
        t.bulk_load([(i, i) for i in range(5_000)])
        assert t.stats.typed_leaves > 0
        assert list(t.items()) == [(i, i) for i in range(5_000)]

    def test_demotion_on_nonconforming_key(self):
        t = BPlusTree(TreeConfig(leaf_capacity=64, internal_capacity=64))
        t.bulk_load([(i, i) for i in range(1_000)])
        t.insert(2**70, "big")  # > int64: typed slab must demote
        assert t.stats.typed_demotions >= 1
        assert t.get(2**70) == "big"
        t.validate()

    def test_string_keys_stay_object_lists(self):
        t = BPlusTree(TreeConfig(leaf_capacity=8, internal_capacity=8))
        words = [f"k{i:04d}" for i in range(300)]
        random.Random(3).shuffle(words)
        for w in words:
            t.insert(w, w)
        assert [k for k, _ in t.items()] == sorted(words)
        leaf = t.head_leaf
        while leaf is not None:
            assert not leaf.typed
            leaf = leaf.next

    def test_leaf_level_gap_claims_count(self):
        stats = TreeStats()
        leaf = LeafNode(16, stats)
        for k in (10, 20, 30, 40):
            leaf.insert_entry(k, None)
        assert stats.gap_hits == 0  # appends are never counted
        leaf.insert_entry(25, None)  # migrate cursor mid-leaf
        leaf.insert_entry(26, None)  # claim at the migrated cursor
        assert stats.gap_hits >= 1
        assert leaf.keys == [10, 20, 25, 26, 30, 40]


class TestInternalNode:
    def _node_with_children(self, pivots):
        node = InternalNode()
        node.keys = list(pivots)
        node.children = []
        lo = None
        bounds = [None, *pivots, None]
        for i in range(len(pivots) + 1):
            child = LeafNode()
            start = bounds[i] if bounds[i] is not None else 0
            child.insert_entry(start, start)
            child.parent = node
            node.children.append(child)
        return node

    def test_descent_child_choice(self):
        # Every root-to-leaf walk picks children[bisect_right(keys, key)]:
        # a key equal to a pivot goes right.  Hang the node under a tree
        # and check each walk (lookup, insert, cache trace) at the
        # boundary keys.
        node = self._node_with_children([10, 20])
        tree = BPlusTree(TreeConfig())
        tree._root = node
        tree._height = 2
        for key, child, low, high in [
            (5, 0, None, 10),
            (10, 1, 10, 20),
            (15, 1, 10, 20),
            (20, 2, 20, None),
            (99, 2, 20, None),
        ]:
            want = node.children[child]
            assert tree._find_leaf(key) is want
            assert tree._descend_for_insert(key) == (want, low, high)
            assert list(lookup_trace(tree, [key])) == [
                node.node_id, want.node_id,
            ]
            # get walks the same way: the child's one key is found, any
            # other key in its range is absent.
            assert tree.get(want.min_key) == want.min_key
            present = key == want.min_key
            assert tree.get(key, "absent") == (key if present else "absent")

    def test_index_of_child(self):
        node = self._node_with_children([10, 20, 30])
        for i, child in enumerate(node.children):
            assert node.index_of_child(child) == i

    def test_index_of_child_empty_child_falls_back_to_scan(self):
        node = self._node_with_children([10])
        node.children[1].keys = []
        node.children[1].values = []
        assert node.index_of_child(node.children[1]) == 1

    def test_index_of_foreign_child_raises(self):
        node = self._node_with_children([10])
        with pytest.raises(ValueError):
            node.index_of_child(LeafNode())

    def test_insert_child(self):
        node = self._node_with_children([10, 30])
        fresh = LeafNode()
        fresh.insert_entry(20, 20)
        node.insert_child(20, fresh)
        assert node.keys == [10, 20, 30]
        assert node.children[2] is fresh
        assert fresh.parent is node

    def test_split_pushes_middle_key_up(self):
        node = self._node_with_children([10, 20, 30, 40])
        right, push_up = node.split()
        assert push_up == 30
        assert node.keys == [10, 20]
        assert right.keys == [40]
        assert len(node.children) == 3
        assert len(right.children) == 2
        assert all(c.parent is right for c in right.children)
        assert all(c.parent is node for c in node.children)
