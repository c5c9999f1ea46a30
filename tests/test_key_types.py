"""Non-arithmetic key types: every variant must remain correct (QuIT's
IKR degrades gracefully to 50% splits when keys cannot be extrapolated).
"""

import random

import pytest

from repro.betree import BeTree, BeTreeConfig
from repro.core import (
    DurableTree,
    QuITTree,
    TreeConfig,
    carve_runs,
    probe_runs,
)

from conftest import validate_tree

CFG = TreeConfig(leaf_capacity=8, internal_capacity=8)


def words(n, seed=0):
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    out = set()
    while len(out) < n:
        out.add("".join(rng.choice(alphabet) for _ in range(6)))
    return sorted(out)


class TestStringKeys:
    def test_sorted_string_ingest(self, any_tree_class):
        tree = any_tree_class(CFG)
        keys = words(500, seed=1)
        for w in keys:
            tree.insert(w, w.upper())
        validate_tree(tree)
        assert list(tree.keys()) == keys
        assert tree.get(keys[123]) == keys[123].upper()

    def test_shuffled_string_ingest(self, any_tree_class):
        tree = any_tree_class(CFG)
        keys = words(500, seed=2)
        shuffled = list(keys)
        random.Random(3).shuffle(shuffled)
        for w in shuffled:
            tree.insert(w, None)
        validate_tree(tree)
        assert list(tree.keys()) == keys

    def test_string_range_query(self, any_tree_class):
        tree = any_tree_class(CFG)
        for w in words(300, seed=4):
            tree.insert(w, w)
        got = tree.range_query("d", "g")
        assert all("d" <= k < "g" for k, _ in got)
        assert got == sorted(got)

    def test_string_deletes(self, any_tree_class):
        tree = any_tree_class(CFG)
        keys = words(300, seed=5)
        for w in keys:
            tree.insert(w, w)
        for w in keys[:150]:
            assert tree.delete(w)
        validate_tree(tree)
        assert list(tree.keys()) == keys[150:]

    def test_quit_sorted_strings_keep_fast_path(self):
        # Even without IKR, the pole follows sorted appends.
        tree = QuITTree(CFG)
        for w in words(1000, seed=6):
            tree.insert(w, None)
        assert tree.stats.fast_insert_fraction > 0.95
        validate_tree(tree)


class TestTupleKeys:
    def test_composite_tuples(self, any_tree_class):
        tree = any_tree_class(CFG)
        keys = [(i // 10, i % 10) for i in range(400)]
        shuffled = list(keys)
        random.Random(7).shuffle(shuffled)
        for k in shuffled:
            tree.insert(k, sum(k))
        validate_tree(tree)
        assert list(tree.keys()) == keys
        assert tree.get((7, 3)) == 10

    def test_tuple_range(self, any_tree_class):
        tree = any_tree_class(CFG)
        for i in range(200):
            tree.insert((i, 0), i)
        got = tree.range_query((50, 0), (60, 0))
        assert [k for k, _ in got] == [(i, 0) for i in range(50, 60)]


class TestBeTreeKeyTypes:
    def test_string_keys(self):
        t = BeTree(BeTreeConfig(leaf_capacity=8, fanout=4,
                                buffer_capacity=12))
        keys = words(400, seed=8)
        shuffled = list(keys)
        random.Random(9).shuffle(shuffled)
        for w in shuffled:
            t.insert(w, w)
        t.validate()
        assert [k for k, _ in t.items()] == keys
        assert t.range_query("a", "c") == [
            (k, k) for k in keys if "a" <= k < "c"
        ]


class TestFloatKeys:
    def test_float_keys_everywhere(self, any_tree_class):
        tree = any_tree_class(CFG)
        keys = [i * 0.5 for i in range(500)]
        shuffled = list(keys)
        random.Random(10).shuffle(shuffled)
        for k in shuffled:
            tree.insert(k, k)
        validate_tree(tree)
        assert list(tree.keys()) == keys

    def test_quit_ikr_works_on_floats(self):
        tree = QuITTree(TreeConfig(leaf_capacity=64, internal_capacity=64))
        for i in range(5000):
            tree.insert(i * 0.25, None)
        # IKR handles float domains: variable splits still happen.
        assert tree.stats.variable_splits > 0
        assert tree.occupancy().avg_occupancy > 0.9


class TestMixedIntFloatKeys:
    """``insert_many`` orders mixed int/float keys as Python compares
    them.  Above 2**53 an int and a float can differ while their float64
    images are equal, so a float64 run detector would merge the two
    keys below into one run and store them out of order."""

    # 64 pairs: 62 ascending ints, then an int just above 2**53 followed
    # by a float that is smaller than it (a second run).
    BATCH = [(i, i) for i in range(62)] + [
        (2**53 + 1, "int"),
        (2.0**53, "float"),
    ]

    def reference(self, tree_class):
        tree = tree_class(CFG)
        for key, value in self.BATCH:
            tree.insert(key, value)
        return list(tree.items())

    def test_run_primitives_keep_exact_order(self):
        carved = list(carve_runs(self.BATCH))
        assert len(carved) == 2
        assert carved[1] == ([2.0**53], ["float"])
        assert probe_runs(self.BATCH)[1] == 2

    def test_insert_many_matches_per_key(self, any_tree_class):
        tree = any_tree_class(CFG)
        tree.insert_many(self.BATCH)
        validate_tree(tree)
        assert list(tree.items()) == self.reference(any_tree_class)
        assert tree.get(2.0**53) == "float"
        assert tree.get(2**53 + 1) == "int"

    def test_wal_replay_matches_per_key(self, any_tree_class, tmp_path):
        durable = DurableTree(any_tree_class(CFG), tmp_path, fsync="none")
        durable.insert_many(self.BATCH)
        durable.close()
        recovered, _ = DurableTree.recover(tmp_path, any_tree_class, CFG)
        try:
            validate_tree(recovered.tree)
            assert list(recovered.tree.items()) == self.reference(
                any_tree_class
            )
        finally:
            recovered.close()
