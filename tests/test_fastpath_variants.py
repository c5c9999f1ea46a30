"""Behavioural tests for the tail / lil fast paths (§2-§3)."""

import pytest

from repro.core import (
    BPlusTree,
    LilBPlusTree,
    TailBPlusTree,
    TreeConfig,
)
from repro.core.bptree import TreeInvariantError
from repro.sortedness import generate_keys

from conftest import validate_tree

CFG = TreeConfig(leaf_capacity=16, internal_capacity=16)


def ingest(cls, keys, cfg=CFG):
    tree = cls(cfg)
    for k in keys:
        tree.insert(int(k), int(k))
    return tree


class TestTailTree:
    def test_sorted_all_fast(self):
        tree = ingest(TailBPlusTree, range(1000))
        assert tree.stats.fast_insert_fraction == 1.0
        validate_tree(tree)

    def test_fast_path_points_at_tail(self):
        tree = ingest(TailBPlusTree, range(200))
        assert tree.fast_path_leaf is tree.tail_leaf

    def test_bounded_tail_window_fails_validate_and_scrub_resets(self):
        # The tail's window is unbounded above by construction, which is
        # what lets the shared window test stand in for a lower-bound-only
        # check; an upper bound is a checked invariant violation.
        tree = ingest(TailBPlusTree, range(200))
        assert tree.check() == []
        tree._fp.high = 10_000
        assert tree.check() == ["tail window has an upper bound"]
        with pytest.raises(TreeInvariantError):
            tree.validate()
        report = tree.scrub()
        assert "tail window has an upper bound" in report.issues
        assert tree.stats.scrub_resets == 1
        assert tree.fast_path_bounds == (
            tree.bounds_of_leaf(tree.tail_leaf)[0], None
        )
        assert tree.check() == []

    def test_pin_off_the_tail_fails_validate(self):
        tree = ingest(TailBPlusTree, range(200))
        head = tree._head
        tree._fp.leaf = head
        tree._fp.low, tree._fp.high = tree.bounds_of_leaf(head)
        assert "fast-path pin is not the tail leaf" in tree.check()
        assert not tree.scrub().clean
        assert tree.fast_path_leaf is tree.tail_leaf

    def test_below_bound_goes_top(self):
        tree = ingest(TailBPlusTree, range(200))
        before = tree.stats.top_inserts
        tree.insert(-5, -5)
        assert tree.stats.top_inserts == before + 1
        validate_tree(tree)

    def test_forward_outlier_stales_the_path(self):
        # One huge key fills the tail with an outlier; once the tail
        # splits, its lower bound outruns the stream (§2, Fig. 3).
        tree = ingest(TailBPlusTree, range(100))
        tree.insert(1_000_000, 0)
        for k in range(100, 130):
            tree.insert(k, k)  # still below the split point: fast
        # Force the tail leaf to split by appending more huge keys.
        for k in range(1_000_001, 1_000_020):
            tree.insert(k, k)
        stats_before = tree.stats.snapshot()
        for k in range(130, 180):
            tree.insert(k, k)
        delta = tree.stats.diff(stats_before)
        assert delta.fast_inserts == 0
        assert delta.top_inserts == 50
        validate_tree(tree)

    def test_tail_collapse_under_bods(self):
        # Fig. 3's qualitative claim at this scale: by K=1% the tail path
        # serves almost nothing.
        keys = generate_keys(20_000, 0.01, 1.0, seed=1)
        tree = ingest(TailBPlusTree, keys)
        assert tree.stats.fast_insert_fraction < 0.30
        sorted_tree = ingest(TailBPlusTree, range(20_000))
        assert sorted_tree.stats.fast_insert_fraction == 1.0


class TestLilTree:
    def test_sorted_all_fast(self):
        tree = ingest(LilBPlusTree, range(1000))
        assert tree.stats.fast_insert_fraction == 1.0

    def test_pointer_follows_top_insert(self):
        tree = ingest(LilBPlusTree, range(200))
        tree.insert(50_000, 0)      # outlier: top-insert
        tree.insert(13, 1)          # back-fill far below
        # lil now points at the leaf holding 13.
        assert 13 in tree.fast_path_leaf.keys

    def test_comes_back_after_outlier(self):
        # The lil pointer pays two misses per displaced entry but then
        # resumes fast inserts (§3).
        tree = ingest(LilBPlusTree, range(500))
        stats0 = tree.stats.snapshot()
        tree.insert(10, 10)   # duplicate upsert lands mid-tree: top-insert
        tree.insert(500, 500)  # frontier key: top-insert (lil mid-tree)
        tree.insert(501, 501)  # now fast again
        delta = tree.stats.diff(stats0)
        assert delta.top_inserts == 2
        assert delta.fast_inserts == 1

    def test_matches_eq1_on_bods(self):
        # Eq. 1: FI(k) = (1-k)^2; at K=5% that is ~90%.
        keys = generate_keys(30_000, 0.05, 1.0, seed=4)
        tree = ingest(
            LilBPlusTree, keys,
            TreeConfig(leaf_capacity=64, internal_capacity=64),
        )
        assert 0.85 <= tree.stats.fast_insert_fraction <= 0.95

    def test_split_follows_entry(self):
        cfg = TreeConfig(leaf_capacity=8, internal_capacity=8)
        tree = LilBPlusTree(cfg)
        for k in range(8):
            tree.insert(k, k)
        # The 9th sorted insert splits the lil leaf; the entry goes right
        # and lil must follow (Fig. 4d).
        tree.insert(8, 8)
        assert 8 in tree.fast_path_leaf.keys
        low, high = tree.fast_path_bounds
        assert low is not None and high is None

    def test_extensional_equality_with_classical(self):
        keys = generate_keys(5_000, 0.10, 1.0, seed=6)
        lil = ingest(LilBPlusTree, keys)
        classical = ingest(BPlusTree, keys)
        assert list(lil.items()) == list(classical.items())
        validate_tree(lil)
