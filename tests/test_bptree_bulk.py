"""Bulk operations: bulk_load, bulk_insert_run."""

import pytest

from repro.core import BPlusTree, QuITTree, TreeConfig

from conftest import validate_tree


class TestBulkLoad:
    def test_empty_input(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.bulk_load([])
        assert len(tree) == 0

    def test_loads_sorted_pairs(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.bulk_load([(k, k * 2) for k in range(500)])
        assert len(tree) == 500
        assert tree.get(123) == 246
        assert list(tree.keys()) == list(range(500))
        validate_tree(tree)

    def test_full_fill_factor_packs_leaves(self, small_config):
        tree = BPlusTree(small_config)
        tree.bulk_load([(k, k) for k in range(512)], fill_factor=1.0)
        occ = tree.occupancy()
        assert occ.avg_occupancy > 0.95

    def test_partial_fill_factor(self, small_config):
        tree = BPlusTree(small_config)
        tree.bulk_load([(k, k) for k in range(512)], fill_factor=0.5)
        occ = tree.occupancy()
        assert 0.45 <= occ.avg_occupancy <= 0.62

    def test_rejects_non_empty_tree(self, small_config):
        tree = BPlusTree(small_config)
        tree.insert(1, 1)
        with pytest.raises(ValueError):
            tree.bulk_load([(2, 2)])

    def test_rejects_unsorted(self, small_config):
        tree = BPlusTree(small_config)
        with pytest.raises(ValueError):
            tree.bulk_load([(2, 2), (1, 1)])

    def test_rejects_duplicates(self, small_config):
        tree = BPlusTree(small_config)
        with pytest.raises(ValueError):
            tree.bulk_load([(1, 1), (1, 2)])

    def test_rejects_bad_fill_factor(self, small_config):
        tree = BPlusTree(small_config)
        with pytest.raises(ValueError):
            tree.bulk_load([(1, 1)], fill_factor=0.0)
        with pytest.raises(ValueError):
            tree.bulk_load([(1, 1)], fill_factor=1.5)

    def test_single_entry(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.bulk_load([(7, "seven")])
        assert tree.get(7) == "seven"
        validate_tree(tree)

    def test_inserts_after_bulk_load(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.bulk_load([(k, k) for k in range(0, 200, 2)])
        for k in range(1, 200, 2):
            tree.insert(k, k)
        assert list(tree.keys()) == list(range(200))
        validate_tree(tree)

    def test_fastpath_repinned_to_tail(self, small_config, fastpath_tree_class):
        tree = fastpath_tree_class(small_config)
        tree.bulk_load([(k, k) for k in range(100)])
        # Appends after a bulk load should ride the fast path.
        before = tree.stats.fast_inserts
        for k in range(100, 150):
            tree.insert(k, k)
        assert tree.stats.fast_inserts - before == 50
        validate_tree(tree)


class TestBulkInsertRun:
    def test_splice_into_middle(self, small_config):
        tree = BPlusTree(small_config)
        for k in range(0, 1000, 2):
            tree.insert(k, k)
        added = tree.bulk_insert_run([(k, -k) for k in range(1, 1000, 2)])
        assert added == 500
        assert len(tree) == 1000
        assert list(tree.keys()) == list(range(1000))
        assert tree.get(501) == -501
        validate_tree(tree)

    def test_upserts_duplicates(self, small_config):
        tree = BPlusTree(small_config)
        for k in range(100):
            tree.insert(k, "old")
        added = tree.bulk_insert_run([(k, "new") for k in range(50, 150)])
        assert added == 50
        assert tree.get(75) == "new"
        assert tree.get(25) == "old"
        validate_tree(tree)

    def test_empty_run(self, small_config):
        tree = BPlusTree(small_config)
        tree.insert(1, 1)
        assert tree.bulk_insert_run([]) == 0

    def test_into_empty_tree(self, small_config):
        tree = BPlusTree(small_config)
        added = tree.bulk_insert_run([(k, k) for k in range(300)])
        assert added == 300
        assert list(tree.keys()) == list(range(300))
        validate_tree(tree)

    def test_rejects_unsorted(self, small_config):
        tree = BPlusTree(small_config)
        with pytest.raises(ValueError):
            tree.bulk_insert_run([(2, 2), (1, 1)])

    def test_counts_segments(self, small_config):
        tree = BPlusTree(small_config)
        for k in range(0, 1000, 10):
            tree.insert(k, k)
        before = tree.stats.bulk_splice_segments
        # A contiguous run lands in few segments; scattered singles in many.
        tree.bulk_insert_run([(k, k) for k in range(2000, 2100)])
        contiguous = tree.stats.bulk_splice_segments - before
        assert contiguous <= 3
        before = tree.stats.bulk_splice_segments
        tree.bulk_insert_run([(k, k) for k in range(1, 999, 50)])
        scattered = tree.stats.bulk_splice_segments - before
        assert scattered >= 5
        validate_tree(tree)

    def test_fastpath_bounds_survive_splice(
        self, small_config, fastpath_tree_class
    ):
        tree = fastpath_tree_class(small_config)
        for k in range(200):
            tree.insert(k, k)
        # Splice a run straddling the fast-path leaf's range.
        tree.bulk_insert_run([(k, k) for k in range(150, 400)])
        for k in range(400, 500):
            tree.insert(k, k)
        assert list(tree.keys()) == list(range(500))
        validate_tree(tree)

    def test_tail_pointer_updated(self, small_config):
        tree = BPlusTree(small_config)
        for k in range(100):
            tree.insert(k, k)
        tree.bulk_insert_run([(k, k) for k in range(100, 400)])
        assert tree.tail_leaf.max_key == 399
        assert tree.max_key() == 399
