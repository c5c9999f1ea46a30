"""Basic B+-tree operations across every variant (they must all behave
extensionally identically to a sorted-dict oracle)."""

import pytest

from repro.core import BPlusTree, TreeConfig

from conftest import shuffled_keys, validate_tree


class TestEmptyTree:
    def test_len(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        assert len(tree) == 0

    def test_get_default(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        assert tree.get(42) is None
        assert tree.get(42, "missing") == "missing"

    def test_contains(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        assert 42 not in tree

    def test_range_query(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        assert tree.range_query(0, 100) == []

    def test_min_max_none(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        assert tree.min_key() is None
        assert tree.max_key() is None

    def test_height_one(self, small_config, any_tree_class):
        assert any_tree_class(small_config).height == 1

    def test_validates(self, small_config, any_tree_class):
        any_tree_class(small_config).validate()


class TestInsertAndGet:
    def test_single(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.insert(5, "five")
        assert len(tree) == 1
        assert tree.get(5) == "five"
        assert 5 in tree

    def test_sorted_ingest(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        for k in range(500):
            tree.insert(k, k * 2)
        assert len(tree) == 500
        assert list(tree.keys()) == list(range(500))
        validate_tree(tree)

    def test_reverse_ingest(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        for k in reversed(range(500)):
            tree.insert(k, k)
        assert list(tree.keys()) == list(range(500))
        validate_tree(tree)

    def test_shuffled_ingest(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        keys = shuffled_keys(800, seed=3)
        for k in keys:
            tree.insert(k, -k)
        assert len(tree) == 800
        for k in keys[::37]:
            assert tree.get(k) == -k
        validate_tree(tree)

    def test_upsert_overwrites(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        for k in range(100):
            tree.insert(k, "old")
        for k in range(100):
            tree.insert(k, "new")
        assert len(tree) == 100
        assert all(v == "new" for _, v in tree.items())
        validate_tree(tree)

    def test_negative_and_sparse_keys(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        keys = [-500, -3, 0, 7, 10_000, 999_999_999]
        for k in keys:
            tree.insert(k, k)
        assert list(tree.keys()) == sorted(keys)

    def test_none_value_is_storable(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.insert(1, None)
        assert 1 in tree
        assert tree.get(1, "default") is None

    def test_min_max(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        for k in [5, 1, 9, 3]:
            tree.insert(k, k)
        assert tree.min_key() == 1
        assert tree.max_key() == 9

    def test_height_grows(self, small_config):
        tree = BPlusTree(small_config)
        for k in range(1000):
            tree.insert(k, k)
        assert tree.height >= 3
        validate_tree(tree)


class TestRangeQuery:
    @pytest.fixture
    def loaded(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        for k in shuffled_keys(300, seed=1):
            tree.insert(k, k * 10)
        return tree

    def test_half_open_semantics(self, loaded):
        out = loaded.range_query(10, 20)
        assert [k for k, _ in out] == list(range(10, 20))

    def test_values_come_along(self, loaded):
        out = loaded.range_query(5, 8)
        assert out == [(5, 50), (6, 60), (7, 70)]

    def test_empty_range(self, loaded):
        assert loaded.range_query(20, 20) == []
        assert loaded.range_query(20, 10) == []

    def test_unbounded_below(self, loaded):
        out = loaded.range_query(-100, 3)
        assert [k for k, _ in out] == [0, 1, 2]

    def test_beyond_max(self, loaded):
        out = loaded.range_query(295, 10_000)
        assert [k for k, _ in out] == list(range(295, 300))

    def test_full_scan(self, loaded):
        out = loaded.range_query(-1, 10_000)
        assert [k for k, _ in out] == list(range(300))

    def test_count_range(self, loaded):
        assert loaded.count_range(0, 300) == 300
        assert loaded.count_range(100, 150) == 50

    def test_counts_leaf_accesses(self, loaded):
        before = loaded.stats.leaf_accesses
        loaded.range_query(0, 100)
        touched = loaded.stats.leaf_accesses - before
        # 100 keys over capacity-8 leaves: at least 8 leaves touched.
        assert touched >= 100 // 8


class TestIteration:
    def test_items_sorted(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        for k in shuffled_keys(200, seed=9):
            tree.insert(k, k)
        assert [k for k, _ in tree.items()] == list(range(200))

    def test_leaves_chain_covers_all(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        for k in range(100):
            tree.insert(k, k)
        total = sum(leaf.size for leaf in tree.leaves())
        assert total == 100

    def test_head_and_tail(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        for k in shuffled_keys(100, seed=2):
            tree.insert(k, k)
        assert tree.head_leaf.min_key == 0
        assert tree.tail_leaf.max_key == 99


class TestStatsAccounting:
    def test_classical_tree_only_top_inserts(self, small_config):
        tree = BPlusTree(small_config)
        for k in range(100):
            tree.insert(k, k)
        assert tree.stats.top_inserts == 100
        assert tree.stats.fast_inserts == 0

    def test_point_lookup_counts(self, small_config):
        tree = BPlusTree(small_config)
        for k in range(100):
            tree.insert(k, k)
        tree.get(50)
        assert tree.stats.point_lookups == 1
        assert tree.stats.node_accesses == tree.height
        assert tree.stats.leaf_accesses == 1

    def test_fastpath_sorted_all_fast(self, small_config, fastpath_tree_class):
        tree = fastpath_tree_class(small_config)
        for k in range(1000):
            tree.insert(k, k)
        # Fully sorted data: every insert takes the fast path.
        assert tree.stats.fast_insert_fraction == 1.0


class TestMemoryAccounting:
    def test_occupancy_sorted_classical_half(self, small_config):
        tree = BPlusTree(small_config)
        for k in range(1000):
            tree.insert(k, k)
        occ = tree.occupancy()
        # Right-deep 50% splits leave every leaf about half full.
        assert 0.45 <= occ.avg_occupancy <= 0.6

    def test_memory_bytes_positive_and_monotone(self, small_config):
        tree = BPlusTree(small_config)
        tree.insert(1, 1)
        small = tree.memory_bytes()
        for k in range(2, 1000):
            tree.insert(k, k)
        assert tree.memory_bytes() > small
