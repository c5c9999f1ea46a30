"""Dict-style API sugar, bulk ops, and persistence round-trips."""

import pytest

from repro.core import (
    BPlusTree,
    PersistenceError,
    QuITTree,
    TreeConfig,
    load_tree,
    save_tree,
)

from conftest import shuffled_keys


class TestDictStyleApi:
    def test_getitem(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree[5] = "five"
        assert tree[5] == "five"

    def test_getitem_missing_raises(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        with pytest.raises(KeyError):
            tree[404]

    def test_delitem(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree[1] = 1
        del tree[1]
        assert 1 not in tree
        with pytest.raises(KeyError):
            del tree[1]

    def test_iter_yields_sorted_keys(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        for k in (3, 1, 2):
            tree[k] = k
        assert list(tree) == [1, 2, 3]

    def test_bool(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        assert not tree
        tree[1] = 1
        assert tree

    def test_update(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.update((k, k * 2) for k in range(100))
        assert len(tree) == 100
        assert tree[40] == 80


class TestDeleteRange:
    def test_removes_half_open_range(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.update((k, k) for k in range(200))
        removed = tree.delete_range(50, 150)
        assert removed == 100
        assert list(tree) == list(range(50)) + list(range(150, 200))
        tree.validate(check_min_fill=False)

    def test_empty_range(self, small_config):
        tree = BPlusTree(small_config)
        tree.update((k, k) for k in range(10))
        assert tree.delete_range(100, 200) == 0
        assert len(tree) == 10

    def test_whole_tree(self, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.update((k, k) for k in shuffled_keys(300, seed=1))
        assert tree.delete_range(-1, 10_000) == 300
        assert len(tree) == 0
        tree.validate()


class TestPersistence:
    def test_round_trip(self, tmp_path, small_config, any_tree_class):
        tree = any_tree_class(small_config)
        tree.update((k, f"v{k}") for k in shuffled_keys(500, seed=2))
        path = tmp_path / "tree.quit"
        assert save_tree(tree, path) == 500
        loaded = load_tree(path)
        assert list(loaded.items()) == list(tree.items())
        loaded.validate(check_min_fill=False)

    def test_reload_as_different_variant(self, tmp_path, small_config):
        tree = BPlusTree(small_config)
        tree.update((k, k) for k in range(300))
        path = tmp_path / "t.quit"
        save_tree(tree, path)
        loaded = load_tree(path, tree_class=QuITTree)
        assert isinstance(loaded, QuITTree)
        # Fast path keeps working after a reload.
        for k in range(300, 400):
            loaded.insert(k, k)
        assert loaded.stats.fast_insert_fraction == 1.0

    def test_reload_packs_leaves(self, tmp_path, small_config):
        tree = BPlusTree(small_config)
        tree.update((k, k) for k in range(1000))
        assert tree.occupancy().avg_occupancy < 0.6
        path = tmp_path / "t.quit"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert loaded.occupancy().avg_occupancy > 0.9

    def test_capacity_override(self, tmp_path, small_config):
        tree = BPlusTree(small_config)
        tree.update((k, k) for k in range(100))
        path = tmp_path / "t.quit"
        save_tree(tree, path)
        loaded = load_tree(
            path, config=TreeConfig(leaf_capacity=32, internal_capacity=32)
        )
        assert loaded.config.leaf_capacity == 32

    def test_literal_values_round_trip(self, tmp_path, small_config):
        tree = BPlusTree(small_config)
        values = [None, True, 3.5, "text", (1, 2), [1, "a"], {"k": 1}]
        for i, v in enumerate(values):
            tree.insert(i, v)
        path = tmp_path / "t.quit"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert [v for _, v in loaded.items()] == values

    def test_rejects_non_literal_value(self, tmp_path, small_config):
        tree = BPlusTree(small_config)
        tree.insert(1, object())
        with pytest.raises(PersistenceError):
            save_tree(tree, tmp_path / "t.quit")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.quit"
        path.write_text("not a tree\n")
        with pytest.raises(PersistenceError):
            load_tree(path)

    def test_rejects_truncated_file(self, tmp_path, small_config):
        tree = BPlusTree(small_config)
        tree.update((k, k) for k in range(50))
        path = tmp_path / "t.quit"
        save_tree(tree, path)
        data = path.read_bytes()
        assert data.startswith(b"quit-tree-v3\t50\t")
        # A torn last record, and a body cut back to a record boundary.
        for cut in (data[:-5], data[:data.index(b"\n") + 1]):
            path.write_bytes(cut)
            with pytest.raises(PersistenceError):
                load_tree(path)

    def test_empty_tree_round_trip(self, tmp_path, small_config):
        tree = BPlusTree(small_config)
        path = tmp_path / "empty.quit"
        assert save_tree(tree, path) == 0
        loaded = load_tree(path)
        assert len(loaded) == 0
