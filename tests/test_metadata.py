"""Tests for fast-path metadata structures and the Table 1 digest."""

import pytest

from repro.core import (
    LilBPlusTree,
    PoleBPlusTree,
    QuITTree,
    TailBPlusTree,
    TreeConfig,
)
from repro.core.metadata import (
    METADATA_FIELDS,
    PoleState,
    extra_metadata_bytes,
    metadata_bytes,
)


@pytest.fixture(params=[TailBPlusTree, LilBPlusTree, PoleBPlusTree,
                        QuITTree], ids=lambda cls: cls.name)
def fp_tree(request):
    return request.param(TreeConfig(leaf_capacity=8, internal_capacity=8))


class TestFastPathAccepts:
    """``_fast_path_accepts`` is the one ``[low, high)`` window test every
    fast-path variant shares."""

    def test_empty_rejects(self, fp_tree):
        fp_tree._fp.leaf = None
        assert not fp_tree._fast_path_accepts(5)

    def test_unbounded(self, fp_tree):
        fp_tree._fp.low = fp_tree._fp.high = None
        assert fp_tree._fast_path_accepts(-1_000_000)
        assert fp_tree._fast_path_accepts(1_000_000)

    def test_lower_bound(self, fp_tree):
        fp_tree._fp.low, fp_tree._fp.high = 10, None
        assert not fp_tree._fast_path_accepts(9)
        assert fp_tree._fast_path_accepts(10)

    def test_upper_bound_exclusive(self, fp_tree):
        fp_tree._fp.low, fp_tree._fp.high = 0, 20
        assert fp_tree._fast_path_accepts(19)
        assert not fp_tree._fast_path_accepts(20)


class TestInsertWindowAgreement:
    """``insert`` inlines the window test; the fast-insert counter shows
    that it admits exactly the keys ``_fast_path_accepts`` admits, at
    each edge of the window."""

    @staticmethod
    def _tree(cls):
        tree = cls(TreeConfig(leaf_capacity=8, internal_capacity=8))
        tree.bulk_load([(k, k) for k in range(0, 400, 10)])
        return tree

    def _admits(self, cls, leaf_index, key):
        """Pin a fresh tree's fast path to leaf ``leaf_index`` (None:
        unset), insert ``key`` and return whether it took the fast
        path."""
        tree = self._tree(cls)
        if leaf_index is None:
            tree._fp.leaf = None
        else:
            leaf = list(tree.leaves())[leaf_index]
            tree._pin(leaf, *tree.bounds_of_leaf(leaf))
        accepts = tree._fast_path_accepts(key)
        before = tree.stats.fast_inserts
        tree.insert(key, key)
        assert tree.stats.fast_inserts - before == accepts, key
        return accepts

    def test_bounded_window_edges(self, fp_tree):
        cls = type(fp_tree)
        tree = self._tree(cls)
        low, high = tree.bounds_of_leaf(list(tree.leaves())[2])
        assert (low, high) == (160, 240)
        admitted = [self._admits(cls, 2, k)
                    for k in (low - 1, low, high - 1, high)]
        assert admitted == [False, True, True, False]

    def test_open_bounds(self, fp_tree):
        assert self._admits(type(fp_tree), 0, -10**6)
        assert self._admits(type(fp_tree), -1, 10**6)

    def test_unset_leaf(self, fp_tree):
        assert not self._admits(type(fp_tree), None, 200)


class TestPoleState:
    def test_defaults(self):
        state = PoleState()
        assert state.prev is None
        assert state.next_candidate is None
        assert state.fails == 0


class TestTable1:
    def test_all_four_indexes_present(self):
        assert set(METADATA_FIELDS) == {
            "B+-tree", "tail-B+-tree", "lil-B+-tree", "QuIT",
        }

    def test_field_counts_match_paper(self):
        # Table 1 row counts: 3, 6, 8, 12 checkmarks respectively.
        assert len(METADATA_FIELDS["B+-tree"]) == 3
        assert len(METADATA_FIELDS["tail-B+-tree"]) == 6
        assert len(METADATA_FIELDS["lil-B+-tree"]) == 8
        assert len(METADATA_FIELDS["QuIT"]) == 12

    def test_supersets(self):
        base = set(METADATA_FIELDS["B+-tree"])
        tail = set(METADATA_FIELDS["tail-B+-tree"])
        lil = set(METADATA_FIELDS["lil-B+-tree"])
        quit_ = set(METADATA_FIELDS["QuIT"])
        assert base < tail < lil < quit_

    def test_quit_under_20_extra_bytes(self):
        # The paper: "QuIT needs less than 20 bytes of additional
        # metadata" (over the lil fast path).
        assert 0 < extra_metadata_bytes("QuIT") < 20

    def test_bytes_monotone(self):
        order = ["B+-tree", "tail-B+-tree", "lil-B+-tree", "QuIT"]
        sizes = [metadata_bytes(n) for n in order]
        assert sizes == sorted(sizes)
