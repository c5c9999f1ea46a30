"""Failure injection: validate() must catch every class of structural
corruption it claims to check.

Violations are raised as :class:`TreeInvariantError` (explicitly, not
via ``assert``), so this suite is also run under ``python -O`` in CI to
lock in that validation survives optimized mode.
"""

import pytest

from repro.core import BPlusTree, QuITTree, TreeConfig, TreeInvariantError
from repro.core.node import InternalNode, LeafNode


@pytest.fixture
def tree(small_config):
    t = BPlusTree(small_config)
    for k in range(500):
        t.insert(k, k)
    t.validate()
    return t


def first_internal(tree) -> InternalNode:
    node = tree.root
    assert not node.is_leaf
    return node


def corrupt_keys(leaf, mutate) -> None:
    """Apply ``mutate`` to the leaf's key list and write it back (the
    leaf's ``keys`` property is a packed copy, so in-place mutation alone
    would not reach the slot arrays)."""
    keys = leaf.keys
    mutate(keys)
    leaf.keys = keys


def drop_one_value(leaf) -> None:
    """Make the physical value storage one element short of the keys."""
    leaf.svals.pop()  # breaks the slab-length invariant


class TestValidateCatchesCorruption:
    def test_unsorted_leaf_keys(self, tree):
        leaf = tree.head_leaf

        def swap(keys):
            keys[0], keys[1] = keys[1], keys[0]

        corrupt_keys(leaf, swap)
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_key_outside_pivot_range(self, tree):
        leaf = tree.head_leaf.next

        def bump(keys):
            keys[-1] = 10_000_000

        corrupt_keys(leaf, bump)
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_broken_parent_pointer(self, tree):
        leaf = tree.head_leaf.next
        leaf.parent = None
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_broken_next_link(self, tree):
        leaf = tree.head_leaf
        leaf.next = leaf.next.next  # skip one leaf
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_broken_prev_link(self, tree):
        leaf = tree.head_leaf.next
        leaf.prev = None
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_size_drift(self, tree):
        tree._size += 1
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_height_drift(self, tree):
        tree._height += 1
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_values_keys_length_mismatch(self, tree):
        leaf = tree.head_leaf
        drop_one_value(leaf)
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_overfull_leaf(self, tree):
        leaf = tree.tail_leaf
        leaf.keys = leaf.keys + [10_000 + extra for extra in range(20)]
        leaf.values = leaf.values + list(range(20))
        tree._size += 20
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_underfull_leaf_with_strict_min_fill(self, tree):
        leaf = tree.head_leaf
        removed = 0
        while leaf.size > 1:
            leaf.remove_at(0)
            removed += 1
        tree._size -= removed
        with pytest.raises(TreeInvariantError):
            tree.validate(check_min_fill=True)
        # Relaxed mode tolerates it (QuIT's variable split relies on
        # this allowance).
        tree.validate(check_min_fill=False)

    def test_internal_child_count_mismatch(self, tree):
        node = first_internal(tree)
        node.keys.append(node.keys[-1] + 1)
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_duplicate_key_across_leaves(self, tree):
        second = tree.head_leaf.next
        dup = tree.head_leaf.min_key

        def plant(keys):
            keys[0] = dup

        corrupt_keys(second, plant)
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_error_is_catchable_as_assertion_error(self, tree):
        # Pre-existing callers treat validation failures as
        # AssertionError; the new type must remain compatible.
        tree._size += 1
        with pytest.raises(AssertionError):
            tree.validate()

    def test_validate_works_without_assert_statements(self, tree):
        # The guarantee behind the CI `python -O` job: an explicit raise,
        # not an ``assert``, carries every violation.
        import inspect

        src = inspect.getsource(BPlusTree._validate_node)
        assert "assert " not in src
        tree._size += 1
        with pytest.raises(TreeInvariantError):
            tree.validate()


class TestCheckReportsAllViolations:
    """validate(report=True) / check(): collect instead of raising."""

    def test_healthy_tree_reports_nothing(self, tree):
        assert tree.check() == []
        assert tree.validate(report=True) == []

    def test_collects_multiple_independent_violations(self, tree):
        tree._size += 1
        tree._height += 1
        leaf = tree.head_leaf

        def swap(keys):
            keys[0], keys[1] = keys[1], keys[0]

        corrupt_keys(leaf, swap)
        violations = tree.check()
        assert len(violations) >= 3
        text = "\n".join(violations)
        assert "size mismatch" in text
        assert "height drifted" in text
        assert "unsorted keys" in text
        # validate() without report still raises on the first.
        with pytest.raises(TreeInvariantError):
            tree.validate()

    def test_report_mode_never_raises_on_deep_corruption(self, tree):
        node = first_internal(tree)
        node.children[0].parent = None
        node.keys.append(node.keys[-1] + 1)
        drop_one_value(tree.tail_leaf)
        violations = tree.check()
        assert violations  # survey completed despite the mess

    def test_report_mode_terminates_on_leaf_chain_cycle(self, tree):
        leaf = tree.head_leaf
        leaf.next.next = leaf  # 2-cycle at the head of the chain
        violations = tree.check()
        assert any("cycle" in v or "chain" in v for v in violations)

    def test_min_fill_flag_respected_in_report_mode(self, tree):
        leaf = tree.head_leaf
        removed = 0
        while leaf.size > 1:
            leaf.remove_at(0)
            removed += 1
        tree._size -= removed
        assert any("min fill" in v for v in tree.check(check_min_fill=True))
        assert not any(
            "min fill" in v for v in tree.check(check_min_fill=False)
        )


class TestValidateAcceptsHealthyQuIT:
    def test_quit_after_mixed_workload(self, small_config):
        tree = QuITTree(small_config)
        for k in range(0, 1000, 2):
            tree.insert(k, k)
        for k in range(1, 1000, 2):
            tree.insert(k, k)
        for k in range(0, 500, 3):
            tree.delete(k)
        tree.validate(check_min_fill=False)
        assert tree.check(check_min_fill=False) == []


class TestFastPathWindow:
    """The fast-path window ``[fp.low, fp.high)`` must lie inside the
    cached leaf's pivot range; a narrower window is only conservative."""

    @pytest.fixture
    def pinned(self, small_config):
        # Pin the fast path to the head leaf, whose upper pivot bound is
        # finite (the tail's is open-ended).
        tree = QuITTree(small_config)
        for k in range(500):
            tree.insert(k, k)
        fp = tree._fp
        fp.leaf = tree.head_leaf
        fp.low, fp.high = tree.bounds_of_leaf(fp.leaf)
        assert fp.high is not None
        tree.validate(check_min_fill=False)
        return tree

    def test_widened_high_is_a_violation(self, pinned):
        pinned._fp.high += 1000
        with pytest.raises(TreeInvariantError, match="above the leaf's pivot"):
            pinned.validate(check_min_fill=False)
        violations = pinned.check(check_min_fill=False)
        assert violations == [
            "fast-path window extends above the leaf's pivot range"
        ]

    def test_narrowed_window_is_tolerated(self, pinned):
        fp = pinned._fp
        fp.low, fp.high = fp.high - 2, fp.high - 1
        assert pinned.check(check_min_fill=False) == []

    def test_detached_leaf_is_a_violation(self, pinned):
        pinned._fp.leaf = LeafNode()
        assert pinned.check(check_min_fill=False) == [
            "fast-path leaf detached from tree"
        ]

    def test_leaf_unknown_to_its_parent_is_reported(self, pinned):
        # The parent chain reaches the root, but the parent does not
        # list the leaf: check() must report it, not raise.
        orphan = LeafNode()
        orphan.parent = pinned.root
        pinned._fp.leaf = orphan
        assert pinned.check(check_min_fill=False) == [
            "fast-path leaf missing from its parent's children"
        ]
