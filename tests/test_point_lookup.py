"""Point lookups: the inlined descent and leaf search of ``get``.

``BPlusTree.get`` and ``FastPathTree.get`` inline the root-to-leaf walk
and the leaf bisect instead of calling ``_find_leaf`` / ``LeafNode.find``.
These tests pin what that inlining must keep: the exact lookup counters
(Fig. 10c reads ``leaf_accesses``) and the answers in every leaf state
a read can meet.
"""

import pytest

from repro.core import BPlusTree, QuITTree, TreeConfig
from repro.sortedness import generate_keys

COUNTERS = ("point_lookups", "node_accesses", "leaf_accesses",
            "read_fast_hits", "read_fast_misses")


@pytest.mark.parametrize("cls,expected", [
    (BPlusTree, (328, 1312, 328, 0, 0)),
    (QuITTree, (328, 1294, 328, 6, 322)),
])
def test_lookup_counters_are_pinned(cls, expected):
    # A BoDS K=L=5% stream of 2,000 keys into height-4 trees, then 288
    # strided probes (two absent) and the stream's last 40 keys, which
    # QuIT partly serves from its fast-path leaf.  A descent counts every
    # node on its path, a fast-path hit counts its one leaf.
    keys = [int(k) for k in generate_keys(2000, 0.05, 0.05, seed=7)]
    tree = cls(TreeConfig(leaf_capacity=16, internal_capacity=16))
    for k in keys:
        tree.insert(k, k * 3)
    assert tree.height == 4
    probes = list(range(-5, 2010, 7)) + keys[-40:]
    before = tree.stats.snapshot()
    got = [tree.get(p, -1) for p in probes]
    delta = tree.stats.diff(before)
    assert tuple(getattr(delta, c) for c in COUNTERS) == expected
    assert got == [p * 3 if 0 <= p < 2000 else -1 for p in probes]


def _check_against(tree, oracle, probes, default="absent"):
    for key in probes:
        assert tree.get(key, default) == oracle.get(key, default), key


def _absent_probes(tree, oracle):
    """Keys below the minimum, above the maximum and between every two
    neighbouring leaves, none of them stored."""
    lo, hi = min(oracle), max(oracle)
    probes = [lo - 1, lo - 1000, hi + 1, hi + 1000]
    leaves = [leaf for leaf in tree.leaves() if leaf.size]
    assert len(leaves) >= 2
    for left in leaves[:-1]:
        probes.append(left.max_key + 1)
    assert not any(p in oracle for p in probes)
    return probes


class TestInlinedLeafSearch:
    def test_mid_slab_gap_is_compacted(self, any_tree_class):
        tree = any_tree_class(TreeConfig(leaf_capacity=16,
                                         internal_capacity=8))
        oracle = {}
        for k in range(0, 2000, 10):
            tree.insert(k, -k)
            oracle[k] = -k
        # In each leaf with room, a key near its top and then one near its
        # bottom: the second insert drags the gap cursor back across the
        # slab, leaving stale slot copies inside [0, fill) that only a
        # compaction before the bisect hides.
        for leaf in list(tree.leaves()):
            keys = leaf.keys
            if 4 <= len(keys) <= len(leaf.skeys) - 2:
                for k in (keys[-2] + 5, keys[0] + 5):
                    tree.insert(k, -k)
                    oracle[k] = -k
        gapped = [leaf for leaf in tree.leaves() if leaf.gap != leaf.fill]
        assert gapped
        _check_against(tree, oracle, list(oracle))
        _check_against(tree, oracle, _absent_probes(tree, oracle))
        assert all(leaf.gap == leaf.fill for leaf in gapped)
        tree.validate(check_min_fill=False)

    def test_typed_slab_after_bulk_load(self, any_tree_class):
        tree = any_tree_class(TreeConfig(leaf_capacity=16,
                                         internal_capacity=8))
        oracle = {k: str(k) for k in range(0, 3000, 3)}
        tree.bulk_load(sorted(oracle.items()))
        assert all(leaf.typed for leaf in tree.leaves())
        _check_against(tree, oracle, list(oracle))
        _check_against(tree, oracle, _absent_probes(tree, oracle))
        # A float probe equal to a stored int finds it, as dict does.
        assert tree.get(9.0, "absent") == oracle[9]

    def test_demoted_slab(self, any_tree_class):
        tree = any_tree_class(TreeConfig(leaf_capacity=16,
                                         internal_capacity=8))
        oracle = {k: k for k in range(0, 3000, 3)}
        tree.bulk_load(sorted(oracle.items()))
        demotions = tree.stats.typed_demotions
        big = 2 ** 70  # out of int64: the tail leaf's slab demotes
        tree.insert(big, "big")
        oracle[big] = "big"
        assert tree.stats.typed_demotions == demotions + 1
        assert not tree.tail_leaf.typed
        _check_against(tree, oracle, list(oracle))
        _check_against(tree, oracle, _absent_probes(tree, oracle))

    def test_absent_keys_return_default(self, any_tree_class):
        tree = any_tree_class(TreeConfig(leaf_capacity=8,
                                         internal_capacity=8))
        oracle = {}
        for k in range(100, 900, 2):
            tree.insert(k, k)
            oracle[k] = k
        sentinel = object()
        for key in _absent_probes(tree, oracle):
            assert tree.get(key, sentinel) is sentinel
            assert tree.get(key) is None
