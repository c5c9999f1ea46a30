"""Equivalence tests for the batched read path.

The contract: for any probe batch, ``tree.get_many(keys)`` returns
exactly ``[tree.get(k, default) for k in keys]`` — aligned with the
input order, duplicates and misses included — and ``range_iter`` /
``count_range`` agree with ``range_query``, which itself agrees with a
filtered ``items()`` oracle.  Covered for every entry point: all tree
variants (including the QuIT ablations), BoDS near-sorted loads at
several (K, L) settings, the SWARE buffered tree with an unflushed
buffer, the concurrent wrapper, the Bε-tree, and the duplicate-key
adapter.
"""

from __future__ import annotations

import random

import pytest

from repro.betree import BeTree, BeTreeConfig
from repro.concurrency import ConcurrentTree, concurrent_tree
from repro.core import BPlusTree, DuplicateKeyIndex, QuITTree, TreeConfig
from repro.sortedness.bods import generate_keys
from repro.sware import SABPlusTree

from conftest import ALL_TREE_CLASSES

SMALL = TreeConfig(leaf_capacity=8, internal_capacity=8)


def _probe_batch(keys: list[int], seed: int = 13) -> list[int]:
    """Present keys, misses, and repeated probes, shuffled."""
    rng = random.Random(seed)
    hits = rng.sample(keys, min(len(keys), 200))
    misses = [max(keys) + 1 + i for i in range(50)] + [-5, -1]
    dupes = hits[:25] * 3
    batch = hits + misses + dupes
    rng.shuffle(batch)
    return batch


def _loaded(cls, keys, config=SMALL):
    tree = cls(config)
    for k in keys:
        tree.insert(k, k * 3)
    return tree


def _assert_read_counters(stats_diff: dict, n_probes: int) -> None:
    """Every probe in a ``get_many`` batch is accounted for exactly once
    as a chain hit or a re-descent; the batch never consults the
    fast-path window."""
    assert stats_diff["read_batches"] == 1
    assert (
        stats_diff["read_chain_hits"] + stats_diff["read_redescents"]
        == n_probes
    )
    # The batch's first positioning is always a root descent.
    assert stats_diff["read_redescents"] >= 1
    assert stats_diff["read_fast_hits"] == 0
    assert stats_diff["read_fast_misses"] == 0


def _stats_diff(stats, before: dict) -> dict:
    after = stats.as_dict()
    return {k: after[k] - before[k] for k in after}


# ----------------------------------------------------------------------
# get_many on the core variants
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "pattern",
    ["sorted", "reverse", "shuffled", "near_sorted"],
)
def test_get_many_matches_per_key(any_tree_class, pattern):
    n = 600
    rng = random.Random(5)
    keys = {
        "sorted": list(range(n)),
        "reverse": list(reversed(range(n))),
        "shuffled": rng.sample(range(n), n),
        "near_sorted": list(range(n)),
    }[pattern]
    if pattern == "near_sorted":
        for _ in range(n // 20):
            i, j = rng.randrange(n), rng.randrange(n)
            keys[i], keys[j] = keys[j], keys[i]
    tree = _loaded(any_tree_class, keys)
    probes = _probe_batch(keys)
    expected = [tree.get(k, default="miss") for k in probes]

    before = tree.stats.as_dict()
    got = tree.get_many(probes, default="miss")

    assert got == expected
    _assert_read_counters(_stats_diff(tree.stats, before), len(probes))


@pytest.mark.parametrize("k_frac,l_frac", [(0.0, 0.0), (0.05, 0.05), (0.25, 0.25), (1.0, 1.0)])
def test_get_many_on_bods_streams(any_tree_class, k_frac, l_frac):
    """BoDS-generated loads across the sortedness spectrum, from fully
    sorted (K=L=0) to fully scrambled (K=L=100%)."""
    keys = [int(k) for k in generate_keys(2_000, k_frac, l_frac, seed=9)]
    tree = _loaded(any_tree_class, keys)
    probes = _probe_batch(keys)
    expected = [tree.get(k) for k in probes]
    assert tree.get_many(probes) == expected


def test_get_many_empty_tree_and_empty_batch(any_tree_class):
    tree = any_tree_class(SMALL)
    assert tree.get_many([]) == []
    assert tree.get_many([1, 2, 3], default=0) == [0, 0, 0]
    tree.insert(5, "x")
    assert tree.get_many([]) == []
    assert tree.get_many(iter([4, 5, 6])) == [None, "x", None]


def test_get_many_after_deletes(any_tree_class):
    """Lazy deletion (QuIT) leaves empty leaves in the chain; the batched
    reader must not serve stale entries or lose live ones."""
    keys = list(range(500))
    tree = _loaded(any_tree_class, keys)
    rng = random.Random(3)
    gone = rng.sample(keys, 250)
    for k in gone:
        assert tree.delete(k)
    probes = _probe_batch(keys)
    expected = [tree.get(k, default="miss") for k in probes]
    assert tree.get_many(probes, default="miss") == expected


def test_get_many_fast_path_window_hits(fastpath_tree_class):
    """Probes inside the cached fast-path leaf's window: ``get_many``
    answers them with one descent and no window check, since the batch
    positions itself; per-key ``get`` serves them from the window
    without a descent and counts read_fast_hits."""
    tree = fastpath_tree_class(SMALL)
    for k in range(200):
        tree.insert(k, k)
    fp_leaf = tree._fp.leaf
    assert fp_leaf is not None and fp_leaf.keys
    in_window = list(fp_leaf.keys)

    before = tree.stats.as_dict()
    got = tree.get_many(list(reversed(in_window)))
    diff = _stats_diff(tree.stats, before)
    assert got == list(reversed(in_window))
    assert diff["read_redescents"] == 1
    assert diff["read_chain_hits"] == len(in_window) - 1
    assert diff["read_fast_hits"] == 0

    # Per-key get() takes the shortcut for in-window probes.
    before = tree.stats.as_dict()
    assert tree.get(in_window[-1]) == in_window[-1]
    diff = _stats_diff(tree.stats, before)
    assert diff["read_fast_hits"] == 1
    assert diff["read_fast_misses"] == 0

    # An out-of-window probe counts a miss and falls back to descent.
    before = tree.stats.as_dict()
    assert tree.get(-10) is None
    assert _stats_diff(tree.stats, before)["read_fast_misses"] == 1


# ----------------------------------------------------------------------
# get_many's parent routing: pivot edges and leaf states
# ----------------------------------------------------------------------

TINY = TreeConfig(leaf_capacity=4, internal_capacity=4)


def _internal_levels(tree) -> list[list]:
    """Internal nodes level by level, the leaves' parents last."""
    levels = []
    level = [tree.root]
    while not level[0].is_leaf:
        levels.append(level)
        level = [child for node in level for child in node.children]
    return levels


def _pivot_probes(tree) -> list[int]:
    """Every pivot of the leaves' parents and grandparents, each with
    its two neighbours, shuffled with a few duplicates."""
    levels = _internal_levels(tree)
    assert len(levels) >= 3  # height >= 4: parents and grandparents
    probes = [
        pivot + delta
        for level in levels[-2:]
        for node in level
        for pivot in node.keys
        for delta in (-1, 0, 1)
    ]
    probes += probes[::7]
    random.Random(8).shuffle(probes)
    return probes


def _assert_batch_matches_get(tree, probes, default="miss"):
    expected = [tree.get(k, default) for k in probes]
    before = tree.stats.as_dict()
    assert tree.get_many(probes, default) == expected
    _assert_read_counters(_stats_diff(tree.stats, before), len(probes))


def test_get_many_at_pivot_edges(any_tree_class):
    keys = random.Random(4).sample(range(0, 1_200, 2), 600)
    tree = _loaded(any_tree_class, keys, TINY)
    assert tree.height >= 4
    edges = [min(keys) - 5, min(keys) - 1, max(keys) + 1, max(keys) + 50]
    _assert_batch_matches_get(tree, _pivot_probes(tree) + edges + edges)


def test_get_many_over_emptied_leaves(any_tree_class):
    """A descending load leaves QuIT's pole on the head leaf with no
    predecessor, and pole deletes skip eager rebalance, so emptying it
    keeps an empty leaf in the tree; routing through the parents must
    still place every probe around it."""
    tree = _loaded(any_tree_class, list(range(1_198, -1, -2)), TINY)
    for k in range(200, 700, 6):
        assert tree.delete(k)
    head = tree.head_leaf
    for k in list(head.keys):
        assert tree.delete(k)
    if issubclass(any_tree_class, QuITTree):
        assert head.size == 0 and head is tree.head_leaf
    probes = _pivot_probes(tree) + list(range(-5, 1_210, 3))
    _assert_batch_matches_get(tree, probes)
    tree.validate(check_min_fill=False)


def test_get_many_single_leaf_root(any_tree_class):
    tree = _loaded(any_tree_class, [30, 10, 20], TINY)
    assert tree.height == 1
    _assert_batch_matches_get(tree, [20, 5, 30, 30, 25, 40, 10, 20])


def test_get_many_typed_slab_after_bulk_load(any_tree_class):
    tree = any_tree_class(TINY)
    tree.bulk_load([(k, str(k)) for k in range(0, 900, 3)])
    assert all(leaf.typed for leaf in tree.leaves())
    probes = _pivot_probes(tree) + [-3, 9.0, 897, 898, 5_000]
    _assert_batch_matches_get(tree, probes)
    assert tree.get_many([9.0])[0] == "9"


def test_probe_leaf_for_read_matches_find_leaf(any_tree_class):
    """The per-probe routing the duplicates adapter uses lands every
    ascending probe, pivots and their neighbours included, in the leaf
    a root descent finds, and counts each probe once."""
    keys = random.Random(4).sample(range(0, 1_200, 2), 600)
    tree = _loaded(any_tree_class, keys, TINY)
    probes = sorted(_pivot_probes(tree) + [-7, 1_300])
    before = tree.stats.as_dict()
    cursor = None
    for key in probes:
        cursor = tree._probe_leaf_for_read(key, cursor)
        assert cursor[0] is tree._find_leaf(key, count=False), key
    diff = _stats_diff(tree.stats, before)
    assert diff["read_chain_hits"] + diff["read_redescents"] == len(probes)


@pytest.mark.parametrize("cls,expected", [
    (BPlusTree, (1, 273, 27, 171, 252)),
    (QuITTree, (1, 283, 17, 130, 181)),
])
def test_get_many_counters_are_pinned(cls, expected):
    # The BoDS stream of tests/test_point_lookup.py (2,000 keys into
    # height-4 trees), then one batch of 300 seeded uniform probes.  A
    # root descent counts height nodes and one leaf, a move through the
    # parent one node and one leaf; the window is never consulted.
    keys = [int(k) for k in generate_keys(2000, 0.05, 0.05, seed=7)]
    tree = cls(TreeConfig(leaf_capacity=16, internal_capacity=16))
    for k in keys:
        tree.insert(k, k * 3)
    assert tree.height == 4
    rng = random.Random(11)
    probes = [rng.randrange(-10, 2_010) for _ in range(300)]
    before = tree.stats.as_dict()
    got = tree.get_many(probes, -1)
    diff = _stats_diff(tree.stats, before)
    assert got == [p * 3 if 0 <= p < 2000 else -1 for p in probes]
    assert (
        diff["read_batches"],
        diff["read_chain_hits"],
        diff["read_redescents"],
        diff["leaf_accesses"],
        diff["node_accesses"],
    ) == expected
    # Each distinct leaf the probes land in is accessed exactly once,
    # and each distinct parent is entered by exactly one descent.
    touched = [tree._find_leaf(p, count=False) for p in probes]
    assert diff["leaf_accesses"] == len({id(leaf) for leaf in touched})
    assert diff["read_redescents"] == len(
        {id(leaf.parent) for leaf in touched}
    )
    assert diff["read_fast_hits"] == diff["read_fast_misses"] == 0


# ----------------------------------------------------------------------
# range_iter / range_query / count_range
# ----------------------------------------------------------------------

RANGE_BOUNDS = [(-10, 700), (0, 0), (100, 101), (250, 400), (595, 9000)]


@pytest.mark.parametrize("start,end", RANGE_BOUNDS)
def test_range_paths_agree(any_tree_class, start, end):
    keys = random.Random(1).sample(range(600), 600)
    tree = _loaded(any_tree_class, keys)
    oracle = [(k, v) for k, v in tree.items() if start <= k < end]

    assert tree.range_query(start, end) == oracle
    assert list(tree.range_iter(start, end)) == oracle
    assert tree.count_range(start, end) == len(oracle)


def test_range_iter_is_lazy(any_tree_class):
    """Abandoning the iterator early must not walk the whole chain."""
    tree = _loaded(any_tree_class, list(range(2_000)))
    it = tree.range_iter(0, 2_000)
    before = tree.stats.leaf_accesses
    first = [next(it) for _ in range(3)]
    assert first == [(0, 0), (1, 3), (2, 6)]
    # Three entries sit in the first leaf: no chain advance needed.
    assert tree.stats.leaf_accesses - before <= 1


def test_range_paths_after_deletes(any_tree_class):
    tree = _loaded(any_tree_class, list(range(400)))
    for k in range(0, 400, 3):
        tree.delete(k)
    oracle = [(k, v) for k, v in tree.items() if 50 <= k < 350]
    assert tree.range_query(50, 350) == oracle
    assert list(tree.range_iter(50, 350)) == oracle
    assert tree.count_range(50, 350) == len(oracle)


def test_delete_range_uses_lazy_iter(any_tree_class):
    tree = _loaded(any_tree_class, list(range(300)))
    removed = tree.delete_range(100, 200)
    assert removed == 100
    assert tree.count_range(0, 300) == 200
    assert all(tree.get(k) is None for k in range(100, 200))
    tree.validate(check_min_fill=False)


# ----------------------------------------------------------------------
# SWARE
# ----------------------------------------------------------------------


def _sware_fixture():
    """SWARE tree with flushed history AND a live unflushed buffer whose
    entries shadow older tree values."""
    sa = SABPlusTree(SMALL, buffer_capacity=64, page_capacity=16)
    for k in range(500):
        sa.insert(k, k)
    sa.flush()
    for k in range(450, 520):  # overwrite tail + extend, stays buffered
        sa.insert(k, -k)
    assert len(sa.buffer) > 0
    return sa


def test_sware_get_many_matches_per_key():
    sa = _sware_fixture()
    probes = _probe_batch(list(range(520)))
    expected = [sa.get(k, default="miss") for k in probes]
    assert sa.get_many(probes, default="miss") == expected
    # Shadowing: buffered overwrites win over flushed values.
    assert sa.get_many([460])[0] == -460


def test_sware_get_many_bloom_short_circuit():
    sa = _sware_fixture()
    all_missing = [10_000 + i for i in range(64)]
    before = sa.buffer_stats.bloom_negative
    sa.get_many(all_missing)
    # Every probe was rejected by a Bloom filter without a page search.
    assert sa.buffer_stats.bloom_negative > before


def test_sware_range_paths_agree():
    sa = _sware_fixture()
    oracle = [(k, v) for k, v in sa.items() if 430 <= k < 510]
    assert sa.range_query(430, 510) == oracle
    assert list(sa.range_iter(430, 510)) == oracle
    assert sa.count_range(430, 510) == len(oracle)


def test_sware_get_many_empty_buffer():
    sa = SABPlusTree(SMALL, buffer_capacity=64)
    for k in range(100):
        sa.insert(k, k)
    sa.flush()
    probes = [3, 99, 100, -1, 3]
    assert sa.get_many(probes) == [3, 99, None, None, 3]


# ----------------------------------------------------------------------
# ConcurrentTree
# ----------------------------------------------------------------------


def _concurrent_fixture():
    ct = ConcurrentTree(QuITTree(SMALL))
    for k in random.Random(2).sample(range(600), 600):
        ct.insert(k, k * 2)
    for k in range(0, 600, 5):
        ct.delete(k)
    return ct


def test_concurrent_get_many_matches_per_key():
    ct = _concurrent_fixture()
    probes = _probe_batch(list(range(600)))
    expected = [ct.get(k, default="miss") for k in probes]
    before = ct.tree.stats.as_dict()
    got = ct.get_many(probes, default="miss")
    assert got == expected
    diff = _stats_diff(ct.tree.stats, before)
    assert diff["read_batches"] == 1
    assert diff["read_chain_hits"] + diff["read_redescents"] == len(probes)


@pytest.mark.parametrize("chunk_size", [1, 7, 256])
def test_concurrent_range_paths_agree(chunk_size, monkeypatch):
    monkeypatch.setattr(concurrent_tree, "_RANGE_CHUNK", chunk_size)
    ct = _concurrent_fixture()
    oracle = [
        (k, v) for k, v in ct.tree.items() if 100 <= k < 480
    ]
    assert ct.range_query(100, 480) == oracle
    assert list(ct.range_iter(100, 480)) == oracle
    assert ct.count_range(100, 480) == len(oracle)


def test_concurrent_range_counters_match_bare_tree():
    """The wrapper's range reads move ``range_lookups`` /
    ``leaf_accesses`` / ``node_accesses`` as the tree they wrap does:
    ``range_query`` and ``count_range`` exactly, and ``range_iter``
    (which re-descends per chunk) one ``range_lookups`` per call."""
    cfg = TreeConfig(leaf_capacity=16, internal_capacity=16)
    bare = QuITTree(cfg)
    ct = ConcurrentTree(QuITTree(cfg))
    for k in range(2_000):
        bare.insert(k, k)
        ct.insert(k, k)
    keys = ("range_lookups", "leaf_accesses", "node_accesses")

    def counted(tree, call):
        before = tree.stats.as_dict()
        call()
        diff = _stats_diff(tree.stats, before)
        return tuple(diff[k] for k in keys)

    for start, end in ((100, 1_500), (1_500, 100), (1_990, 5_000)):
        for call in (
            lambda t: t.range_query(start, end),
            lambda t: t.count_range(start, end),
        ):
            assert counted(ct.tree, lambda: call(ct)) == counted(
                bare, lambda: call(bare)
            )
    bare_iter = counted(bare, lambda: list(bare.range_iter(100, 1_500)))
    lookups, leaves, nodes = counted(
        ct.tree, lambda: list(ct.range_iter(100, 1_500))
    )
    assert lookups == 1
    assert leaves >= bare_iter[1] and nodes >= bare_iter[2]


def test_concurrent_reads_under_writers():
    """Batched readers racing real writer threads must only ever see
    values some write actually produced, for every key probed."""
    import threading

    ct = ConcurrentTree(QuITTree(TreeConfig(leaf_capacity=16, internal_capacity=16)))
    for k in range(1_000):
        ct.insert(k, 0)
    stop = threading.Event()
    errors: list[str] = []

    def writer():
        v = 1
        while not stop.is_set():
            for k in range(0, 1_000, 17):
                ct.insert(k, v)
            v += 1

    def reader():
        probes = list(range(1_000))
        while not stop.is_set():
            got = ct.get_many(probes)
            for k, v in zip(probes, got):
                if v is None:
                    errors.append(f"lost key {k}")
                    return
            list(ct.range_iter(200, 800))  # 600 entries: several chunks

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    for t in threads:
        t.start()
    import time

    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors


# ----------------------------------------------------------------------
# Bε-tree
# ----------------------------------------------------------------------


def _betree_fixture():
    """Bε-tree with entries at every resolution stage: flushed to
    leaves, pending in interior buffers, and deleted via tombstones
    that are still buffered."""
    bt = BeTree(BeTreeConfig(leaf_capacity=8, fanout=4, buffer_capacity=12))
    for k in random.Random(4).sample(range(500), 500):
        bt.insert(k, k + 1)
    for k in range(0, 500, 7):
        bt.delete(k)
    for k in range(100, 120):  # overwrites likely still buffered
        bt.insert(k, -k)
    return bt


def test_betree_get_many_matches_per_key():
    bt = _betree_fixture()
    probes = _probe_batch(list(range(500)))
    expected = [bt.get(k, default="miss") for k in probes]
    assert bt.get_many(probes, default="miss") == expected


def test_betree_get_many_resolves_buffered_messages():
    bt = BeTree(BeTreeConfig(leaf_capacity=8, fanout=4, buffer_capacity=12))
    for k in range(50):
        bt.insert(k, k)
    bt.insert(10, "fresh")  # buffered overwrite
    bt.delete(11)  # buffered tombstone
    assert bt.get_many([10, 11, 12], default="miss") == ["fresh", "miss", 12]


def test_betree_range_paths_agree():
    bt = _betree_fixture()
    oracle = bt.range_query(50, 450)
    assert list(bt.range_iter(50, 450)) == oracle
    assert bt.count_range(50, 450) == len(oracle)


# ----------------------------------------------------------------------
# DuplicateKeyIndex
# ----------------------------------------------------------------------


def _dupe_fixture():
    idx = DuplicateKeyIndex(config=SMALL)
    rng = random.Random(6)
    for i in range(800):
        idx.insert(rng.randrange(120), i)  # heavy duplication
    return idx


def test_duplicates_get_many_matches_per_key():
    idx = _dupe_fixture()
    probes = _probe_batch(list(range(120)))
    expected = [idx.get(k, default="miss") for k in probes]
    before = idx.stats.as_dict()
    got = idx.get_many(probes, default="miss")
    assert got == expected
    diff = _stats_diff(idx.stats, before)
    assert diff["read_batches"] == 1
    assert diff["read_chain_hits"] + diff["read_redescents"] == len(probes)


def test_duplicates_get_many_after_deletes():
    idx = _dupe_fixture()
    for k in range(0, 120, 3):
        idx.delete_all(k)
    idx.delete_one(1)
    probes = _probe_batch(list(range(120)))
    expected = [idx.get(k, default="miss") for k in probes]
    assert idx.get_many(probes, default="miss") == expected


def test_duplicates_range_paths_agree():
    idx = _dupe_fixture()
    oracle = idx.range_query(20, 90)
    assert list(idx.range_iter(20, 90)) == oracle
    assert idx.count_range(20, 90) == len(oracle)
    # Values for one key stay in arrival order.
    assert idx.get_all(oracle[0][0]) == [
        v for k, v in oracle if k == oracle[0][0]
    ]
