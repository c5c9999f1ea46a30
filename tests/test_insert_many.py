"""Equivalence tests for batched ingest (``insert_many``).

The contract: for any batch, ``tree.insert_many(items)`` leaves the tree
in a state extensionally identical to a per-key ``insert`` loop over the
same items in the same order — including upsert semantics (later
duplicates win), the doubly linked leaf chain, and structural
invariants.  Covered for every entry point: all tree variants (including
the QuIT ablations), the SWARE buffered tree, and the concurrent
wrapper.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import ConcurrentTree
from repro.core import (
    BPlusTree,
    LilBPlusTree,
    PoleBPlusTree,
    QuITTree,
    TailBPlusTree,
    TreeConfig,
    carve_runs,
    merge_run,
    probe_runs,
)
from repro.sortedness.bods import BodsSpec, generate
from repro.sware import SABPlusTree

from conftest import ALL_TREE_CLASSES

SMALL = TreeConfig(leaf_capacity=8, internal_capacity=8)


def _batch_patterns(n: int = 600, seed: int = 7):
    """Named adversarial batch shapes (lists of (key, value) items)."""
    rng = random.Random(seed)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    near = list(range(n))
    for _ in range(n // 20):
        i, j = rng.randrange(n), rng.randrange(n)
        near[i], near[j] = near[j], near[i]
    return {
        "sorted": [(k, k) for k in range(n)],
        "reverse": [(k, k) for k in reversed(range(n))],
        "shuffled": [(k, k * 3) for k in shuffled],
        "duplicates": [(k % 97, i) for i, k in enumerate(shuffled)],
        "near_sorted": [(k, -k) for k in near],
        "sawtooth": [((i * 41) % n, i) for i in range(n)],
    }


BATCH_PATTERNS = _batch_patterns()


def _reference(cls, items):
    tree = cls(SMALL)
    for k, v in items:
        tree.insert(k, v)
    return tree


def _check_leaf_chain(tree):
    """The leaf chain must be consistent in both directions and agree
    with items()."""
    forward = []
    leaf = tree.head_leaf
    prev = None
    while leaf is not None:
        assert leaf.prev is prev, "broken prev link"
        forward.extend(zip(leaf.keys, leaf.values))
        prev, leaf = leaf, leaf.next
    assert prev is tree.tail_leaf
    assert forward == list(tree.items())


@pytest.mark.parametrize("pattern", sorted(BATCH_PATTERNS))
def test_insert_many_matches_per_key(any_tree_class, pattern):
    items = BATCH_PATTERNS[pattern]
    expected = list(_reference(any_tree_class, items).items())

    tree = any_tree_class(SMALL)
    added = tree.insert_many(items)

    assert list(tree.items()) == expected
    assert added == len({k for k, _ in items})
    assert len(tree) == len(expected)
    tree.validate(check_min_fill=False)
    _check_leaf_chain(tree)


@pytest.mark.parametrize("pattern", sorted(BATCH_PATTERNS))
@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_chunked_insert_many_matches_per_key(
    any_tree_class, pattern, batch_size
):
    items = BATCH_PATTERNS[pattern]
    expected = list(_reference(any_tree_class, items).items())

    tree = any_tree_class(SMALL)
    for lo in range(0, len(items), batch_size):
        tree.insert_many(items[lo : lo + batch_size])

    assert list(tree.items()) == expected
    tree.validate(check_min_fill=False)
    _check_leaf_chain(tree)


def test_insert_many_interleaved_with_per_key(any_tree_class):
    """Alternating insert / insert_many must compose like one stream."""
    rng = random.Random(11)
    stream = [(rng.randrange(400), i) for i in range(800)]
    oracle = {}
    tree = any_tree_class(SMALL)
    i = 0
    while i < len(stream):
        if rng.random() < 0.5:
            k, v = stream[i]
            tree.insert(k, v)
            oracle[k] = v
            i += 1
        else:
            chunk = stream[i : i + rng.randrange(1, 60)]
            tree.insert_many(chunk)
            oracle.update(chunk)
            i += len(chunk)
    assert list(tree.items()) == sorted(oracle.items())
    tree.validate(check_min_fill=False)
    _check_leaf_chain(tree)


def test_insert_many_returns_new_key_count(any_tree_class):
    tree = any_tree_class(SMALL)
    assert tree.insert_many([(k, k) for k in range(50)]) == 50
    # All duplicates: nothing new, values updated.
    assert tree.insert_many([(k, -k) for k in range(50)]) == 0
    assert tree.get(10) == -10
    # Half new, half updates, plus an in-batch duplicate.
    assert tree.insert_many([(49, 0), (50, 0), (50, 1), (51, 0)]) == 2
    assert tree.get(50) == 1


def test_insert_many_empty_and_trivial(any_tree_class):
    tree = any_tree_class(SMALL)
    assert tree.insert_many([]) == 0
    assert tree.insert_many(iter([(5, "x")])) == 1
    assert list(tree.items()) == [(5, "x")]


def test_insert_many_rejects_bad_fill_factor():
    tree = BPlusTree(SMALL)
    with pytest.raises(ValueError):
        tree.insert_many([(1, 1)], fill_factor=0.0)
    with pytest.raises(ValueError):
        tree.insert_many([(1, 1)], fill_factor=1.5)


def test_insert_many_non_numeric_keys(any_tree_class):
    """String keys go through the same run carver as integers."""
    words = [f"k{i:04d}" for i in range(300)]
    rng = random.Random(3)
    rng.shuffle(words)
    items = [(w, w.upper()) for w in words]
    expected = list(_reference(any_tree_class, items).items())
    tree = any_tree_class(SMALL)
    tree.insert_many(items)
    assert list(tree.items()) == expected
    tree.validate(check_min_fill=False)


def test_insert_many_batch_counters():
    tree = BPlusTree(SMALL)
    tree.insert_many([(k, k) for k in range(200)])
    stats = tree.stats
    assert stats.batch_inserts == 200
    assert stats.batch_runs == 1
    assert stats.batch_segments >= stats.batch_runs
    assert stats.batch_coalesced == 0


def test_insert_many_coalesces_fragmented_batches():
    """A heavily fragmented batch (avg run length << leaf capacity) is
    stable-sorted into a single run rather than applied run-by-run."""
    rng = random.Random(5)
    keys = list(range(2_000))
    rng.shuffle(keys)
    tree = BPlusTree(TreeConfig(leaf_capacity=64, internal_capacity=64))
    tree.insert_many([(k, k) for k in keys])
    assert tree.stats.batch_coalesced == 1
    assert tree.stats.batch_runs == 1
    assert list(tree.items()) == [(k, k) for k in range(2_000)]


def test_sware_insert_many_matches_per_key():
    items = BATCH_PATTERNS["shuffled"]
    ref = SABPlusTree(SMALL, buffer_capacity=64)
    for k, v in items:
        ref.insert(k, v)
    ref.flush()

    sa = SABPlusTree(SMALL, buffer_capacity=64)
    # Pre-load some buffered entries so insert_many must flush first.
    for k, v in items[:100]:
        sa.insert(k, v)
    sa.insert_many(items[100:])
    sa.flush()
    assert list(sa.items()) == list(ref.items())
    sa.tree.validate(check_min_fill=False)


def test_concurrent_insert_many_matches_per_key():
    items = BATCH_PATTERNS["near_sorted"]
    expected = list(_reference(QuITTree, items).items())
    ct = ConcurrentTree(QuITTree(SMALL))
    ct.insert_many(items)
    assert list(ct.tree.items()) == expected
    ct.tree.validate(check_min_fill=False)


def test_probe_runs_counts():
    assert probe_runs([]) == ([], 0)
    items = [(1, 0), (2, 0), (2, 0), (1, 0), (5, 0)]
    materialized, n_runs = probe_runs(iter(items))
    assert materialized == items
    assert n_runs == 2
    assert probe_runs([(9, 0), (7, 0), (5, 0)])[1] == 3


def test_carve_runs_duplicate_collapse_last_wins():
    runs = list(carve_runs([(1, "a"), (1, "b"), (2, "c"), (0, "d")]))
    assert runs == [([1, 2], ["b", "c"]), ([0], ["d"])]


@settings(max_examples=50, deadline=None)
@given(
    base=st.lists(st.integers(0, 200), max_size=80, unique=True),
    run=st.lists(st.integers(0, 200), max_size=80, unique=True),
)
def test_merge_run_matches_dict_oracle(base, run):
    base = sorted(base)
    run = sorted(run)
    keys, vals, added = merge_run(
        base, [("b", k) for k in base], run, [("r", k) for k in run]
    )
    oracle = {k: ("b", k) for k in base}
    oracle.update({k: ("r", k) for k in run})
    assert keys == sorted(oracle)
    assert vals == [oracle[k] for k in keys]
    assert added == len(oracle) - len(base)


@settings(max_examples=60, deadline=None)
@given(
    cls=st.sampled_from(ALL_TREE_CLASSES),
    items=st.lists(
        st.tuples(st.integers(-1_000, 1_000), st.integers()), max_size=250
    ),
    split=st.integers(0, 250),
)
def test_insert_many_property_equivalence(cls, items, split):
    """Arbitrary batches, arbitrarily split between per-key and batched
    ingestion, agree with the per-key reference."""
    expected = list(_reference(cls, items).items())
    tree = cls(SMALL)
    for k, v in items[:split]:
        tree.insert(k, v)
    tree.insert_many(items[split:])
    assert list(tree.items()) == expected
    tree.validate(check_min_fill=False)
    _check_leaf_chain(tree)


# -- regression: insert_many after scattered point inserts -------------


@pytest.mark.parametrize(
    "cls",
    [BPlusTree, TailBPlusTree, LilBPlusTree, PoleBPlusTree, QuITTree],
    ids=lambda c: c.name,
)
def test_insert_many_after_scattered_point_inserts(cls):
    """A batch run that chains into the fast-path leaf and overflows it
    must not leave the cached fast-path bounds covering the rebuilt
    leaf's siblings: the run's next segment would land above the leaf's
    upper pivot, losing keys and breaking global order."""
    keys = generate(BodsSpec(n=49152, k_fraction=0.05, l_fraction=0.05,
                             seed=3, key_step=2)).tolist()
    rng, tree = random.Random(3), cls(TreeConfig())
    oracle = {}
    for c in range(3):
        for i in range(c * 16384, (c + 1) * 16384, 1024):
            batch = [(k, k) for k in keys[i:i + 1024]]
            tree.insert_many(batch)
            oracle.update(batch)
        for _ in range(120):
            k = 2 * rng.randrange(49152) + 1
            tree.insert(k, k)
            oracle[k] = k
    assert sum(tree.get(k) is None for k in keys) == 0
    assert tree.check(check_min_fill=False) == []
    assert list(tree.items()) == sorted(oracle.items())


_mixed_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(-500, 500)),
    st.tuples(st.just("delete"), st.integers(-500, 500)),
    st.tuples(
        st.just("insert_many"),
        st.lists(st.integers(-500, 500), max_size=60),
    ),
    # Strided runs: a sparse run followed by a denser one over the same
    # range packs leaves and then overflows them mid-run.
    st.tuples(
        st.just("insert_many"),
        st.builds(
            lambda start, n, step: list(range(start, start + n * step, step)),
            st.integers(-500, 500), st.integers(0, 60), st.integers(1, 40),
        ),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    cls=st.sampled_from(ALL_TREE_CLASSES),
    ops=st.lists(_mixed_op, max_size=60),
)
def test_interleaved_ops_match_dict_oracle(cls, ops):
    """Interleaved ``insert`` / ``insert_many`` / ``delete`` agree with a
    dict, and the tree passes ``check()`` afterwards."""
    tree = cls(SMALL)
    oracle: dict = {}
    for step, (kind, arg) in enumerate(ops):
        if kind == "insert":
            tree.insert(arg, step)
            oracle[arg] = step
        elif kind == "delete":
            assert tree.delete(arg) == (arg in oracle)
            oracle.pop(arg, None)
        else:
            batch = [(k, (step, j)) for j, k in enumerate(arg)]
            added = tree.insert_many(batch)
            assert added == len({k for k, _ in batch} - oracle.keys())
            oracle.update(batch)
    assert list(tree.items()) == sorted(oracle.items())
    assert tree.check(check_min_fill=False) == []
