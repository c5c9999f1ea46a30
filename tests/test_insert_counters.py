"""Insert-side counter ledger for every fast-path variant.

One seeded schedule drives each variant through every way the fast-path
window is (re)pinned: a ``bulk_load``, per-key inserts of a BoDS K=L=10%
stream,
deletes that empty the fast-path leaf, one ``insert_many`` batch and a
``scrub`` after a corrupted window.  The exact insert counters, the final
window and a digest of the leaf sizes are pinned, so a refactor of the
window logic that moves any of them fails here.
"""

import zlib

import pytest

from repro.concurrency import ConcurrentTree
from repro.core import (
    LilBPlusTree,
    PoleBPlusTree,
    QuITNoResetTree,
    QuITNoVariableSplitTree,
    QuITTree,
    TailBPlusTree,
    TreeConfig,
)
from repro.sortedness import generate_keys

COUNTERS = (
    "fast_inserts", "top_inserts", "leaf_splits", "variable_splits",
    "redistributions", "pole_updates", "pole_catchups", "pole_resets",
    "scrub_resets", "batch_fast_segments", "index_fallback_scans",
)


def _run_schedule(cls, concurrent=False):
    inner = cls(TreeConfig(leaf_capacity=16, internal_capacity=16))
    inner.bulk_load([(k, k) for k in range(0, 400, 2)])
    tree = ConcurrentTree(inner) if concurrent else inner
    stream = [400 + int(k) for k in generate_keys(1500, 0.1, 0.1, seed=5)]
    for k in stream[:1000]:
        tree.insert(k, k)
    # Empty the fast-path leaf (QuIT falls back to pole_prev, the tail
    # re-pins after the merges).
    deleted = list(inner.fast_path_leaf.keys)
    for k in deleted:
        assert tree.delete(k)
    for k in stream[1000:1300]:
        tree.insert(k, k)
    tree.insert_many([(k, k) for k in stream[1300:]])
    # Widen the window past the head leaf's pivot range: scrub must reset.
    fp = inner._fp
    fp.leaf, fp.low, fp.high = inner._head, None, None
    assert not tree.scrub().clean
    for k in range(1, 400, 2):
        tree.insert(k, k)
    inner.validate(check_min_fill=False)
    assert sorted(inner.items()) == [
        (k, k) for k in range(1900) if k not in set(deleted)
    ]
    sizes = tuple(leaf.size for leaf in inner.leaves())
    return (
        tuple(getattr(inner.stats, c) for c in COUNTERS),
        inner.fast_path_bounds,
        len(sizes),
        zlib.crc32(repr(sizes).encode()),
    )


#: (counters in COUNTERS order, final window, leaf count, leaf-size digest)
EXPECTED = {
    "tail-B+-tree": ((1235, 265, 183, 0, 0, 0, 0, 0, 1, 24, 0),
                     (1891, None), 195, 897428799),
    "lil-B+-tree": ((1373, 127, 183, 0, 0, 0, 0, 0, 1, 23, 0),
                    (384, 400), 195, 897428799),
    "pole-B+-tree": ((957, 543, 183, 0, 0, 118, 0, 0, 1, 22, 0),
                     (1891, None), 195, 897428799),
    "QuIT": ((1337, 163, 138, 101, 4, 99, 33, 15, 1, 23, 1),
             (384, 400), 151, 3686670890),
    "QuIT-no-reset": ((877, 623, 150, 74, 0, 72, 2, 0, 1, 22, 1),
                      (1891, None), 163, 1884603114),
    "QuIT-50%-split": ((1406, 94, 183, 0, 0, 154, 25, 4, 1, 23, 1),
                       (384, 400), 195, 897428799),
}


@pytest.mark.parametrize("cls", [
    TailBPlusTree, LilBPlusTree, PoleBPlusTree, QuITTree,
    QuITNoResetTree, QuITNoVariableSplitTree,
], ids=lambda cls: cls.name)
def test_insert_counters_are_pinned(cls):
    assert _run_schedule(cls) == EXPECTED[cls.name]


def test_concurrent_quit_counters_are_pinned():
    # The concurrent wrapper's fast-path critical section must count and
    # pin exactly as the bare tree's inlined fast path does.
    assert _run_schedule(QuITTree, concurrent=True) == EXPECTED["QuIT"]


#: (fast, top, leaf splits, variable splits, redistributions, pole
#: resets, leaf count, leaf-size digest) for QuIT at the default config.
QUIT_STREAMS = {
    # The benchmark's own stream shape (BoDS K = L = 5 %): every pole
    # split past the first few takes Alg. 2's variable split.
    "bods-5%": (
        lambda: generate_keys(20_000, 0.05, 0.05, seed=1).tolist(),
        (19399, 601, 382, 378, 0, 0, 383, 1767546111),
    ),
    # The in-order density triples, then the stream jumps: the pole holds
    # dense keys past IKR's threshold followed by a gap, so the split
    # position is the threshold's, not the end of the in-order run.
    "density-shift": (
        lambda: [*range(3000), *range(3000, 3150, 3),
                 *range(10**6, 10**6 + 3000)],
        (6042, 8, 97, 96, 1, 1, 98, 2953427185),
    ),
}


@pytest.mark.parametrize("stream", sorted(QUIT_STREAMS))
def test_quit_split_decision_is_pinned(stream):
    make_keys, expected = QUIT_STREAMS[stream]
    tree = QuITTree(TreeConfig())
    for k in make_keys():
        tree.insert(k, k)
    stats = tree.stats
    sizes = tuple(leaf.size for leaf in tree.leaves())
    assert (
        stats.fast_inserts, stats.top_inserts, stats.leaf_splits,
        stats.variable_splits, stats.redistributions, stats.pole_resets,
        len(sizes), zlib.crc32(repr(sizes).encode()),
    ) == expected
