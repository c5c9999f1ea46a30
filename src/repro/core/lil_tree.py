"""B+-tree with the last-insertion-leaf (lil) fast path (§3, Fig. 4).

``lil`` points to the leaf that received the most recent insert, together
with that leaf's admissible key range.  The pointer moves eagerly: every
top-insert retargets it to the accepting leaf, and a split of the lil leaf
moves it to whichever half received the entry.  This lets a near-sorted
stream "come back" to the right leaf after an outlier at the cost of up to
two top-inserts per out-of-order entry (the paper's Eq. 1:
``FI(k) = (1 - k)^2``).
"""

from __future__ import annotations

from typing import Optional

from .fastpath import FastPathTree
from .node import Key, LeafNode


class LilBPlusTree(FastPathTree):
    """B+-tree whose fast path follows the last insertion leaf."""

    name = "lil-B+-tree"

    def _after_leaf_split(
        self,
        left: LeafNode,
        right: LeafNode,
        split_key: Key,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> None:
        if left is not self._fp.leaf:
            return
        # Fig. 4c-e: follow the entry into whichever half accepts it.
        if key >= split_key:
            self._pin(right, split_key, high)
        else:
            self._fp.low = low
            self._fp.high = split_key

    def _after_top_insert(
        self,
        leaf: LeafNode,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> None:
        # Fig. 4b: a top-insert retargets lil to the accepting leaf; the
        # insert path threads the post-split pivot bounds through.
        self._pin(leaf, low, high)

    # Batched ingest (insert_many) needs no override here: the inherited
    # FastPathTree._after_insert_run — retarget to the leaf holding the
    # run's tail — is precisely the lil rule applied per run instead of
    # per key.
