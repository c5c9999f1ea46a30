"""B+-tree with the production-style tail-leaf fast path (§2).

The tail-leaf optimization (PostgreSQL's fast-path insertion) keeps a
pointer to the rightmost leaf and the smallest key that leaf may accept
(its lower pivot bound).  Any incoming key at or above that bound is placed
directly into the tail leaf; everything else takes a regular top-insert.

The optimization degrades exactly as the paper describes: one leaf's worth
of forward outliers raises the tail's lower bound far beyond the in-order
stream, after which every in-order insert reverts to a top-insert until the
stream catches up (Fig. 3).
"""

from __future__ import annotations

from typing import Optional

from .fastpath import FastPathTree
from .node import Key, LeafNode


class TailBPlusTree(FastPathTree):
    """B+-tree whose fast path is pinned to the tail (rightmost) leaf."""

    name = "tail-B+-tree"

    def _after_leaf_split(
        self,
        left: LeafNode,
        right: LeafNode,
        split_key: Key,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> None:
        # _do_leaf_split already advanced self._tail when the tail split;
        # re-pin the fast path to the (possibly new) tail leaf.
        if right is self._tail:
            self._pin(right, split_key, None)

    def _after_delete(self) -> None:
        # Merges, splices and run rebuilds may each replace or grow the
        # tail; the pin never follows anything but the tail.
        self._pin_tail()

    _after_bulk_splice = _after_delete

    def _after_insert_run(self, leaf: LeafNode) -> None:
        self._pin_tail()

    def _window_issues(self) -> list[str]:
        """The shared window invariant plus the tail's own: the pin *is*
        the tail leaf, whose window is unbounded above (which lets the
        shared window test omit the upper check, §2)."""
        issues = super()._window_issues()
        if self._fp.leaf is not self._tail:
            issues.append("fast-path pin is not the tail leaf")
        if self._fp.high is not None:
            issues.append("tail window has an upper bound")
        return issues
