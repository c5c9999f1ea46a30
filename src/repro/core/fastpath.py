"""Shared machinery for fast-path tree variants.

A fast-path variant keeps a :class:`~repro.core.metadata.FastPathState`
(leaf pointer + admissible key range) and serves an insert through it —
without any tree traversal — whenever the key falls inside the range.
Everything else (the traversal insert, splits, deletes, lookups) is
inherited from :class:`~repro.core.bptree.BPlusTree`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Optional

from .bptree import BPlusTree
from .config import TreeConfig
from .metadata import FastPathState
from .node import InternalNode, Key, LeafNode, Node
from .stats import ScrubReport


class FastPathTree(BPlusTree):
    """Base class for tail / lil / pole / QuIT variants."""

    def __init__(self, config: Optional[TreeConfig] = None) -> None:
        super().__init__(config)
        self._fp = self._make_fp_state()
        self._fp.leaf = self._head
        # The fast path inlines the slot claim against the leaf's slot
        # arrays; the capacity is cached so it is not re-read from the
        # (frozen) config on every insert.
        self._leaf_cap = self.config.leaf_capacity

    def _make_fp_state(self) -> FastPathState:
        return FastPathState()

    @property
    def fast_path_leaf(self) -> Optional[LeafNode]:
        """The current fast-path leaf (exposed for tests/inspection)."""
        return self._fp.leaf

    @property
    def fast_path_bounds(self) -> tuple[Optional[Key], Optional[Key]]:
        """The fast path's admissible ``[low, high)`` key range."""
        return self._fp.low, self._fp.high

    # ------------------------------------------------------------------
    # Insert dispatch
    # ------------------------------------------------------------------

    def insert(self, key: Key, value: Any = None) -> None:
        """Insert via the fast path when the key is in range, else via a
        classical top-insert.

        The window test and the in-range, leaf-has-room case are inlined:
        they are what the fast path exists for, and each saved Python call
        measurably widens the fast-vs-top cost gap the paper measures.
        """
        fp = self._fp
        leaf = fp.leaf
        if (
            leaf is not None
            and ((low := fp.low) is None or key >= low)
            and ((high := fp.high) is None or key < high)
        ):
            self.stats.fast_inserts += 1
            # Slot-array fast path: an insert landing at the leaf's gap
            # cursor is two comparisons and two C-level stores — no
            # bisect, no shifting.  The slab is always at least
            # leaf_capacity long, so ``fill < capacity`` implies a gap
            # slot exists.  (``gap_hits`` is counted only on the
            # out-of-line ``insert_entry`` path — a per-hit counter bump
            # here would cost as much as the shift it avoids.)
            fill = leaf.fill
            if fill < self._leaf_cap:
                gap = leaf.gap
                skeys = leaf.skeys
                if (gap == 0 or skeys[gap - 1] < key) and (
                    (hi := leaf.gap_hi) is None or key < hi
                ):
                    try:
                        skeys[gap] = key
                    except (TypeError, OverflowError):
                        leaf._demote()
                        leaf.skeys[gap] = key
                    leaf.svals[gap] = value
                    leaf.gap = gap + 1
                    leaf.fill = fill + 1
                    self._size += 1
                elif leaf._gap_insert(key, value):
                    # Cursor miss with gap slots free (fill < cap implies
                    # the slab has room): skip straight to the
                    # gap-migrating insert.
                    self._size += 1
            else:
                self._leaf_insert(leaf, key, value, low, high)
        else:
            self._top_insert(key, value)

    def _fast_path_accepts(self, key: Key) -> bool:
        """``low <= key < high`` over the leaf's pivot bounds (§4.2), open
        where a bound is None; False while the leaf is unset.  The tail's
        ``high`` is None by construction (a ``validate()`` invariant), so
        its upper check is omitted.  ``insert`` and ``get`` inline it."""
        fp = self._fp
        if fp.leaf is None:
            return False
        low = fp.low
        if low is not None and key < low:
            return False
        high = fp.high
        return high is None or key < high

    def _pin(
        self, leaf: LeafNode, low: Optional[Key], high: Optional[Key]
    ) -> None:
        """Point the fast path at ``leaf`` with window ``[low, high)`` (the
        pole variants also reset their IKR bookkeeping here)."""
        fp = self._fp
        fp.leaf = leaf
        fp.low = low
        fp.high = high

    def _pin_tail(self) -> None:
        """Re-pin the fast path to the tail leaf (always a valid pin)."""
        self._pin(self._tail, *self.bounds_of_leaf(self._tail))

    # ------------------------------------------------------------------
    # Fast-path-aware reads
    # ------------------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        """Point lookup that probes the fast-path window before descending.

        The insert fast path maintains the invariant that a key inside
        ``[fp_min, fp_max)`` belongs to the cached leaf (inserts place it
        there without a descent), so an in-window read can serve from
        that leaf directly — read-mostly phases of near-sorted workloads
        skip the root entirely.  Window hits and misses are counted in
        ``read_fast_hits`` / ``read_fast_misses``, the read analogues of
        ``fast_inserts`` / ``top_inserts``.
        """
        # Window check, descent and leaf search are inlined (no
        # _fast_path_accepts, super().get, _find_leaf or LeafNode.find
        # dispatch): past the window check this is BPlusTree.get's body,
        # so the out-of-window path stays within noise of the plain
        # B+-tree get, which Fig. 10b's no-read-penalty property
        # measures.  The generic [low, high) test is exact for every
        # variant — the tail pins fp.high to None by construction.
        stats = self.stats
        stats.point_lookups += 1
        stats.leaf_accesses += 1
        fp = self._fp
        node: Optional[Node] = fp.leaf
        if (
            node is not None
            and (fp.low is None or key >= fp.low)
            and (fp.high is None or key < fp.high)
        ):
            stats.read_fast_hits += 1
            stats.node_accesses += 1
        else:
            stats.read_fast_misses += 1
            node = self._root
            nodes = 1
            while not node.is_leaf:
                internal: InternalNode = node  # type: ignore[assignment]
                node = internal.children[bisect_right(internal.keys, key)]
                nodes += 1
            stats.node_accesses += nodes
        leaf: LeafNode = node  # type: ignore[assignment]
        fill = leaf.fill
        if leaf.gap != fill:
            leaf._compact()
        skeys = leaf.skeys
        idx = bisect_left(skeys, key, 0, fill)
        if idx < fill and skeys[idx] == key:
            return leaf.svals[idx]
        return default

    # ------------------------------------------------------------------
    # Batched ingest
    # ------------------------------------------------------------------

    def _run_target_from_fp(
        self, key: Key
    ) -> Optional[tuple[LeafNode, Optional[Key], Optional[Key]]]:
        """Serve a run segment straight from the fast-path pointer when
        its first key is in range — the batch analogue of the per-key
        fast insert: the whole segment skips the descent, not just one
        entry."""
        if self._fast_path_accepts(key):
            fp = self._fp
            self.stats.batch_fast_segments += 1
            return fp.leaf, fp.low, fp.high
        return None

    def _after_insert_run(self, leaf: LeafNode) -> None:
        """Retarget the fast path to the leaf holding the run's tail.

        This is exactly lil's eager retargeting rule generalized to runs
        — the pointer lands where the last key of the run landed; the
        tail variant overrides it to stay on the tail.  For the pole it
        is the batch analogue of ``bulk_load``'s pinning: a run's tail is
        the in-order frontier by construction.  O(height) once per run —
        amortized over the whole run, unlike the per-key bookkeeping of
        ``insert``.
        """
        self._pin(leaf, *self.bounds_of_leaf(leaf))

    # ------------------------------------------------------------------
    # Metadata upkeep on structural changes
    # ------------------------------------------------------------------

    def _on_leaf_removed(self, leaf: LeafNode, merged_into: LeafNode) -> None:
        if self._fp.leaf is leaf:
            self._fp.leaf = merged_into

    def _after_delete(self) -> None:
        """Recompute the fast-path leaf's pivot bounds from the tree.

        Used after deletes: borrows and merges move separators, so the
        cached range may no longer bracket the leaf.  A splice can split
        the fast-path leaf outside the normal split hooks, so it ends
        here too.  O(height).
        """
        leaf = self._fp.leaf
        if leaf is None:
            return
        self._fp.low, self._fp.high = self.bounds_of_leaf(leaf)

    _after_bulk_splice = _after_delete

    def bulk_load(
        self, items: Iterable[tuple[Key, Any]], fill_factor: float = 1.0
    ) -> None:
        """Bulk load, then re-pin the fast path to the new tail leaf."""
        super().bulk_load(items, fill_factor)
        self._pin_tail()

    # ------------------------------------------------------------------
    # Scrubbing (post-recovery hygiene)
    # ------------------------------------------------------------------

    def validate(
        self, check_min_fill: bool = True, report: bool = False
    ) -> Optional[list[str]]:
        """Structural validation plus the fast-path window invariant
        (see :meth:`_window_issues`)."""
        errors = super().validate(check_min_fill, report)
        for issue in self._window_issues():
            self._invariant(False, issue, errors)
        return errors

    def _window_issues(self) -> list[str]:
        """Violations of the fast-path window invariant.

        Inserts and window reads act on ``fp.leaf`` *without a descent*
        whenever a key falls inside ``[fp.low, fp.high)``, so the cached
        window being a **subset** of the leaf's true pivot range is the
        safety invariant: a window wider than the range routes keys into
        the wrong leaf (silent order violation) or declares present keys
        absent.  A window *narrower* than the range is merely
        conservative (some fast-path hits degrade to top-inserts) and is
        not a violation.  ``fp.leaf`` must also hang off this tree.
        """
        fp = self._fp
        leaf = fp.leaf
        if leaf is None:
            return ["fast-path leaf unset"]
        if not self._leaf_attached(leaf):
            return ["fast-path leaf detached from tree"]
        try:
            pb_low, pb_high = self.bounds_of_leaf(leaf)
        except ValueError:
            return ["fast-path leaf missing from its parent's children"]
        issues = []
        if pb_low is not None and (fp.low is None or fp.low < pb_low):
            issues.append(
                "fast-path window extends below the leaf's pivot range"
            )
        if pb_high is not None and (fp.high is None or fp.high > pb_high):
            issues.append(
                "fast-path window extends above the leaf's pivot range"
            )
        return issues

    def scrub(self) -> ScrubReport:
        """Audit the fast-path metadata; reset it when untrustworthy.

        Any violation of the window invariant (:meth:`_window_issues`)
        resets the pointer to the tail leaf — always a valid pin — and
        counts ``stats.scrub_resets`` instead of asserting, so a
        recovered or degraded tree keeps serving.
        """
        report = super().scrub()
        issues = self._window_issues()
        report.issues.extend(issues)
        unsafe = bool(issues)
        unsafe |= self._scrub_extra(report)
        if unsafe:
            self._pin_tail()
            report.repairs += 1
            self.stats.scrub_resets += 1
        return report

    def _leaf_attached(self, leaf: LeafNode) -> bool:
        """Whether ``leaf`` hangs off this tree's root (bounded walk)."""
        node = leaf
        hops = 0
        while node.parent is not None:
            node = node.parent
            hops += 1
            if hops > self._height + 2:
                return False
        return node is self._root

    def _scrub_extra(self, report: ScrubReport) -> bool:
        """Variant-specific scrub checks; True when a reset is needed."""
        return False
