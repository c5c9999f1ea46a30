"""The Quick Insertion Tree (QuIT) — the paper's primary contribution (§4).

QuIT extends the pole-B+-tree with three strategies:

* **Variable split** (Alg. 2): when the pole splits and ``pole_prev`` is at
  least half full, IKR locates the first outlier position ``l`` inside the
  full pole.  If outliers occupy less than half the node (``l >
  def_split_pos``), the node splits at ``l - 1``, carrying one non-outlier
  into the new node, which becomes the pole — the left node is left almost
  full (this is what yields ~100% leaf occupancy for sorted data,
  Fig. 10a).  Otherwise the node splits at ``l``, shipping all outliers to
  the new node while the pole pointer stays.
* **Redistribution**: if ``pole_prev`` is under half full at pole-split
  time (a possible byproduct of an earlier variable split), entries flow
  from the front of the pole into ``pole_prev`` until the latter is exactly
  half full, instead of splitting (Fig. 7c).
* **Stale-pole reset** (§4.3): after ``T_R = floor(sqrt(leaf_capacity))``
  consecutive top-inserts the pole is re-pinned to the leaf that accepted
  the latest insert, recovering from workload shifts (Fig. 12).

Deletes targeting the pole skip eager rebalancing, and deleting the pole's
last entry resets the pole to ``pole_prev`` (§4.4).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from .bptree import TreeInvariantError
from .node import Key, LeafNode
from .pole_tree import PoleBPlusTree

#: Multiples of the IKR-estimated key density that a within-run gap may
#: reach before the run is considered ended (see _split_full_pole).
_RUN_GAP_SLACK = 4.0

#: Floor for the density estimate, guarding integer keys ingested densely
#: enough that ``(q - p) / prev_size`` rounds toward zero.
_MIN_DENSITY = 1e-9


class QuITTree(PoleBPlusTree):
    """Quick Insertion Tree: pole fast path + variable split +
    redistribution + stale-pole reset."""

    name = "QuIT"

    # Stale-pole reset (§4.3): re-pin after T_R consecutive top-inserts.
    _resets = True

    # ------------------------------------------------------------------
    # Variable split strategy (Alg. 2)
    # ------------------------------------------------------------------

    def _split_full_leaf(
        self,
        leaf: LeafNode,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> tuple[LeafNode, Optional[Key], Optional[Key]]:
        if leaf is not self._fp.leaf:
            # Alg. 2 lines 1-2: non-pole leaves split at 50%.
            return super()._split_full_leaf(leaf, key, low, high)
        return self._split_full_pole(leaf, key, low, high)

    def _split_full_pole(
        self,
        pole: LeafNode,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> tuple[LeafNode, Optional[Key], Optional[Key]]:
        """Alg. 2 for a full pole: variable split or redistribution."""
        fp = self._fp
        prev = fp.prev
        half = self.config.leaf_half
        prev_usable = (
            prev is not None
            and prev is not pole
            and prev.size > 0
            and prev.min_key <= pole.min_key
        )
        if prev_usable and prev.size < half and pole.prev is prev:
            self._redistribute_into_prev(pole, prev)
            fp.fails = 0
            new_min = pole.min_key
            if key < new_min:
                return prev, self.bounds_of_leaf(prev)[0], new_min
            return pole, new_min, high
        threshold = (
            self._ikr_for_pole(pole) if prev_usable and prev.size >= half
            else None
        )
        if threshold is None:
            # No trustworthy density estimate: fall back to the default
            # 50% split with Alg. 1's pointer-update rule.
            return super(QuITTree, self)._split_full_leaf(
                pole, key, low, high
            )
        # One pass over the slab decides l: the first key above IKR's
        # threshold, or the end of the contiguous in-order run at the
        # bottom of the pole if that comes first.  Eq. 2's acceptance
        # window spans ``pole_size`` densities above ``q``, so a *future*
        # in-order key that arrived early (a forward outlier with small
        # displacement) can slip under the threshold.  Carrying such a
        # key to the new pole as its minimum would strand every
        # not-yet-arrived key below it.  The entries that actually
        # arrived in order form a dense run starting at ``q``; the run
        # ends at the first gap that a handful of in-order densities
        # cannot explain.
        keys, _, n = pole.view()
        split_pos = bisect_right(keys, threshold, 0, n)
        density = max((keys[0] - prev.min_key) / prev.size, _MIN_DENSITY)
        gap_limit = density * self.config.ikr_scale * _RUN_GAP_SLACK
        for i in range(1, split_pos):
            if keys[i] - keys[i - 1] > gap_limit:
                split_pos = i
                break
        advance = split_pos > half
        if advance:
            # Few outliers: split at l-1, the new (nearly empty) node takes
            # one non-outlier plus the outliers and becomes the pole.
            split_pos = min(split_pos - 1, pole.size - 1)
        else:
            # Mostly outliers: ship all of them to the new node; the pole
            # stays and regains space for future fast inserts.
            split_pos = max(split_pos, 1)
        right, split_key = self._do_leaf_split(pole, split_pos)
        self.stats.variable_splits += 1
        self._settle_pole(pole, right, split_key, low, high, advance)
        if key >= split_key:
            return right, split_key, high
        return pole, low, split_key

    def _redistribute_into_prev(self, pole: LeafNode, prev: LeafNode) -> None:
        """Move entries from the front of the pole into ``pole_prev`` until
        the latter is exactly half full (Fig. 7c), updating the separator
        pivot between the two leaves."""
        take = self.config.leaf_half - prev.size
        if not 0 < take < pole.size:
            raise TreeInvariantError(
                f"redistribution take={take} outside (0, {pole.size}); "
                "caller must ensure the previous leaf is under half full "
                "and the pole can cover the deficit"
            )
        pk, pv, _ = pole.view()
        prev.extend_entries(pk[:take], pv[:take])
        pole.drop_prefix(take)
        new_min = pole.min_key
        self._update_lower_separator(pole, new_min)
        self._fp.low = new_min
        self.stats.redistributions += 1

    def _update_lower_separator(self, leaf: LeafNode, new_key: Key) -> None:
        """Set the pivot that lower-bounds ``leaf``'s subtree to
        ``new_key`` (the nearest ancestor where the subtree is not the
        leftmost child holds that pivot)."""
        child = leaf
        parent = child.parent
        while parent is not None:
            idx = parent.index_of_child(child, self.stats)
            if idx > 0:
                parent.keys[idx - 1] = new_key
                return
            child = parent
            parent = child.parent
        # Leftmost leaf of the whole tree: no lower separator exists.

    # ------------------------------------------------------------------
    # Deletes (§4.4)
    # ------------------------------------------------------------------

    def _skip_eager_rebalance(self, leaf: LeafNode) -> bool:
        # Deletes in the pole do not rebalance eagerly: the pole is the
        # node expected to receive the next in-order inserts.
        return leaf is self._fp.leaf

    def _on_entry_deleted(self, leaf: LeafNode, key: Key) -> None:
        fp = self._fp
        if leaf is fp.leaf and leaf.size == 0 and fp.prev is not None:
            # The pole just emptied: fall back to pole_prev.  The window
            # is recomputed once the delete finishes (_after_delete).
            self._pin(fp.prev, fp.low, fp.high)
