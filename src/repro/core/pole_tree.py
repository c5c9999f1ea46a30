"""B+-tree with the predicted-ordered-leaf (pole) fast path (§4.1-4.2).

Unlike ``lil``, the ``pole`` pointer is *not* retargeted by top-inserts:
it may advance only when the pole leaf splits, and only when the smallest
key of the newly created node is judged a non-outlier by the In-order Key
estimatoR (Eq. 2 / Alg. 1).  When the new node's minimum *is* an outlier,
the pole stays put and the new node is remembered as ``pole_next``; a later
top-insert landing there that IKR accepts lets the pole "catch up" (§4.2).

This class is the paper's "pole-B+-tree" of §5.2.3 — QuIT *without* the
variable split, redistribution, and stale-pole reset strategies (those are
:class:`~repro.core.quit_tree.QuITTree`'s; it switches the reset on through
``_resets``).  It therefore reproduces the stress-test pathology of
Fig. 12: once trapped by a scrambled segment, it never recovers the fast
path.
"""

from __future__ import annotations

from typing import Optional

from .fastpath import FastPathTree
from .ikr import ikr_threshold
from .metadata import PoleState
from .node import Key, LeafNode
from .stats import ScrubReport


class PoleBPlusTree(FastPathTree):
    """B+-tree whose fast path is the predicted ordered leaf."""

    name = "pole-B+-tree"

    _fp: PoleState

    #: Whether ``T_R`` consecutive top-inserts re-pin the pole (§4.3);
    #: the plain pole tree only counts them.
    _resets = False

    def _make_fp_state(self) -> PoleState:
        return PoleState()

    @property
    def pole_prev(self) -> Optional[LeafNode]:
        """The leaf preceding the pole (IKR's reference density window)."""
        return self._fp.prev

    @property
    def pole_next(self) -> Optional[LeafNode]:
        """The outlier node split off the pole, if any (catch-up target)."""
        return self._fp.next_candidate

    # ------------------------------------------------------------------
    # Re-pinning
    # ------------------------------------------------------------------

    def _pin(
        self,
        leaf: LeafNode,
        low: Optional[Key],
        high: Optional[Key],
        prev: Optional[LeafNode] = None,
    ) -> None:
        """Re-pin the pole and restart its IKR bookkeeping: ``pole_prev``
        becomes ``prev`` (default: the leaf's chain predecessor),
        ``pole_next`` is forgotten and the miss counter restarts.  Used by
        catch-up, stale-pole reset, ``bulk_load``, runs and scrub."""
        super()._pin(leaf, low, high)
        fp = self._fp
        fp.prev = leaf.prev if prev is None else prev
        fp.next_candidate = None
        fp.fails = 0

    # ------------------------------------------------------------------
    # Pole-update policy on split (Alg. 1 lines 2-8, Fig. 6)
    # ------------------------------------------------------------------

    def _after_leaf_split(
        self,
        left: LeafNode,
        right: LeafNode,
        split_key: Key,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> None:
        """When the pole splits, advance it to ``right`` iff ``split_key``
        (= ``r``, the smallest key of the new node) is not an outlier per
        IKR."""
        if left is not self._fp.leaf:
            return
        threshold = self._ikr_for_pole(left, extra=right.size)
        if threshold is None:
            # No usable pole_prev yet (initialization, §4.2): follow the
            # inserted entry, like the very first split of the root leaf.
            advance = key >= split_key
        else:
            advance = split_key <= threshold
        self._settle_pole(left, right, split_key, low, high, advance)

    def _ikr_for_pole(
        self, pole: LeafNode, extra: int = 0
    ) -> Optional[float]:
        """IKR threshold ``x`` for the current pole, or None when
        ``pole_prev`` cannot support an estimate.

        ``extra`` accounts for entries that have already been moved out of
        the pole (e.g. into the right half of a split): Eq. 2's
        ``pole_size`` is the pole's population at decision time.
        """
        prev = self._fp.prev
        if prev is None or prev.size == 0 or pole.size == 0:
            return None
        p, q = prev.min_key, pole.min_key
        if q < p:
            # Stale prev reference (structure moved underneath it).
            return None
        try:
            return ikr_threshold(
                p, q, prev.size, pole.size + extra, self.config.ikr_scale
            )
        except TypeError:
            # Non-arithmetic keys (tuples, strings): IKR needs a key
            # *domain* to extrapolate into, so the pole degrades
            # gracefully to its 50%-split / follow-the-entry behaviour.
            return None

    def _settle_pole(
        self,
        left: LeafNode,
        right: LeafNode,
        split_key: Key,
        low: Optional[Key],
        high: Optional[Key],
        advance: bool,
    ) -> None:
        """Point the pole after ``left`` split off ``right`` at
        ``split_key``: advance it to ``right``, or keep it on ``left`` and
        remember ``right`` as the catch-up target (Alg. 1 lines 4-8)."""
        fp = self._fp
        if advance:
            fp.prev = left
            fp.leaf = right
            fp.low = split_key
            fp.high = high
            # next_candidate is intentionally preserved: it is the outlier
            # node bounding the pole from above, and remains the catch-up
            # target after any number of advances underneath it.
            self.stats.pole_updates += 1
        else:
            fp.low, fp.high = low, split_key
            fp.next_candidate = right

    # ------------------------------------------------------------------
    # Catching up to predicted outliers (Alg. 1 lines 11-14)
    # ------------------------------------------------------------------

    def _after_top_insert(
        self,
        leaf: LeafNode,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> None:
        fp = self._fp
        pole = fp.leaf
        # Cheap structural checks first; the IKR float math only runs for
        # the two catch-up candidates (§4.2).  "beyond" means the in-order
        # stream crossed the pole's upper bound into the physically
        # adjacent leaf — identity-checking the neighbor is O(1) and far
        # more selective than comparing the key against fp.high.
        is_candidate = leaf is fp.next_candidate
        beyond = (
            pole is not None
            and leaf is pole.next
            and fp.high is not None
            and key >= fp.high
        )
        if (is_candidate or beyond) and pole is not None and pole.size:
            threshold = self._ikr_for_pole(pole)
            # The marked outlier node is caught up to unless IKR rejects
            # the key; the generalized catch-up — the in-order stream
            # crossed the pole's upper bound into the neighboring node —
            # needs IKR to positively judge the key a non-outlier (§4.2,
            # "catching up to previously marked outliers").
            if (
                is_candidate and (threshold is None or key <= threshold)
            ) or (beyond and threshold is not None and key <= threshold):
                self._pin(leaf, low, high, prev=pole)
                self.stats.pole_catchups += 1
                return
        # A top-insert bypassed the fast path: count the consecutive miss.
        # ``fails`` restarts whenever a fast insert happened since the
        # previous miss (tracked through the fast-insert counter), so the
        # fast path itself carries no bookkeeping.
        fast_now = self.stats.fast_inserts
        if fast_now != fp.last_fast_mark:
            fp.fails = 0
            fp.last_fast_mark = fast_now
        fp.fails += 1
        if self._resets and fp.fails >= self.config.reset_after:
            # Stale-pole reset (§4.3): re-pin the pole to the leaf that
            # took the latest insert.
            self._pin(leaf, low, high)
            self.stats.pole_resets += 1

    # ------------------------------------------------------------------
    # Scrubbing
    # ------------------------------------------------------------------

    def _scrub_extra(self, report: ScrubReport) -> bool:
        """Audit ``pole_prev``/``pole_next`` (IKR's reference window).

        A stale ``pole_prev`` — detached, identical to the pole, or with
        a min key *above* the pole's — would feed IKR a negative density
        window.  The runtime guards degrade gracefully (IKR returns no
        estimate), but after recovery the reference should be rebuilt
        rather than left poisoned.
        """
        fp = self._fp
        unsafe = False
        prev = fp.prev
        pole = fp.leaf
        if prev is not None:
            if prev is pole:
                report.issues.append("pole_prev aliases the pole itself")
                unsafe = True
            elif not self._leaf_attached(prev):
                report.issues.append("pole_prev detached from tree")
                unsafe = True
            elif (
                pole is not None
                and prev.size > 0
                and pole.size > 0
                and prev.min_key > pole.min_key
            ):
                report.issues.append("pole_prev min key above the pole's")
                unsafe = True
        if fp.next_candidate is not None and not self._leaf_attached(
            fp.next_candidate
        ):
            report.issues.append("pole_next detached from tree")
            unsafe = True
        return unsafe

    # ------------------------------------------------------------------
    # Structural upkeep
    # ------------------------------------------------------------------

    def _on_leaf_removed(self, leaf: LeafNode, merged_into: LeafNode) -> None:
        fp = self._fp
        if fp.leaf is leaf:
            fp.leaf = merged_into
        if fp.prev is leaf:
            fp.prev = merged_into
        if fp.next_candidate is leaf:
            fp.next_candidate = None
