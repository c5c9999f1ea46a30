"""Ablation variants of QuIT, isolating each design feature (§4.3).

DESIGN.md calls these out for the ablation benches: the paper itself
evaluates the "pole-B+-tree" (QuIT minus variable split, redistribution,
and reset; :class:`~repro.core.pole_tree.PoleBPlusTree`) in §5.2.3.  The
two classes here complete the feature lattice:

* :class:`QuITNoResetTree` — variable split + redistribution, no stale-pole
  reset.  Demonstrates why reset exists (the pole can strand permanently
  on workload shifts).
* :class:`QuITNoVariableSplitTree` — pole + reset, but plain 50% splits.
  Demonstrates that the variable split is what buys the occupancy gains
  of Fig. 10a / Table 2.
"""

from __future__ import annotations

from typing import Optional

from .node import Key, LeafNode
from .quit_tree import QuITTree


class QuITNoResetTree(QuITTree):
    """QuIT without the stale-pole reset strategy."""

    name = "QuIT-no-reset"

    _resets = False


class QuITNoVariableSplitTree(QuITTree):
    """QuIT without the variable split / redistribution strategies.

    Every leaf split happens at the default 50% position (Alg. 1's
    behaviour), so occupancy matches the classical B+-tree while the
    fast-path and reset machinery stay intact.
    """

    name = "QuIT-50%-split"

    def _split_full_leaf(
        self,
        leaf: LeafNode,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> LeafNode:
        # Bypass QuITTree's Alg. 2 override: 50% split + Alg. 1 pole
        # update, exactly as in the plain pole-B+-tree.
        return super(QuITTree, self)._split_full_leaf(leaf, key, low, high)
