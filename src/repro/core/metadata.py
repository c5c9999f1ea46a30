"""Fast-path metadata (the paper's Table 1).

Every fast-path variant keeps a pointer to its fast-path leaf plus the
smallest and largest keys that leaf can accept; QuIT adds ``pole_prev``
bookkeeping and the consecutive-failure counter that drives the stale-pole
reset.  ``fp_path[]`` from Table 1 is realized through node parent pointers
(see DESIGN.md, S7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .node import Key, LeafNode


@dataclass
class FastPathState:
    """Mutable fast-path pointer + its admissible key range.

    Attributes:
        leaf: the current fast-path leaf (tail / lil / pole), or None when
            the fast path is uninitialized.
        low: smallest key the leaf can accept (its lower pivot bound);
            None means unbounded below.
        high: upper pivot bound (exclusive); None means unbounded above —
            which is always the case while the fast-path leaf is the tail.
    """

    leaf: Optional[LeafNode] = None
    low: Optional[Key] = None
    high: Optional[Key] = None


@dataclass
class PoleState(FastPathState):
    """Fast-path state for the ``pole`` variants (pole-B+-tree and QuIT).

    Attributes:
        prev: the leaf preceding ``pole`` (IKR's ``pole_prev``); its live
            ``min_key``/``size`` stand in for the paper's
            ``pole_prev_min`` / ``pole_prev_size`` snapshots.
        next_candidate: the node most recently split off ``pole`` whose
            smallest key IKR classified as an outlier — the target of the
            "catching up to predicted outliers" rule (§4.2).
        fails: consecutive top-inserts since the last fast-path use; when
            it reaches ``T_R`` QuIT resets the pole (§4.3).
        last_fast_mark: value of the tree's fast-insert counter when
            ``fails`` was last reset — lets the miss path detect "a fast
            insert happened since my last miss" lazily, keeping the
            fast-insert path free of counter maintenance.
    """

    prev: Optional[LeafNode] = None
    next_candidate: Optional[LeafNode] = None
    fails: int = 0
    last_fast_mark: int = -1


# Table 1 inventory: metadata fields per index, used by exp_tab1.
METADATA_FIELDS: dict[str, tuple[str, ...]] = {
    "B+-tree": ("root_id", "head_id", "tail_id"),
    "tail-B+-tree": (
        "root_id", "head_id", "tail_id",
        "fp_path[]", "fp_size", "fp_min",
    ),
    "lil-B+-tree": (
        "root_id", "head_id", "tail_id",
        "fp_path[]", "fp_size", "fp_min", "fp_max", "fp_id",
    ),
    "QuIT": (
        "root_id", "head_id", "tail_id",
        "fp_path[]", "fp_size", "fp_min", "fp_max", "fp_id",
        "pole_prev_size", "pole_prev_min", "pole_prev_id", "pole_fails",
    ),
}

# Approximate per-field sizes (bytes) used for the "< 20 bytes of
# additional metadata" claim: ids/pointers 8B, sizes 4B, keys 4B; the
# fail counter saturates at T_R <= 22, so 2 bytes suffice.
_FIELD_BYTES = {
    "root_id": 8, "head_id": 8, "tail_id": 8, "fp_path[]": 8, "fp_size": 4,
    "fp_min": 4, "fp_max": 4, "fp_id": 8, "pole_prev_size": 4,
    "pole_prev_min": 4, "pole_prev_id": 8, "pole_fails": 2,
}


def metadata_bytes(index_name: str) -> int:
    """Total metadata bytes for ``index_name`` per Table 1."""
    fields = METADATA_FIELDS[index_name]
    return sum(_FIELD_BYTES[f] for f in fields)


def extra_metadata_bytes(index_name: str, baseline: str = "lil-B+-tree") -> int:
    """Additional metadata of ``index_name`` over ``baseline``.

    The paper highlights that QuIT needs < 20 bytes beyond the lil
    variant's fast-path state.
    """
    return metadata_bytes(index_name) - metadata_bytes(baseline)
