"""Configuration objects shared by all tree variants.

The paper's default setup uses 4KB pages holding up to 510 8-byte entries
per leaf.  A pure-Python reproduction defaults to a smaller leaf capacity so
that benchmark workloads still produce thousands of leaf splits at a
laptop-friendly number of keys.  Every knob the paper exposes (leaf capacity,
IKR scale, reset threshold) is configurable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


# Paper defaults (§5, "Index Design and Default Setup").
PAPER_LEAF_CAPACITY = 510
PAPER_IKR_SCALE = 1.5

# Reproduction defaults, scaled down per DESIGN.md §3 substitution 1.
DEFAULT_LEAF_CAPACITY = 64
DEFAULT_INTERNAL_CAPACITY = 64

# Synthetic sizing used when estimating memory footprints (Table 2):
# the paper uses 8-byte entries (4-byte keys + 4-byte values) and
# 8-byte child pointers in internal nodes.
ENTRY_BYTES = 8
PIVOT_BYTES = 12  # 4-byte key + 8-byte child pointer
NODE_HEADER_BYTES = 32


def reset_threshold(leaf_capacity: int) -> int:
    """Stale-pole reset threshold ``T_R = floor(sqrt(leaf_capacity))`` (§4.3).

    The paper's default configuration yields ``floor(sqrt(510)) = 22``.
    """
    if leaf_capacity < 1:
        raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
    return int(math.isqrt(leaf_capacity))


@dataclass(frozen=True)
class TreeConfig:
    """Static configuration for a tree index.

    Attributes:
        leaf_capacity: maximum number of entries in a leaf node.
        internal_capacity: maximum number of children in an internal node.
        ikr_scale: the IKR ``scale`` buffer factor (Eq. 2); 1.5 by default,
            following the interquartile-range convention the paper cites.
        reset_after: number of consecutive top-inserts after which QuIT
            resets a stale ``pole`` (``T_R``).  Defaults to
            ``floor(sqrt(leaf_capacity))``.
    """

    leaf_capacity: int = DEFAULT_LEAF_CAPACITY
    internal_capacity: int = DEFAULT_INTERNAL_CAPACITY
    ikr_scale: float = PAPER_IKR_SCALE
    reset_after: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.leaf_capacity < 4:
            raise ValueError(
                f"leaf_capacity must be >= 4, got {self.leaf_capacity}"
            )
        if self.internal_capacity < 4:
            raise ValueError(
                f"internal_capacity must be >= 4, got {self.internal_capacity}"
            )
        if self.ikr_scale <= 0:
            raise ValueError(f"ikr_scale must be > 0, got {self.ikr_scale}")
        if self.reset_after == -1:
            object.__setattr__(
                self, "reset_after", reset_threshold(self.leaf_capacity)
            )
        if self.reset_after < 1:
            raise ValueError(
                f"reset_after must be >= 1, got {self.reset_after}"
            )

    @property
    def leaf_half(self) -> int:
        """Default split position ``def_split_pos = leaf_capacity / 2``."""
        return self.leaf_capacity // 2

    @classmethod
    def paper_defaults(cls) -> "TreeConfig":
        """The configuration used by the paper's evaluation (510/leaf)."""
        return cls(
            leaf_capacity=PAPER_LEAF_CAPACITY,
            internal_capacity=PAPER_LEAF_CAPACITY,
        )
