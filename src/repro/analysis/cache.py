"""Buffer-pool / cache simulation for node accesses.

The paper explains QuIT's small point-lookup advantage (Fig. 10b) by
cache residency: better leaf packing makes the whole index smaller, so a
larger fraction of its nodes stays cached.  This module makes that
mechanism measurable in the reproduction: an LRU page cache is replayed
against the exact node-access sequence a query workload produces, and
the hit rate / simulated I/O count quantify the effect at any cache
size.

The simulator is storage-agnostic: it charges one page per tree node
(the paged model of ``memory_bytes``) and knows nothing about Python
object layout.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..core.bptree import BPlusTree
from ..core.node import InternalNode, Key, Node


@dataclass
class CacheReport:
    """Outcome of replaying an access trace through the cache."""

    accesses: int = 0
    hits: int = 0
    evictions: int = 0
    capacity_pages: int = 0
    distinct_pages: int = 0

    @property
    def misses(self) -> int:
        """Accesses not served from the cache (simulated I/O)."""
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from the cache."""
        return self.hits / self.accesses if self.accesses else 0.0


class LruPageCache:
    """A fixed-capacity LRU cache of page (node) ids."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ValueError(
                f"capacity_pages must be >= 1, got {capacity_pages}"
            )
        self.capacity = capacity_pages
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.report = CacheReport(capacity_pages=capacity_pages)

    def access(self, page_id: int) -> bool:
        """Touch ``page_id``; returns True on a hit."""
        report = self.report
        report.accesses += 1
        pages = self._pages
        if page_id in pages:
            pages.move_to_end(page_id)
            report.hits += 1
            return True
        pages[page_id] = None
        report.distinct_pages = max(report.distinct_pages, len(pages))
        if len(pages) > self.capacity:
            pages.popitem(last=False)
            report.evictions += 1
        return False

    def access_many(self, page_ids: Iterable[int]) -> None:
        """Replay a whole trace."""
        for page_id in page_ids:
            self.access(page_id)


def lookup_trace(
    tree: BPlusTree, targets: Sequence[Key]
) -> Iterable[int]:
    """Node-id sequence of the root-to-leaf descents for ``targets``.

    This replays exactly the node accesses the tree's point-lookup path
    performs, without mutating the tree's stats.
    """
    root = tree.root
    for key in targets:
        node: Node = root
        yield node.node_id
        while not node.is_leaf:
            internal: InternalNode = node  # type: ignore[assignment]
            node = internal.children[bisect_right(internal.keys, key)]
            yield node.node_id


def simulate_lookup_cache(
    tree: BPlusTree,
    targets: Sequence[Key],
    cache_pages: Optional[int] = None,
    cache_fraction: Optional[float] = None,
) -> CacheReport:
    """Replay a point-lookup workload through an LRU page cache.

    Exactly one of ``cache_pages`` / ``cache_fraction`` sizes the cache;
    ``cache_fraction`` is relative to the tree's *own* node count, which
    is how the Fig. 10b mechanism manifests: at the same absolute cache
    size, the smaller (QuIT) tree gets the larger effective fraction.
    """
    if (cache_pages is None) == (cache_fraction is None):
        raise ValueError(
            "size the cache with exactly one of cache_pages or "
            "cache_fraction"
        )
    node_count = tree.occupancy().node_count
    if cache_pages is None:
        cache_pages = max(1, int(node_count * cache_fraction))
    cache = LruPageCache(cache_pages)
    cache.access_many(lookup_trace(tree, targets))
    return cache.report
