"""The SA-B+-tree: SWARE's sortedness-aware buffering applied to a
B+-tree (§2, §5.4).

Inserts land in an in-memory :class:`~repro.sware.buffer.SortednessBuffer`
(sized at 1% of the expected data by the paper's default).  When the
buffer fills, its content is drained sorted and *opportunistically bulk
loaded*: the maximal sorted run above the tree's current maximum key is
appended as packed leaves, while the remainder is top-inserted.  Queries
probe the buffer (global Bloom → zonemaps → page Bloom → page search)
before the underlying tree — the read penalty the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ..core.bptree import BPlusTree
from ..core.config import TreeConfig
from ..core.node import Key
from .buffer import BufferStats, SortednessBuffer


@dataclass
class FlushStats:
    """Counters for flush-time work.

    ``segments`` is the number of descents the opportunistic bulk load
    performed; ``bulk_loaded / segments`` is the average run length — high
    for near-sorted streams, approaching 1 for scrambled ones (where SWARE
    degenerates to per-entry tree inserts, §2).
    """

    flushes: int = 0
    bulk_loaded: int = 0
    segments: int = 0

    @property
    def avg_segment_length(self) -> float:
        """Mean entries placed per descent (1.0 ≈ B+-tree behaviour)."""
        return self.bulk_loaded / self.segments if self.segments else 0.0


class SABPlusTree:
    """SWARE-paradigm sortedness-aware B+-tree.

    Args:
        config: configuration for the underlying B+-tree.
        buffer_capacity: entries buffered before a flush; the paper's
            default is 1% of the total data size.
        page_capacity: buffer page size in entries.
        flush_fill_factor: leaf fill used when bulk loading sorted runs.
    """

    name = "SWARE"

    def __init__(
        self,
        config: Optional[TreeConfig] = None,
        buffer_capacity: int = 1024,
        page_capacity: int = 128,
        flush_fill_factor: float = 1.0,
        use_interpolation: bool = False,
        crack_on_read: bool = False,
    ) -> None:
        self.tree = BPlusTree(config)
        self.buffer = SortednessBuffer(
            buffer_capacity,
            page_capacity=page_capacity,
            use_interpolation=use_interpolation,
            crack_on_read=crack_on_read,
        )
        self.flush_fill_factor = flush_fill_factor
        self.flush_stats = FlushStats()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, key: Key, value: Any = None) -> None:
        """Buffered insert; flushes first when the buffer is full."""
        if self.buffer.is_full:
            self.flush()
        self.buffer.append(key, value)

    def insert_many(self, items) -> int:
        """Batched upsert: drain the buffer, then run-apply the batch
        straight into the tree.

        The sortedness buffer exists to batch *per-key* arrivals into
        sorted runs before they hit the tree; a caller that already holds
        a batch has done that batching, so the entries skip the per-key
        buffer bookkeeping (zonemap updates, Bloom indexing) entirely.
        The preceding flush preserves read semantics: nothing older stays
        in the buffer to shadow the batch's fresher values.  Returns the
        number of new keys added to the tree.
        """
        batch = items if isinstance(items, list) else list(items)
        if not batch:
            return 0
        self.flush()
        return self.tree.insert_many(batch)

    def flush(self) -> None:
        """Drain the buffer into the tree.

        The drained entries form one globally sorted run (duplicates
        collapse to the latest write), which the tree applies through the
        shared run-apply primitive — one descent per pivot-bounded
        segment, packed-leaf rebuilds on overflow (SWARE's opportunistic
        on-the-fly bulk loading).  Out-of-order zones degrade gracefully
        to shorter segments, approaching per-entry top-insert cost.
        """
        drained = self.buffer.drain()
        if not drained:
            return
        self.flush_stats.flushes += 1
        segments_before = self.tree.stats.bulk_splice_segments
        self.tree.bulk_insert_run(
            drained, fill_factor=self.flush_fill_factor
        )
        self.flush_stats.bulk_loaded += len(drained)
        self.flush_stats.segments += (
            self.tree.stats.bulk_splice_segments - segments_before
        )

    def delete(self, key: Key) -> bool:
        """Delete ``key`` from the buffer and/or the tree."""
        in_buffer = self.buffer.remove(key)
        in_tree = self.tree.delete(key)
        return in_buffer or in_tree

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        """Point lookup: buffer first (it holds the freshest write for a
        key), then the underlying tree."""
        found, value = self.buffer.get(key)
        if found:
            return value
        return self.tree.get(key, default)

    def get_many(self, keys, default: Any = None) -> list[Any]:
        """Batched point lookups aligned with ``keys``.

        The whole batch goes through the buffer's batched probe first —
        one global-Bloom pass, probes zonemap-partitioned across pages —
        and only the buffer misses fall through to the tree's batched
        read path, preserving buffer-shadows-tree semantics per key.
        """
        key_list = keys if isinstance(keys, list) else list(keys)
        buffered = self.buffer.get_many(key_list)
        misses = [
            key
            for key, (found, _) in zip(key_list, buffered)
            if not found
        ]
        from_tree = iter(self.tree.get_many(misses, default))
        return [
            value if found else next(from_tree)
            for found, value in buffered
        ]

    def __contains__(self, key: Key) -> bool:
        found, _ = self.buffer.get(key)
        if found:
            return True
        return key in self.tree

    def range_iter(self, start: Key, end: Key) -> Iterator[tuple[Key, Any]]:
        """Lazily yield entries in ``[start, end)`` merged across buffer
        and tree, in key order, buffered values shadowing tree values.

        The buffered overlap is materialized (it is bounded by the
        buffer's capacity); the tree side streams through
        ``tree.range_iter``, so callers can abandon the scan early.
        """
        shadow: dict[Key, Any] = {}
        for k, v in self.buffer.range_items(start, end):
            shadow[k] = v  # sorted + arrival-stable: latest write wins
        pending = list(shadow.items())  # insertion order == key order
        i = 0
        m = len(pending)
        for k, v in self.tree.range_iter(start, end):
            while i < m and pending[i][0] < k:
                yield pending[i]
                i += 1
            if i < m and pending[i][0] == k:
                yield pending[i]
                i += 1
            else:
                yield k, v
        while i < m:
            yield pending[i]
            i += 1

    def range_query(self, start: Key, end: Key) -> list[tuple[Key, Any]]:
        """Entries in ``[start, end)`` merged across buffer and tree.

        Buffered values shadow tree values for duplicate keys.
        """
        return list(self.range_iter(start, end))

    def count_range(self, start: Key, end: Key) -> int:
        """Number of distinct keys in ``[start, end)`` across buffer and
        tree, without materializing the merged entries."""
        buffered = {k for k, _ in self.buffer.range_items(start, end)}
        total = len(buffered)
        for k, _ in self.tree.range_iter(start, end):
            if k not in buffered:
                total += 1
        return total

    def items(self) -> Iterator[tuple[Key, Any]]:
        """All entries in key order, without flushing."""
        buffered = dict(self.buffer.items())
        order = sorted(buffered)
        i = 0
        for key, value in self.tree.items():
            while i < len(order) and order[i] < key:
                yield order[i], buffered[order[i]]
                i += 1
            if i < len(order) and order[i] == key:
                yield key, buffered[key]
                i += 1
            else:
                yield key, value
        while i < len(order):
            yield order[i], buffered[order[i]]
            i += 1

    def __len__(self) -> int:
        """Exact number of distinct keys across buffer and tree."""
        overlap = 0
        seen: set[Key] = set()
        for key, _ in self.buffer.items():
            if key in seen:
                continue
            seen.add(key)
            leaf = self.tree._find_leaf(key, count=False)
            if leaf.find(key) is not None:
                overlap += 1
        return len(self.tree) + len(seen) - overlap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self):
        """Underlying tree stats (traversal counters)."""
        return self.tree.stats

    @property
    def buffer_stats(self) -> BufferStats:
        """Buffer-side work counters."""
        return self.buffer.stats

    def memory_bytes(self) -> int:
        """Tree pages + buffer + auxiliary structures (Fig. 1b point:
        SWARE's footprint includes the buffer and its metadata)."""
        return self.tree.memory_bytes() + self.buffer.memory_bytes

    def validate(self) -> None:
        """Validate the underlying tree's structural invariants."""
        self.tree.validate(check_min_fill=False)

    def check(self, check_min_fill: bool = False) -> list[str]:
        """Non-raising validation of the underlying tree.  Buffered
        entries are staged, not structural — they are not flushed here,
        so a check is read-only like the other variants'."""
        return self.tree.check(check_min_fill=check_min_fill)

    def scrub(self):
        """Scrub the underlying tree's derived state (chain endpoints,
        fast-path pointers); see
        :meth:`repro.core.bptree.BPlusTree.scrub`."""
        return self.tree.scrub()
