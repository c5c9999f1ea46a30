"""Duplicate-key support: a secondary-index adapter over the unique-key
trees.

The paper's real-world workload (§5.5) indexes ``closing_price``, a
column full of repeated values; the reproduction's trees store unique
keys.  :class:`DuplicateKeyIndex` bridges the gap the way secondary
indexes classically do: each logical ``(key, value)`` entry is stored
under the composite key ``(key, seq)`` where ``seq`` is a monotonically
increasing discriminator.  Composite tuples order first by the logical
key, so near-sortedness of the logical stream carries over to the
physical key order — the fast paths keep working.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Iterator, Optional, Type

from .bptree import BPlusTree
from .config import TreeConfig
from .node import Key
from .quit_tree import QuITTree
from .stats import ScrubReport, TreeStats


class DuplicateKeyIndex:
    """Multi-map index: one logical key may hold many values.

    Args:
        tree_class: the underlying unique-key variant (QuIT by default —
            duplicates arrive near-sorted in exactly the workloads QuIT
            targets).
        config: tree configuration.
    """

    def __init__(
        self,
        tree_class: Type[BPlusTree] = QuITTree,
        config: Optional[TreeConfig] = None,
    ) -> None:
        self.tree = tree_class(config)
        self._seq = 0

    def __len__(self) -> int:
        """Number of logical entries (duplicates counted)."""
        return len(self.tree)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, key: Key, value: Any = None) -> None:
        """Add one ``(key, value)`` entry; duplicates accumulate."""
        self.tree.insert((key, self._seq), value)
        self._seq += 1

    def insert_many(self, items: Iterable[tuple[Key, Any]]) -> int:
        """Batched :meth:`insert`: duplicates accumulate per item.

        Discriminators are assigned in iteration order before the batch
        is handed to the tree's run-carving ``insert_many`` — composite
        keys preserve the logical stream's near-sortedness, so the fast
        paths see the same runs a loop of single inserts would.
        Returns the number of entries added (every item adds one).
        """
        batch = []
        seq = self._seq
        for key, value in items:
            batch.append(((key, seq), value))
            seq += 1
        self._seq = seq
        self.tree.insert_many(batch)
        return len(batch)

    def delete_one(self, key: Key) -> bool:
        """Remove the oldest entry for ``key``; False when absent."""
        for composite, _ in self.tree.iter_from((key, -1)):
            if composite[0] != key:
                return False
            return self.tree.delete(composite)
        return False

    def delete_all(self, key: Key) -> int:
        """Remove every entry for ``key``; returns the count removed."""
        composites = [
            c for c, _ in self._entries_for(key)
        ]
        for composite in composites:
            self.tree.delete(composite)
        return len(composites)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _entries_for(self, key: Key) -> Iterator[tuple[tuple, Any]]:
        for composite, value in self.tree.iter_from((key, -1)):
            if composite[0] != key:
                return
            yield composite, value

    def get_all(self, key: Key) -> list[Any]:
        """Every value stored under ``key``, oldest first."""
        return [v for _, v in self._entries_for(key)]

    def get(self, key: Key, default: Any = None) -> Any:
        """The oldest value for ``key`` (or ``default``)."""
        for _, value in self._entries_for(key):
            return value
        return default

    def get_many(
        self, keys: Iterable[Key], default: Any = None
    ) -> list[Any]:
        """Batched :meth:`get`: the oldest value per probe key, aligned
        with ``keys`` (``default`` for absent keys).

        Probes are sorted and positioned left-to-right on the composite
        ``(key, -1)`` floor via the tree's batched read routing
        (:meth:`BPlusTree._probe_leaf_for_read`) — consecutive probes
        for nearby logical keys share one leaf, and the next leaf comes
        from the parent's pivots instead of one ``iter_from`` cursor (a
        full descent) each.
        """
        key_list = keys if isinstance(keys, list) else list(keys)
        n = len(key_list)
        out = [default] * n
        if not n:
            return out
        tree = self.tree
        tree.stats.read_batches += 1
        order = sorted(range(n), key=key_list.__getitem__)
        cursor = None
        for pos in order:
            key = key_list[pos]
            target = (key, -1)
            cursor = tree._probe_leaf_for_read(target, cursor)
            leaf = cursor[0]
            lk, lv, ln = leaf.view()
            idx = bisect_left(lk, target, 0, ln)
            if idx < ln:
                if lk[idx][0] == key:
                    out[pos] = lv[idx]
                continue
            # Every composite in this leaf sorts below (key, -1): the
            # floor entry, if any, starts the next non-empty leaf.
            nxt = leaf.next
            while nxt is not None and not nxt.size:
                nxt = nxt.next
            if nxt is not None and nxt.min_key[0] == key:
                out[pos] = nxt.value_at(0)
        return out

    def count(self, key: Key) -> int:
        """Number of entries stored under ``key``."""
        return sum(1 for _ in self._entries_for(key))

    def __contains__(self, key: Key) -> bool:
        for _ in self._entries_for(key):
            return True
        return False

    def range_iter(self, start: Key, end: Key) -> Iterator[tuple[Key, Any]]:
        """Lazily yield entries with ``start <= key < end``, in key order
        and arrival order within a key."""
        for composite, value in self.tree.iter_from((start, -1)):
            if composite[0] >= end:
                return
            yield composite[0], value

    def range_query(self, start: Key, end: Key) -> list[tuple[Key, Any]]:
        """All entries with ``start <= key < end``, in key order and
        arrival order within a key."""
        return list(self.range_iter(start, end))

    def count_range(self, start: Key, end: Key) -> int:
        """Number of logical entries with ``start <= key < end``."""
        return sum(1 for _ in self.range_iter(start, end))

    def items(self) -> Iterator[tuple[Key, Any]]:
        """All logical entries in (key, arrival) order."""
        for composite, value in self.tree.items():
            yield composite[0], value

    def keys(self) -> Iterator[Key]:
        """Distinct logical keys in order."""
        previous: Any = _SENTINEL
        for composite, _ in self.tree.items():
            if composite[0] != previous:
                previous = composite[0]
                yield previous

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> TreeStats:
        """Underlying tree statistics (fast-insert counters etc.)."""
        return self.tree.stats

    def validate(self) -> None:
        """Validate the underlying tree."""
        self.tree.validate(check_min_fill=False)

    def check(self, check_min_fill: bool = False) -> list[str]:
        """Non-raising validation of the underlying tree (see
        :meth:`repro.core.bptree.BPlusTree.check`)."""
        return self.tree.check(check_min_fill=check_min_fill)

    def scrub(self) -> ScrubReport:
        """Scrub the underlying tree's derived state (fast-path
        pointers, chain endpoints); see
        :meth:`repro.core.bptree.BPlusTree.scrub`."""
        return self.tree.scrub()


class _Sentinel:
    __slots__ = ()


_SENTINEL = _Sentinel()
