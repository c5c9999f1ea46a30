"""A classical in-memory B+-tree (the paper's baseline index).

This is the substrate every fast-path variant builds on: top-to-bottom
traversal for inserts, point and range lookups over interlinked leaves,
deletes with borrow/merge rebalancing, and bulk loading.  The fast-path
variants (:mod:`repro.core.tail_tree`, :mod:`repro.core.lil_tree`,
:mod:`repro.core.pole_tree`, :mod:`repro.core.quit_tree`) override a small
set of hooks — leaf-split position choice, post-split and post-top-insert
callbacks — so that all variants share one traversal/split/rebalance
implementation, mirroring the paper's "same underlying B+-tree
implementation" methodology (§5).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Generator, Iterable, Iterator, Optional, Sequence

from .batch import carve_runs, merge_run, probe_runs
from .config import (
    ENTRY_BYTES,
    NODE_HEADER_BYTES,
    PIVOT_BYTES,
    TreeConfig,
)
from .node import InternalNode, Key, LeafNode, Node
from .stats import OccupancyStats, ScrubReport, TreeStats


class TreeInvariantError(AssertionError):
    """A structural invariant of the tree does not hold.

    Raised explicitly by :meth:`BPlusTree.validate` (never via the
    ``assert`` statement, so validation survives ``python -O``).
    Subclasses :class:`AssertionError` for compatibility with callers
    that treated validation failures as assertion failures.
    """

#: Default leaf fill for run-driven overflow rebuilds in
#: :meth:`BPlusTree.insert_many`.  Packing rebuilt leaves completely full
#: (1.0) makes the very next run landing in them overflow again; ~85%
#: leaves one typical segment of headroom and matches the leaf occupancy a
#: per-key-built tree converges to.
BATCH_FILL_FACTOR = 0.85

#: Minimum segment length for a segment to retarget the batch-local
#: frontier hint in :meth:`BPlusTree._insert_run`.  Shorter segments are
#: almost always displaced outliers; letting them steal the hint would
#: make the next run descend again to find its way back to the in-order
#: frontier.
_HINT_MIN_SEGMENT = 4

#: Key extractor for the coalescing sort in :meth:`BPlusTree.insert_many`.
_key_of = itemgetter(0)

#: Where a batched read stands: ``(leaf, high, parent, parent_high)``,
#: ``high`` and ``parent_high`` being the exclusive upper bounds of the
#: leaf's and its parent's key ranges (None = unbounded); ``parent`` is
#: None for a leaf root.
_ReadCursor = tuple[
    LeafNode, Optional[Key], Optional[InternalNode], Optional[Key]
]

#: One leaf's share of a range read: ``(keys, values, lo, hi)``, the
#: leaf's slot arrays and the bounds of its in-range entries.
LeafSlice = tuple[Sequence[Key], Sequence[Any], int, int]


def page_from_slices(
    slices: Generator[LeafSlice, None, None], limit: int
) -> tuple[list[Key], list[Any], bool]:
    """Fill a ``range_page`` from a leaf walk: at most ``limit`` entries
    as ``(keys, values, done)``, one slice per leaf and column.

    ``done`` is True iff the walk has no entry past the page, so a page
    that ends on a leaf edge steps into the next leaf that holds an
    entry, as a scan reading one entry further would.  The walk is
    closed before returning, which releases any lock it holds.
    """
    keys: list[Key] = []
    values: list[Any] = []
    room = limit
    try:
        for lk, lv, lo, hi in slices:
            if hi - lo > room:
                keys += lk[lo:lo + room]
                values += lv[lo:lo + room]
                return keys, values, False
            keys += lk[lo:hi]
            values += lv[lo:hi]
            room -= hi - lo
        return keys, values, True
    finally:
        slices.close()


class BPlusTree:
    """Textbook B+-tree with upsert semantics and instrumentation.

    Args:
        config: static tree configuration; defaults to
            :class:`~repro.core.config.TreeConfig` defaults.

    The tree stores unique keys; inserting an existing key overwrites its
    value.  All operation counts are accumulated in :attr:`stats`.
    """

    name = "B+-tree"

    def __init__(self, config: Optional[TreeConfig] = None) -> None:
        self.config = config or TreeConfig()
        self.stats = TreeStats()
        root = self._new_leaf()
        self._root: Node = root
        self._head: LeafNode = root
        self._tail: LeafNode = root
        self._size = 0
        self._height = 1

    def _new_leaf(self) -> LeafNode:
        """Fresh empty leaf with a ``leaf_capacity``-slot slab wired to
        this tree's stats.  Every code path that materializes a leaf
        (root, bulk loads, run-overflow rebuilds) routes through here;
        splits go through :meth:`LeafNode.split_at`."""
        return LeafNode(self.config.leaf_capacity, self.stats)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Key) -> bool:
        return self.get(key, default=_MISSING) is not _MISSING

    def __getitem__(self, key: Key) -> Any:
        """Dict-style lookup; raises KeyError when absent."""
        value = self.get(key, default=_MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __setitem__(self, key: Key, value: Any) -> None:
        """Dict-style upsert."""
        self.insert(key, value)

    def __delitem__(self, key: Key) -> None:
        """Dict-style delete; raises KeyError when absent."""
        if not self.delete(key):
            raise KeyError(key)

    def __iter__(self) -> Iterator[Key]:
        return self.keys()

    def __bool__(self) -> bool:
        # A tree with entries is truthy; don't fall back to __len__ via
        # surprising paths.
        return self._size > 0

    @property
    def height(self) -> int:
        """Number of levels, counting the leaf level (1 for a leaf root)."""
        return self._height

    @property
    def head_leaf(self) -> LeafNode:
        """Leftmost leaf."""
        return self._head

    @property
    def tail_leaf(self) -> LeafNode:
        """Rightmost leaf."""
        return self._tail

    @property
    def root(self) -> Node:
        """Root node (exposed for validation and white-box tests)."""
        return self._root

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------

    def insert(self, key: Key, value: Any = None) -> None:
        """Insert ``(key, value)``; a classical tree always top-inserts."""
        self._top_insert(key, value)

    def _top_insert(self, key: Key, value: Any) -> LeafNode:
        """Root-to-leaf traversal insert.  Returns the accepting leaf.

        The returned leaf is the node the entry physically landed in,
        *after* any split caused by the insertion — the variants use it to
        retarget their fast-path pointers.
        """
        self.stats.top_inserts += 1
        leaf, low, high = self._descend_for_insert(key)
        leaf, low, high = self._leaf_insert(leaf, key, value, low, high)
        self._after_top_insert(leaf, key, low, high)
        return leaf

    def _leaf_insert(
        self,
        leaf: LeafNode,
        key: Key,
        value: Any,
        low: Optional[Key],
        high: Optional[Key],
    ) -> tuple[LeafNode, Optional[Key], Optional[Key]]:
        """Insert into ``leaf`` (splitting first if full).

        ``low``/``high`` are the pivot bounds of ``leaf``'s key range as
        observed during the descent (None = unbounded).  Returns the leaf
        the entry landed in together with that leaf's (possibly narrowed)
        pivot bounds — threading them through here keeps the fast-path
        metadata updates O(1).
        """
        if leaf.size >= self.config.leaf_capacity:
            leaf, low, high = self._split_full_leaf(leaf, key, low, high)
        if leaf.insert_entry(key, value):
            self._size += 1
        return leaf, low, high

    def _split_full_leaf(
        self,
        leaf: LeafNode,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> tuple[LeafNode, Optional[Key], Optional[Key]]:
        """Split a full ``leaf``; return the half that should accept
        ``key`` plus that half's pivot bounds.  Subclasses hook
        split-position choice and metadata updates here."""
        pos = self._choose_leaf_split_pos(leaf, key)
        right, split_key = self._do_leaf_split(leaf, pos)
        self._after_leaf_split(leaf, right, split_key, key, low, high)
        if key >= split_key:
            return right, split_key, high
        return leaf, low, split_key

    def _do_leaf_split(self, leaf: LeafNode, pos: int) -> tuple[LeafNode, Key]:
        """Mechanical leaf split at ``pos`` + parent registration."""
        right, split_key = leaf.split_at(pos)
        self.stats.leaf_splits += 1
        if leaf is self._tail:
            self._tail = right
        self._insert_into_parent(leaf, split_key, right)
        return right, split_key

    def _choose_leaf_split_pos(self, leaf: LeafNode, key: Key) -> int:
        """Split position for a full leaf; the classical tree splits at 50%."""
        return leaf.size // 2

    def _after_leaf_split(
        self,
        left: LeafNode,
        right: LeafNode,
        split_key: Key,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> None:
        """Hook invoked after a leaf split (before the entry is placed)."""

    def _after_top_insert(
        self,
        leaf: LeafNode,
        key: Key,
        low: Optional[Key],
        high: Optional[Key],
    ) -> None:
        """Hook invoked after a top-insert lands in ``leaf``; ``low`` /
        ``high`` are the leaf's pivot bounds after any split."""

    def _insert_into_parent(
        self, left: Node, split_key: Key, right: Node
    ) -> None:
        """Register ``right`` (split off ``left`` at ``split_key``) with the
        parent, growing the tree if ``left`` was the root."""
        parent = left.parent
        if parent is None:
            new_root = InternalNode()
            new_root.keys = [split_key]
            new_root.children = [left, right]
            left.parent = new_root
            right.parent = new_root
            self._root = new_root
            self._height += 1
            return
        parent.insert_child(split_key, right)
        if parent.size > self.config.internal_capacity:
            new_right, push_up = parent.split()
            self.stats.internal_splits += 1
            self._insert_into_parent(parent, push_up, new_right)

    # ------------------------------------------------------------------
    # Descents
    # ------------------------------------------------------------------

    def _descend_for_insert(
        self, key: Key
    ) -> tuple[LeafNode, Optional[Key], Optional[Key]]:
        """Find the leaf for ``key`` along with its pivot bounds.

        Returns ``(leaf, low, high)`` where the leaf's permissible key range
        is ``[low, high)`` (None meaning unbounded on that side).  Counts
        the traversal in ``stats.insert_traversal_nodes``.
        """
        node = self._root
        low: Optional[Key] = None
        high: Optional[Key] = None
        nodes = 1
        while not node.is_leaf:
            internal: InternalNode = node  # type: ignore[assignment]
            idx = bisect_right(internal.keys, key)
            if idx > 0:
                low = internal.keys[idx - 1]
            if idx < len(internal.keys):
                high = internal.keys[idx]
            node = internal.children[idx]
            nodes += 1
        self.stats.insert_traversal_nodes += nodes
        return node, low, high  # type: ignore[return-value]

    def _find_leaf(self, key: Key, count: bool = True) -> LeafNode:
        """Leaf that would contain ``key``; counts lookup node accesses.

        Dispatch-free: one ``bisect_right`` and one list index per level,
        no method or property call (DESIGN.md §9, "Descents are
        dispatch-free").
        """
        node = self._root
        nodes = 1
        while not node.is_leaf:
            internal: InternalNode = node  # type: ignore[assignment]
            node = internal.children[bisect_right(internal.keys, key)]
            nodes += 1
        if count:
            self.stats.node_accesses += nodes
            self.stats.leaf_accesses += 1
        return node  # type: ignore[return-value]

    def bounds_of_leaf(
        self, leaf: LeafNode
    ) -> tuple[Optional[Key], Optional[Key]]:
        """Pivot bounds ``[low, high)`` of ``leaf`` from the parent chain.

        This recomputes — in O(height) — the same information a descent
        produces, and is used to refresh fast-path metadata after deletes
        and rebalances.
        """
        low: Optional[Key] = None
        high: Optional[Key] = None
        child: Node = leaf
        parent = child.parent
        while parent is not None and (low is None or high is None):
            idx = parent.index_of_child(child, self.stats)
            if low is None and idx > 0:
                low = parent.keys[idx - 1]
            if high is None and idx < len(parent.keys):
                high = parent.keys[idx]
            child = parent
            parent = child.parent
        return low, high

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        """Point lookup; returns ``default`` when ``key`` is absent.

        The descent (:meth:`_find_leaf`) and the leaf search
        (:meth:`LeafNode.find`) are inlined: a lookup is one bisect per
        level plus one in the leaf, with no call in between.
        :meth:`FastPathTree.get` mirrors this body, so Fig. 10b compares
        like with like.
        """
        stats = self.stats
        stats.point_lookups += 1
        node = self._root
        nodes = 1
        while not node.is_leaf:
            internal: InternalNode = node  # type: ignore[assignment]
            node = internal.children[bisect_right(internal.keys, key)]
            nodes += 1
        stats.node_accesses += nodes
        stats.leaf_accesses += 1
        leaf: LeafNode = node  # type: ignore[assignment]
        fill = leaf.fill
        if leaf.gap != fill:
            leaf._compact()
        skeys = leaf.skeys
        idx = bisect_left(skeys, key, 0, fill)
        if idx < fill and skeys[idx] == key:
            return leaf.svals[idx]
        return default

    def get_many(self, keys: Iterable[Key], default: Any = None) -> list[Any]:
        """Batched point lookups; returns values aligned with ``keys``
        (``default`` for absent keys) — the read-side twin of
        :meth:`insert_many`.

        The probe batch is sorted and drained in key order.  A probe
        below the current leaf's upper bound is one inlined leaf bisect,
        as in :meth:`get`, started where the previous probe's search
        ended.  A probe past that bound finds its leaf with one
        ``bisect_right`` on the parent's pivots; only a probe past the
        parent's own upper bound descends from the root
        (:meth:`_descend_for_read`).  Routing through the parent is
        exact because probes ascend: a probe past the leaf's bound is
        still at or above the parent's lower bound, so the parent's
        pivots place it.

        Counts ``read_batches``, ``read_redescents`` (root descents) and
        ``read_chain_hits`` (every other probe).  A descent adds
        ``height`` node accesses and one leaf access, as
        :meth:`_find_leaf` does; a move through the parent adds one of
        each, as a chain step of :meth:`range_query` does.  Probes are
        *not* added to ``point_lookups`` — batch traffic is reported
        separately, as on the write side.
        """
        key_list = keys if isinstance(keys, list) else list(keys)
        n = len(key_list)
        out = [default] * n
        if not n:
            return out
        descents = 0
        moves = 0
        leaf: Optional[LeafNode] = None
        high: Optional[Key] = None  # the leaf's exclusive upper bound
        parent: Optional[InternalNode] = None
        phigh: Optional[Key] = None  # the parent's exclusive upper bound
        for pos in sorted(range(n), key=key_list.__getitem__):
            key = key_list[pos]
            if leaf is None or (high is not None and key >= high):
                if parent is not None and (phigh is None or key < phigh):
                    pkeys = parent.keys
                    idx = bisect_right(pkeys, key)
                    leaf = parent.children[idx]  # type: ignore[assignment]
                    high = pkeys[idx] if idx < len(pkeys) else phigh
                    moves += 1
                else:
                    leaf, high, parent, phigh = self._descend_for_read(key)
                    descents += 1
                fill = leaf.fill
                if leaf.gap != fill:
                    leaf._compact()
                skeys = leaf.skeys
                svals = leaf.svals
                idx = 0
            idx = bisect_left(skeys, key, idx, fill)
            if idx < fill and skeys[idx] == key:
                out[pos] = svals[idx]
        stats = self.stats
        stats.read_batches += 1
        stats.read_redescents += descents
        stats.read_chain_hits += n - descents
        stats.node_accesses += descents * self._height + moves
        stats.leaf_accesses += descents + moves
        return out

    def _descend_for_read(self, key: Key) -> _ReadCursor:
        """Root-to-leaf descent for the batched reads, returning the
        :data:`_ReadCursor` of the leaf that would contain ``key``.
        Counts nothing; the callers do."""
        node = self._root
        parent: Optional[InternalNode] = None
        high: Optional[Key] = None
        phigh: Optional[Key] = None
        while not node.is_leaf:
            parent = node  # type: ignore[assignment]
            pkeys = parent.keys
            idx = bisect_right(pkeys, key)
            phigh = high
            if idx < len(pkeys):
                high = pkeys[idx]
            node = parent.children[idx]
        return node, high, parent, phigh  # type: ignore[return-value]

    def _probe_leaf_for_read(
        self, key: Key, cursor: Optional[_ReadCursor] = None
    ) -> _ReadCursor:
        """Per-probe form of :meth:`get_many`'s routing, for wrappers
        (duplicates) that batch composite-key probes.

        ``cursor`` is what this method returned for the previous probe;
        the result's first item is the leaf that would contain ``key``.
        Only valid for *ascending* probe sequences: routing never moves
        left, so an out-of-order probe would silently read the wrong
        leaf.  Counts like :meth:`get_many`, one ``read_chain_hits`` or
        ``read_redescents`` per probe.
        """
        stats = self.stats
        if cursor is not None:
            _, high, parent, phigh = cursor
            if high is None or key < high:
                stats.read_chain_hits += 1
                return cursor
            if parent is not None and (phigh is None or key < phigh):
                pkeys = parent.keys
                idx = bisect_right(pkeys, key)
                stats.read_chain_hits += 1
                stats.node_accesses += 1
                stats.leaf_accesses += 1
                return (
                    parent.children[idx],  # type: ignore[return-value]
                    pkeys[idx] if idx < len(pkeys) else phigh,
                    parent,
                    phigh,
                )
        stats.read_redescents += 1
        stats.node_accesses += self._height
        stats.leaf_accesses += 1
        return self._descend_for_read(key)

    def _leaf_slices(
        self, start: Key, end: Key, exclusive: bool = False
    ) -> Generator[LeafSlice, None, None]:
        """The one leaf-chain walk behind every range read (§4.4).

        Yields ``(keys, values, lo, hi)`` for each non-empty leaf it
        reads: the leaf's slot arrays and the bounds of its entries with
        ``start <= key < end`` (``start < key`` when ``exclusive``),
        possibly none on a boundary leaf.  One descent positions on the
        first leaf with a bisect; the chain is then walked leaf by leaf,
        interior leaves recognized with a single ``max_key < end``
        comparison, so only the boundary leaves pay a bisect.  The leaf
        search is inlined as in :meth:`get`.  The descent counts as in
        :meth:`_find_leaf`, and every leaf stepped into after it adds
        one node and one leaf access; callers count their own
        ``range_lookups``.
        """
        if start >= end:
            return
        stats = self.stats
        leaf: Optional[LeafNode] = self._find_leaf(start)
        fill = leaf.fill
        if leaf.gap != fill:
            leaf._compact()
        lk = leaf.skeys
        if exclusive:
            lo = bisect_right(lk, start, 0, fill)
        else:
            lo = bisect_left(lk, start, 0, fill)
        while True:
            if fill:
                if lk[fill - 1] < end:
                    yield lk, leaf.svals, lo, fill
                else:
                    yield lk, leaf.svals, lo, bisect_left(lk, end, lo, fill)
                    return
            leaf = leaf.next
            if leaf is None:
                return
            stats.node_accesses += 1
            stats.leaf_accesses += 1
            fill = leaf.fill
            if leaf.gap != fill:
                leaf._compact()
            lk = leaf.skeys
            lo = 0

    def range_query(self, start: Key, end: Key) -> list[tuple[Key, Any]]:
        """All entries with ``start <= key < end`` in key order (§4.4):
        one slice per leaf of :meth:`_leaf_slices`."""
        self.stats.range_lookups += 1
        out: list[tuple[Key, Any]] = []
        for lk, lv, lo, hi in self._leaf_slices(start, end):
            out += zip(lk[lo:hi], lv[lo:hi])
        return out

    def range_iter(self, start: Key, end: Key) -> Iterator[tuple[Key, Any]]:
        """Lazily yield entries with ``start <= key < end`` in key order.

        Generator analogue of :meth:`range_query`.  Nothing is
        materialized, so callers can abandon the scan early ("next N
        after K" queries); each leaf's slice is copied as the walk
        enters the leaf, so in-place mutation of *other* leaves during
        iteration is tolerated.
        """
        self.stats.range_lookups += 1
        for lk, lv, lo, hi in self._leaf_slices(start, end):
            yield from zip(lk[lo:hi], lv[lo:hi])

    def range_page(
        self, start: Key, end: Key, limit: int, exclusive: bool = False
    ) -> tuple[list[Key], list[Any], bool]:
        """One bounded page of a range read: the first ``limit`` entries
        with ``start <= key < end`` (``start < key`` when ``exclusive``)
        as ``(keys, values, done)`` columns.

        ``done`` is exact: True iff no entry of the range lies past the
        page.  Each leaf contributes one slice per column, so building a
        page touches no entry in Python (the served ``SCAN`` packs the
        columns straight onto the wire).
        """
        self.stats.range_lookups += 1
        return page_from_slices(
            self._leaf_slices(start, end, exclusive), limit
        )

    def count_range(self, start: Key, end: Key) -> int:
        """Number of entries in ``[start, end)`` without materializing
        them: each leaf adds the length of its slice."""
        self.stats.range_lookups += 1
        total = 0
        for _, _, lo, hi in self._leaf_slices(start, end):
            total += hi - lo
        return total

    def update(self, items: Iterable[tuple[Key, Any]]) -> None:
        """Insert every ``(key, value)`` pair (dict-style bulk upsert)."""
        insert = self.insert
        for key, value in items:
            insert(key, value)

    def delete_range(self, start: Key, end: Key) -> int:
        """Delete every entry with ``start <= key < end``; returns the
        number of entries removed."""
        victims = [k for k, _ in self.range_iter(start, end)]
        for key in victims:
            self.delete(key)
        return len(victims)

    # ------------------------------------------------------------------
    # Deletes
    # ------------------------------------------------------------------

    def delete(self, key: Key) -> bool:
        """Delete ``key``; returns True when the key existed (§4.4)."""
        self.stats.deletes += 1
        leaf = self._find_leaf(key, count=False)
        idx = leaf.find(key)
        if idx is None:
            return False
        leaf.remove_at(idx)
        self._size -= 1
        self._on_entry_deleted(leaf, key)
        if leaf.parent is not None and not self._skip_eager_rebalance(leaf):
            if leaf.size < self._min_leaf_fill():
                self._rebalance_leaf(leaf)
        self._after_delete()
        return True

    def _min_leaf_fill(self) -> int:
        return self.config.leaf_capacity // 2

    def _min_internal_fill(self) -> int:
        return max(2, self.config.internal_capacity // 2)

    def _skip_eager_rebalance(self, leaf: LeafNode) -> bool:
        """QuIT overrides this: deletes in ``pole`` skip eager rebalance."""
        return False

    def _on_entry_deleted(self, leaf: LeafNode, key: Key) -> None:
        """Hook: an entry was just removed from ``leaf``."""

    def _on_leaf_removed(self, leaf: LeafNode, merged_into: LeafNode) -> None:
        """Hook: ``leaf`` was merged away into ``merged_into``."""

    def _after_delete(self) -> None:
        """Hook: a delete (and any rebalancing) finished."""

    def _rebalance_leaf(self, leaf: LeafNode) -> None:
        """Restore the min-fill invariant for an underfull ``leaf`` by
        borrowing from a same-parent sibling or merging with one."""
        parent = leaf.parent
        if parent is None:
            return
        idx = parent.index_of_child(leaf, self.stats)
        min_fill = self._min_leaf_fill()
        left = parent.children[idx - 1] if idx > 0 else None
        right = (
            parent.children[idx + 1]
            if idx + 1 < len(parent.children)
            else None
        )
        if left is not None and left.size > min_fill:
            self._borrow_from_left_leaf(parent, idx, left, leaf)
            return
        if right is not None and right.size > min_fill:
            self._borrow_from_right_leaf(parent, idx, leaf, right)
            return
        if left is not None:
            self._merge_leaves(parent, idx - 1, left, leaf)
        elif right is not None:
            self._merge_leaves(parent, idx, leaf, right)

    def _borrow_from_left_leaf(
        self, parent: InternalNode, idx: int, left: LeafNode, leaf: LeafNode
    ) -> None:
        key, value = left.remove_at(left.size - 1)
        leaf.insert_entry(key, value)
        parent.keys[idx - 1] = key

    def _borrow_from_right_leaf(
        self, parent: InternalNode, idx: int, leaf: LeafNode, right: LeafNode
    ) -> None:
        key, value = right.remove_at(0)
        leaf.append_entry(key, value)
        parent.keys[idx] = right.min_key

    def _merge_leaves(
        self,
        parent: InternalNode,
        sep_idx: int,
        left: LeafNode,
        right: LeafNode,
    ) -> None:
        """Fold ``right`` into ``left`` and drop the separator at
        ``sep_idx``; propagates underflow upward."""
        rk, rv, rn = right.view()
        left.extend_entries(rk[:rn], rv[:rn])
        left.next = right.next
        if right.next is not None:
            right.next.prev = left
        if right is self._tail:
            self._tail = left
        parent.keys.pop(sep_idx)
        parent.children.pop(sep_idx + 1)
        self._on_leaf_removed(right, left)
        self._shrink_or_rebalance_internal(parent)

    def _shrink_or_rebalance_internal(self, node: InternalNode) -> None:
        if node.parent is None:
            if len(node.children) == 1:
                self._root = node.children[0]
                self._root.parent = None
                self._height -= 1
            return
        if node.size < self._min_internal_fill():
            self._rebalance_internal(node)

    def _rebalance_internal(self, node: InternalNode) -> None:
        parent = node.parent
        if parent is None:
            raise TreeInvariantError(
                "_rebalance_internal called on a parentless node"
            )
        idx = parent.index_of_child(node, self.stats)
        min_fill = self._min_internal_fill()
        left = parent.children[idx - 1] if idx > 0 else None
        right = (
            parent.children[idx + 1]
            if idx + 1 < len(parent.children)
            else None
        )
        if left is not None and left.size > min_fill:
            # Rotate through the parent: parent separator comes down, the
            # left sibling's last key goes up.
            node.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child = left.children.pop()
            child.parent = node
            node.children.insert(0, child)
            return
        if right is not None and right.size > min_fill:
            node.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child = right.children.pop(0)
            child.parent = node
            node.children.append(child)
            return
        if left is not None:
            self._merge_internals(parent, idx - 1, left, node)
        elif right is not None:
            self._merge_internals(parent, idx, node, right)

    def _merge_internals(
        self,
        parent: InternalNode,
        sep_idx: int,
        left: InternalNode,
        right: InternalNode,
    ) -> None:
        left.keys.append(parent.keys[sep_idx])
        left.keys.extend(right.keys)
        for child in right.children:
            child.parent = left
        left.children.extend(right.children)
        parent.keys.pop(sep_idx)
        parent.children.pop(sep_idx + 1)
        self._shrink_or_rebalance_internal(parent)

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------

    def bulk_load(
        self,
        items: Iterable[tuple[Key, Any]],
        fill_factor: float = 1.0,
    ) -> None:
        """Load sorted, unique ``(key, value)`` pairs into an *empty* tree.

        Leaves are packed to ``fill_factor`` of capacity and the internal
        levels are built bottom-up.
        """
        if self._size:
            raise ValueError("bulk_load requires an empty tree")
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError(f"fill_factor must be in (0, 1], got {fill_factor}")
        pairs = list(items)
        if not pairs:
            return
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a >= b:
                raise ValueError("bulk_load input must be strictly sorted")
        per_leaf = max(1, int(self.config.leaf_capacity * fill_factor))
        leaves: list[LeafNode] = []
        for i in range(0, len(pairs), per_leaf):
            leaf = self._new_leaf()
            chunk = pairs[i: i + per_leaf]
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            if leaves:
                leaves[-1].next = leaf
                leaf.prev = leaves[-1]
            leaves.append(leaf)
        # Avoid leaving a lonely sub-min-fill last leaf: steal from its
        # predecessor so deletes keep their invariants.  Whole-list
        # reassignment (not in-place splicing) so the leaf's bridge
        # setters repack correctly.
        if len(leaves) > 1 and leaves[-1].size < self._min_leaf_fill():
            last, prev = leaves[-1], leaves[-2]
            need = self._min_leaf_fill() - last.size
            move = min(need, prev.size - 1)
            pk, pv = prev.keys, prev.values
            last.keys = pk[-move:] + last.keys
            last.values = pv[-move:] + last.values
            prev.keys = pk[:-move]
            prev.values = pv[:-move]
        self._head = leaves[0]
        self._tail = leaves[-1]
        self._size = len(pairs)
        self._root = self._build_internal_levels(leaves)
        self._height = self._measure_height()

    def _build_internal_levels(self, level: list[Node]) -> Node:
        cap = self.config.internal_capacity
        while len(level) > 1:
            parents: list[Node] = []
            i = 0
            n = len(level)
            while i < n:
                take = min(cap, n - i)
                # Never leave a trailing group of one child.
                if n - i - take == 1:
                    take -= 1
                group = level[i: i + take]
                node = InternalNode()
                node.children = group
                node.keys = [self._subtree_min(c) for c in group[1:]]
                for child in group:
                    child.parent = node
                parents.append(node)
                i += take
            level = parents
        return level[0]

    @staticmethod
    def _subtree_min(node: Node) -> Key:
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
        return node.min_key  # type: ignore[union-attr]

    def _measure_height(self) -> int:
        node = self._root
        height = 1
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
            height += 1
        return height

    def bulk_insert_run(
        self,
        run: list[tuple[Key, Any]],
        fill_factor: float = 1.0,
    ) -> int:
        """Merge a sorted run of entries into the tree, splicing packed
        leaves in place (SWARE's opportunistic bulk load, generalized to
        land anywhere in the key space).

        The run is partitioned at existing pivot boundaries: each segment
        costs one descent, then its target leaf is rebuilt together with
        the segment into leaves packed to ``fill_factor``.  Near-sorted
        flushes produce long segments (few descents); scrambled flushes
        degrade gracefully to one descent per entry, matching the paper's
        observation that SWARE falls back to B+-tree behaviour.

        Returns the number of *new* keys added (duplicates upsert).
        """
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError(f"fill_factor must be in (0, 1], got {fill_factor}")
        for (a, _), (b, _) in zip(run, run[1:]):
            if a >= b:
                raise ValueError("bulk_insert_run input must be strictly sorted")
        added_total = 0
        i = 0
        n = len(run)
        while i < n:
            leaf, _, high = self._descend_for_insert(run[i][0])
            self.stats.bulk_splice_segments += 1
            j = i
            while j < n and (high is None or run[j][0] < high):
                j += 1
            # The segment lies within the leaf's pivot range: one
            # LeafNode.apply_run when it fits, else a rebuild into leaves
            # packed to fill_factor.
            seg_keys = [k for k, _ in run[i:j]]
            seg_vals = [v for _, v in run[i:j]]
            if leaf.size + len(seg_keys) <= self.config.leaf_capacity:
                added = leaf.apply_run(seg_keys, seg_vals)
                self._size += added
            else:
                added, _ = self._apply_run_overflow(
                    leaf, seg_keys, seg_vals, fill_factor
                )
            added_total += added
            i = j
        self._after_bulk_splice()
        return added_total

    def _apply_run_overflow(
        self,
        leaf: LeafNode,
        seg_keys: list[Key],
        seg_vals: list[Any],
        fill_factor: float,
    ) -> tuple[int, LeafNode]:
        """Overflow path of a sorted-run segment that does not fit in
        ``leaf`` (:meth:`bulk_insert_run`, :meth:`_insert_run`): merge it with
        the segment and rebuild the result into leaves packed to
        ``fill_factor`` — full right siblings are built directly,
        bulk-load style, instead of splitting repeatedly."""
        merged_keys, merged_vals, added = merge_run(
            leaf.keys, leaf.values, seg_keys, seg_vals
        )
        self._size += added
        if len(merged_keys) <= self.config.leaf_capacity:
            leaf.keys = merged_keys
            leaf.values = merged_vals
            return added, leaf
        per_leaf = max(2, int(self.config.leaf_capacity * fill_factor))
        cuts = list(range(per_leaf, len(merged_keys), per_leaf))
        # Keep the last chunk at or above min fill by moving the final cut.
        if cuts and len(merged_keys) - cuts[-1] < self._min_leaf_fill():
            cuts[-1] = max(
                cuts[-1] - (self._min_leaf_fill() - (len(merged_keys) - cuts[-1])),
                (cuts[-2] + 1) if len(cuts) > 1 else 1,
            )
        bounds = [0, *cuts, len(merged_keys)]
        leaf.keys = merged_keys[: bounds[1]]
        leaf.values = merged_vals[: bounds[1]]
        prev = leaf
        for lo, hi in zip(bounds[1:], bounds[2:]):
            node = self._new_leaf()
            node.keys = merged_keys[lo:hi]
            node.values = merged_vals[lo:hi]
            node.next = prev.next
            node.prev = prev
            if prev.next is not None:
                prev.next.prev = node
            prev.next = node
            if prev is self._tail:
                self._tail = node
            self.stats.leaf_splits += 1
            self._insert_into_parent(prev, merged_keys[lo], node)
            prev = node
        return added, prev

    def _after_bulk_splice(self) -> None:
        """Hook: a bulk splice finished (fast-path variants refresh their
        cached bounds here)."""

    # ------------------------------------------------------------------
    # Batched ingest
    # ------------------------------------------------------------------

    def insert_many(
        self,
        items: Iterable[tuple[Key, Any]],
        fill_factor: float = BATCH_FILL_FACTOR,
    ) -> int:
        """Batched upsert: equivalent to ``for k, v in items: insert(k, v)``
        but with the per-key interpreter overhead amortized away.

        The batch is scanned once and carved into maximal non-decreasing
        runs (:func:`repro.core.batch.carve_runs`); each run is placed
        with at most one descent per pivot-bounded segment, and each
        segment lands in its leaf with one slice assignment instead of
        per-key bisect + ``list.insert`` calls.  Run-driven overflows
        build right siblings packed to ``fill_factor`` directly
        (bulk-load style) rather than splitting repeatedly.  Fast-path
        variants serve a segment straight from their ``tail``/``lil``/
        ``pole`` pointer when the run starts in range, skipping even the
        descent.

        ``fill_factor`` defaults to :data:`BATCH_FILL_FACTOR` rather than
        1.0: leaves rebuilt completely full overflow again on the very
        next run that lands in them, so a little headroom buys fewer
        merge-and-rebuild cycles across batches (and a leaf occupancy
        close to a per-key-built tree's steady state).  Pass 1.0 for
        final, read-mostly batches.

        A fragmented batch (average detected run much shorter than a
        leaf) is *coalesced* first: the items are stable-sorted by key —
        Timsort merges the very runs the detector counted, at C speed —
        and applied as a single run.  Stable sort keeps duplicate keys in
        arrival order, so last-write-wins semantics are preserved
        exactly.  Batches whose runs are long are applied in arrival
        order without sorting, which is the paper-aligned path: intrinsic
        sortedness is exploited, not manufactured.

        Unlike :meth:`bulk_load` the tree may be non-empty and the batch
        arbitrary: unsorted input, duplicate keys (the latest occurrence
        wins) and keys already present (upsert) are all honoured.
        Returns the number of *new* keys added.
        """
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError(f"fill_factor must be in (0, 1], got {fill_factor}")
        stats = self.stats
        items, n_runs = probe_runs(items)
        if n_runs > 1 and 2 * len(items) < self.config.leaf_capacity * n_runs:
            # Sort by key only (itemgetter), never by value — values may
            # not be comparable, and key-only sorting is what keeps the
            # sort stable w.r.t. arrival order of duplicates.
            items = sorted(items, key=_key_of)
            stats.batch_coalesced += 1
        added = 0
        hint: Optional[tuple[LeafNode, Optional[Key], Optional[Key]]] = None
        for run_keys, run_vals in carve_runs(items):
            stats.batch_runs += 1
            stats.batch_inserts += len(run_keys)
            run_added, hint = self._insert_run(
                run_keys, run_vals, fill_factor, hint
            )
            added += run_added
        return added

    def _insert_run(
        self,
        run_keys: list[Key],
        run_vals: list[Any],
        fill_factor: float = BATCH_FILL_FACTOR,
        hint: Optional[tuple[LeafNode, Optional[Key], Optional[Key]]] = None,
    ) -> tuple[int, Optional[tuple[LeafNode, Optional[Key], Optional[Key]]]]:
        """Apply one strictly-increasing run, segmenting it at existing
        pivot boundaries (each segment = one target leaf).

        Only the run's first segment pays a descent (or a fast-path hit);
        a run that continues past a leaf's upper bound is chained along
        the leaf list — the leaves partition the key space in order, so
        the chain successor of the leaf that absorbed a segment is the
        target for keys starting at its upper bound.

        ``hint`` is the batch-local frontier: the rightmost ``(leaf, low,
        high)`` touched by earlier runs of the same ``insert_many`` call.
        A near-sorted stream breaks a run with one backward outlier and
        then resumes right where the previous run left off, so trying the
        frontier before descending turns the common two-descents-per-
        outlier pattern into one.  The hint is only valid while nothing
        else mutates the tree, which holds within a single ``insert_many``
        call; callers that release locks between runs (the concurrent
        wrapper) must pass ``hint=None`` each time.

        Returns ``(added, hint)`` — the number of new keys added and the
        updated frontier for the next run.
        """
        # Hot loop: locals are hoisted and the fits-in-leaf case (the vast
        # majority of segments) is inlined rather than routed through
        # a helper — per-segment call overhead is exactly the cost this
        # path exists to amortize.
        cap = self.config.leaf_capacity
        added = 0
        i = 0
        n = len(run_keys)
        leaf: Optional[LeafNode] = None
        low: Optional[Key] = None
        high: Optional[Key] = None
        last_leaf: Optional[LeafNode] = None
        if hint is not None:
            h_leaf, h_low, h_high = hint
        else:
            h_leaf = h_low = h_high = None
        segments = 0
        chained = 0
        while i < n:
            if leaf is None:
                k0 = run_keys[i]
                target = self._run_target_from_fp(k0)
                if target is not None:
                    leaf, low, high = target
                elif (
                    h_leaf is not None
                    and (h_low is None or k0 >= h_low)
                    and (h_high is None or k0 < h_high)
                ):
                    leaf, low, high = h_leaf, h_low, h_high
                    chained += 1
                else:
                    leaf, low, high = self._descend_for_insert(k0)
            segments += 1
            j = n if high is None else bisect_left(run_keys, high, i)
            if i == 0 and j == n:
                seg_keys, seg_vals = run_keys, run_vals
            else:
                seg_keys, seg_vals = run_keys[i:j], run_vals[i:j]
            if leaf.size + len(seg_keys) <= cap:
                seg_added = leaf.apply_run(seg_keys, seg_vals)
                self._size += seg_added
                last_leaf = leaf
            else:
                seg_added, last_leaf = self._apply_run_overflow(
                    leaf, seg_keys, seg_vals, fill_factor
                )
                if last_leaf is not leaf:
                    # The overflow rebuilt the leaf into packed siblings;
                    # last_leaf is the rightmost piece and its first key
                    # is exactly the separator that bounds it below.
                    low = last_leaf.min_key
                    # If the rebuilt leaf was the fast-path leaf, its
                    # cached bounds now overreach the leftmost piece, and
                    # a later segment of this run reached through
                    # _run_target_from_fp would land above its pivot.
                    self._after_bulk_splice()
            # Track the frontier.  Long segments are the in-order bulk of
            # the stream — where the next run will resume — while short
            # segments are typically displaced outliers that should not
            # steal the hint.  A short segment that lands in the hint
            # leaf itself must still refresh it: an overflow rebuild
            # narrows the leaf's bounds.
            if (
                j - i >= _HINT_MIN_SEGMENT
                or h_leaf is None
                or leaf is h_leaf
                or last_leaf is h_leaf
            ):
                h_leaf, h_low, h_high = last_leaf, low, high
            added += seg_added
            i = j
            leaf = None
            if i < n:
                # The run continues past this leaf's range; its chain
                # successor is the target for the next keys.  The
                # successor's pivot bounds would cost a parent walk, so
                # use O(1) conservative content bounds instead: a key
                # between the successor's current smallest and largest
                # keys is provably inside its pivot range.  The rightmost
                # leaf is unbounded above, so for it only the lower check
                # applies.  Keys in the gaps between content bounds and
                # true pivot bounds fall back to a descent, which routes
                # them correctly.
                nxt = last_leaf.next
                if nxt is not None:
                    nxt_keys, _, nxt_n = nxt.view()
                    if nxt_n and run_keys[i] >= nxt_keys[0]:
                        if nxt.next is None:
                            leaf = nxt
                            low = nxt_keys[0]
                            high = None
                            chained += 1
                        elif run_keys[i] < nxt_keys[nxt_n - 1]:
                            leaf = nxt
                            low = nxt_keys[0]
                            high = nxt_keys[nxt_n - 1]
                            chained += 1
        stats = self.stats
        stats.batch_segments += segments
        stats.batch_chained_segments += chained
        if last_leaf is not None:
            self._after_insert_run(last_leaf)
        if h_leaf is None:
            return added, None
        return added, (h_leaf, h_low, h_high)

    def _run_target_from_fp(
        self, key: Key
    ) -> Optional[tuple[LeafNode, Optional[Key], Optional[Key]]]:
        """Target leaf (plus pivot bounds) for a run starting at ``key``,
        when the variant's fast-path pointer can serve it without a
        descent.  The classical tree has no such pointer."""
        return None

    def _after_insert_run(self, last_leaf: LeafNode) -> None:
        """Hook: a run was applied and its largest key landed in
        ``last_leaf``.  Fast-path variants retarget their pointer here —
        once per run, not per key."""

    # ------------------------------------------------------------------
    # Iteration and introspection
    # ------------------------------------------------------------------

    def leaves(self) -> Iterator[LeafNode]:
        """Iterate leaves left to right."""
        leaf: Optional[LeafNode] = self._head
        while leaf is not None:
            yield leaf
            leaf = leaf.next

    def items(self) -> Iterator[tuple[Key, Any]]:
        """Iterate all entries in key order."""
        for leaf in self.leaves():
            yield from leaf.items()

    def iter_from(self, start: Key) -> Iterator[tuple[Key, Any]]:
        """Iterate entries with ``key >= start`` in key order.

        The cursor API for open-ended scans: one descent to position,
        then the leaf chain.  Unlike :meth:`range_query` nothing is
        materialized, so callers can stop early for "next N after K"
        queries.
        """
        leaf: Optional[LeafNode] = self._find_leaf(start)
        first = True
        while leaf is not None:
            if first:
                for k, v in leaf.items():
                    if k >= start:
                        yield k, v
                first = False
            else:
                yield from leaf.items()
            leaf = leaf.next

    def keys(self) -> Iterator[Key]:
        """Iterate all keys in order."""
        for k, _ in self.items():
            yield k

    def min_key(self) -> Optional[Key]:
        """Smallest key, or None when empty."""
        return self._head.min_key if self._head.size else None

    def max_key(self) -> Optional[Key]:
        """Largest key, or None when empty."""
        return self._tail.max_key if self._tail.size else None

    def occupancy(self) -> OccupancyStats:
        """Leaf-occupancy summary (Fig. 10a / Fig. 11 metric)."""
        stats = OccupancyStats(capacity=self.config.leaf_capacity)
        occs: list[float] = []
        for leaf in self.leaves():
            stats.leaf_count += 1
            stats.entries += leaf.size
            occs.append(leaf.size / self.config.leaf_capacity)
        stats.internal_count = self._count_internal(self._root)
        if occs:
            stats.min_occupancy = min(occs)
            stats.max_occupancy = max(occs)
        return stats

    def _count_internal(self, node: Node) -> int:
        if node.is_leaf:
            return 0
        internal: InternalNode = node  # type: ignore[assignment]
        return 1 + sum(self._count_internal(c) for c in internal.children)

    def memory_bytes(self) -> int:
        """Estimated footprint assuming fixed-size pages (Table 2 metric).

        Like a paged system, every node occupies a full page regardless of
        fill, so footprint is proportional to node count.
        """
        occ = self.occupancy()
        leaf_page = (
            NODE_HEADER_BYTES + self.config.leaf_capacity * ENTRY_BYTES
        )
        internal_page = (
            NODE_HEADER_BYTES + self.config.internal_capacity * PIVOT_BYTES
        )
        return occ.leaf_count * leaf_page + occ.internal_count * internal_page

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(
        self, check_min_fill: bool = True, report: bool = False
    ) -> Optional[list[str]]:
        """Check every structural invariant.

        With ``report=False`` (default) the first violation raises
        :class:`TreeInvariantError`; with ``report=True`` nothing raises
        — every violated invariant is collected and the list returned
        (empty for a healthy tree), which is what ``scrub()`` and
        operator tooling consume.  Violations are raised explicitly (not
        via ``assert``), so validation also works under ``python -O``.

        ``check_min_fill=False`` relaxes the leaf minimum-fill bound
        (QuIT's variable split intentionally creates small leaves).
        """
        errors: Optional[list[str]] = [] if report else None
        self._invariant(
            self._root.parent is None, "root must have no parent", errors
        )
        leaves_via_tree: list[LeafNode] = []
        count = self._validate_node(
            self._root, None, None, self._height, check_min_fill,
            leaves_via_tree, errors,
        )
        self._invariant(
            count == self._size,
            f"size mismatch: counted {count}, recorded {self._size}",
            errors,
        )
        # The chain walk bounds its own length: a corrupt ``next`` link
        # could form a cycle, and report mode must terminate anyway.
        chain: list[LeafNode] = []
        leaf: Optional[LeafNode] = self._head
        limit = 2 * len(leaves_via_tree) + 2
        while leaf is not None and len(chain) <= limit:
            chain.append(leaf)
            leaf = leaf.next
        if leaf is not None:
            self._invariant(
                False, "leaf chain longer than the tree (cycle?)", errors
            )
        self._invariant(
            [id(x) for x in chain] == [id(x) for x in leaves_via_tree],
            "leaf chain does not match tree order",
            errors,
        )
        if chain:
            self._invariant(
                chain[0] is self._head, "head pointer astray", errors
            )
            self._invariant(
                chain[-1] is self._tail, "tail pointer astray", errors
            )
        for a, b in zip(chain, chain[1:]):
            self._invariant(b.prev is a, "broken prev link", errors)
        flat = [k for lf in chain for k in lf.keys]
        self._invariant(
            flat == sorted(set(flat)), "global key order violated", errors
        )
        self._invariant(
            self._height == self._measure_height(), "height drifted", errors
        )
        return errors

    def check(self, check_min_fill: bool = True) -> list[str]:
        """Non-raising validation: the list of violated invariants.

        Unlike :meth:`validate`, which stops at the first violation,
        this surveys the whole structure — an operator diagnosing a
        recovered tree wants every problem, not the first.
        """
        result = self.validate(check_min_fill=check_min_fill, report=True)
        if result is None:
            raise TreeInvariantError("validate(report=True) returned None")
        return result

    @staticmethod
    def _invariant(
        cond: bool, message: str, errors: Optional[list[str]]
    ) -> bool:
        """Raise ``TreeInvariantError`` (or collect into ``errors``)."""
        if cond:
            return True
        if errors is None:
            raise TreeInvariantError(message)
        errors.append(message)
        return False

    def _validate_node(
        self,
        node: Node,
        low: Optional[Key],
        high: Optional[Key],
        depth: int,
        check_min_fill: bool,
        leaves_out: list[LeafNode],
        errors: Optional[list[str]],
    ) -> int:
        require = self._invariant
        keys = node.keys
        require(
            all(a < b for a, b in zip(keys, keys[1:])),
            f"unsorted keys in {node!r}",
            errors,
        )
        if keys:
            if low is not None:
                require(
                    keys[0] >= low, f"key below lower pivot in {node!r}",
                    errors,
                )
            if high is not None:
                require(
                    keys[-1] < high, f"key above upper pivot in {node!r}",
                    errors,
                )
        if node.is_leaf:
            leaf: LeafNode = node  # type: ignore[assignment]
            require(depth == 1, "leaves must share one level", errors)
            require(
                len(leaf.skeys) == len(leaf.svals),
                f"slot slab length mismatch in {leaf!r}",
                errors,
            )
            require(
                0 <= leaf.fill <= len(leaf.skeys),
                f"fill outside slot slab in {leaf!r}",
                errors,
            )
            require(
                0 <= leaf.gap <= leaf.fill,
                f"gap cursor outside live range in {leaf!r}",
                errors,
            )
            require(
                len(leaf.skeys) >= self.config.leaf_capacity,
                f"slot slab below capacity in {leaf!r}",
                errors,
            )
            require(
                leaf.size <= self.config.leaf_capacity,
                f"leaf {leaf!r} above capacity",
                errors,
            )
            if check_min_fill and leaf.parent is not None:
                require(
                    leaf.size >= self._min_leaf_fill(),
                    f"leaf {leaf!r} below min fill",
                    errors,
                )
            leaves_out.append(leaf)
            return leaf.size
        internal: InternalNode = node  # type: ignore[assignment]
        require(
            len(internal.children) == len(internal.keys) + 1,
            f"child/separator count mismatch in {internal!r}",
            errors,
        )
        require(
            internal.size <= self.config.internal_capacity + 1,
            f"internal {internal!r} above capacity",
            errors,
        )
        if internal.parent is not None:
            require(
                internal.size >= 2, "internal node with < 2 children",
                errors,
            )
        total = 0
        for i, child in enumerate(internal.children):
            require(
                child.parent is internal, "broken parent pointer", errors
            )
            child_low = internal.keys[i - 1] if i > 0 else low
            child_high = (
                internal.keys[i] if i < len(internal.keys) else high
            )
            total += self._validate_node(
                child, child_low, child_high, depth - 1, check_min_fill,
                leaves_out, errors,
            )
        return total

    # ------------------------------------------------------------------
    # Scrubbing (post-recovery hygiene)
    # ------------------------------------------------------------------

    def scrub(self) -> "ScrubReport":
        """Verify derived/auxiliary state and repair what can be reset.

        The classical tree keeps no fast-path metadata, so its scrub
        only audits the ``head``/``tail`` chain endpoints (repairable by
        rescanning the chain).  Fast-path variants extend this with
        ``lil``/``pole``/``tail`` pointer checks — see
        :meth:`repro.core.fastpath.FastPathTree.scrub`.  Structural
        damage (which scrubbing cannot repair) is reported via
        :meth:`check`, not here.
        """
        report = ScrubReport(variant=self.name)
        self.stats.scrub_checks += 1
        leaf: Optional[LeafNode] = self._head
        last = leaf
        hops = 0
        while leaf is not None and leaf.next is not None:
            last = leaf.next
            leaf = leaf.next
            hops += 1
            if hops > 2 * self._size + 2:  # cycle: unrepairable here
                report.issues.append("leaf chain does not terminate")
                return report
        if last is not self._tail:
            report.issues.append("tail pointer does not end the chain")
            self._tail = last  # type: ignore[assignment]
            report.repairs += 1
            self.stats.scrub_resets += 1
        return report


class _Missing:
    """Sentinel distinguishing "absent" from a stored None value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
