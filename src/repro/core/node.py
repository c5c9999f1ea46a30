"""Node structures shared by every tree variant.

The trees in this package follow the textbook B+-tree layout the paper
builds on: internal nodes hold pivot keys and child pointers, leaf nodes
hold the actual entries and are chained into a doubly-linked list for range
scans.  Nodes carry parent pointers; DESIGN.md (system S7) documents that
this realizes the paper's ``fp_path[]`` metadata — a split reaches every
ancestor of the fast-path leaf through the parent chain instead of a cached
root-to-leaf path.

Leaves are gapped slot arrays (DESIGN.md §9, "Gapped leaf"): entries
occupy pre-sized slot arrays whose free slots form a gap pool.  An
in-order insert *claims* the next gap slot with a plain store instead of
growing a list, and leaf rebuilds (splits, run overflows, bulk loads)
re-establish the pool.  For uniform ``int`` / ``float`` key domains the
key slots are backed by a typed ``array`` (8-byte machine values instead
of boxed objects), auto-detected at rebuild time with a clean demotion
back to object lists when a non-conforming key shows up.

Read paths use :meth:`LeafNode.view` — ``(keys, values, n)`` with entries
live at indices ``[0, n)`` — so they scan the slot arrays without
copying.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right
from typing import Any, ClassVar, Iterator, Optional, Sequence, Union

from .batch import merge_run
from .stats import TreeStats

_node_ids = itertools.count(1)

Key = Any

#: Slot storage for gapped keys: an object list or a typed array.
KeySlots = Union["list[Key]", "array[int]", "array[float]"]

#: Sink for the leaf counters of leaves constructed outside a tree (unit
#: tests, ad-hoc scripts).  Trees pass their own ``TreeStats`` instead.
_DETACHED_STATS = TreeStats()


class Node:
    """Common base for leaf and internal nodes."""

    __slots__ = ("parent", "node_id")

    #: Sorted pivot keys (internal) or entry keys (leaf).  Internal
    #: nodes store a plain list; :class:`LeafNode` serves a packed copy
    #: of its live slot prefix through a property.
    keys: list[Key]

    #: True on :class:`LeafNode`, False on :class:`InternalNode`.  A plain
    #: class attribute rather than a property, so the per-level test of
    #: every descent is an attribute load, not a descriptor call.
    is_leaf: ClassVar[bool]

    def __init__(self) -> None:
        self.parent: Optional["InternalNode"] = None
        self.node_id: int = next(_node_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "Leaf" if self.is_leaf else "Internal"
        head = self.keys[:4]
        ell = "..." if len(self.keys) > 4 else ""
        return f"<{kind}#{self.node_id} n={len(self.keys)} keys={head}{ell}>"


class LeafNode(Node):
    """A leaf node: a gapped slot array (BS-tree style) with a
    *migrating gap cursor*, plus chain links to the neighboring leaves.

    The slab holds ``fill`` live entries plus ``len(skeys) - fill`` gap
    slots.  The gap slots sit **together at the last insertion point**:
    entries occupy ``[0, gap)`` and ``[gap + glen, len(skeys))`` with the
    gap at ``[gap, gap + glen)`` (``glen = len(skeys) - fill``).  Gap
    slots hold junk (for typed arrays: a repeated live key, so every slot
    stays typecode-valid).  Invariants:

    * the live entries, read around the gap, are strictly increasing and
      ``len(svals) == len(skeys)``;
    * ``0 <= gap <= fill``; ``gap == fill`` means the gap pool is at the
      tail and the live entries are contiguous in ``[0, fill)``
      (the *compacted* state every read and rebuild operates in);
    * ``len(skeys) >= capacity`` at all times (the constructor pre-sizes
      the slab and every rebuild re-pads).

    An insert that lands exactly at the cursor — the overwhelmingly
    common case on near-sorted streams, where each leaf absorbs an
    ascending run just left of its displaced tail keys — is **two
    comparisons and two slot stores**: no bisect, no shift.  An insert
    elsewhere closes the gap (one C-level slice move), bisects, and
    re-opens the gap at the new position, so the cursor migrates to
    wherever the run is landing.  Reads compact lazily the same way;
    rebuilds (:meth:`split_at`, run overflows, bulk loads) repack the
    live prefix and restore the pool — the leaf's "redistribute".

    When every key being packed is a plain ``int`` (within int64) or a
    plain ``float``, the key slab is a typed ``array('q')``/``array('d')``
    — 8 bytes per slot instead of a pointer to a boxed object.  A later
    key that does not fit (other type, overflow) demotes the slab to an
    object list in place; ``values`` slots are always object lists.
    """

    __slots__ = (
        "skeys", "svals", "fill", "gap", "gap_hi", "stats", "next", "prev"
    )

    is_leaf = True

    def __init__(
        self, capacity: int = 0, stats: Optional[TreeStats] = None
    ) -> None:
        super().__init__()
        self.next: Optional["LeafNode"] = None
        self.prev: Optional["LeafNode"] = None
        self.fill: int = 0
        self.gap: int = 0
        # Cached first live key on the far side of the gap (None when the
        # gap sits at the tail).  The cursor-hit check is then two
        # comparisons — ``skeys[gap - 1] < key < gap_hi`` — without
        # computing the gap's far edge (``len(skeys) - fill + gap``) on
        # every insert.  The near edge needs no cache: ``skeys[gap - 1]``
        # is by construction the last key claimed.
        self.gap_hi: Optional[Key] = None
        self.skeys: KeySlots = [None] * capacity
        self.svals: list[Any] = [None] * capacity
        self.stats: TreeStats = stats if stats is not None else _DETACHED_STATS

    def _compact(self) -> None:
        """Close a migrated gap: slide the suffix entries down so the
        live entries are contiguous in ``[0, fill)`` and the gap pool
        returns to the tail (one C-level slice move per array)."""
        gap = self.gap
        fill = self.fill
        if gap == fill:
            return
        total = len(self.skeys)
        glen = total - fill
        skeys = self.skeys
        skeys[gap:fill] = skeys[gap + glen : total]
        svals = self.svals
        svals[gap:fill] = svals[gap + glen : total]
        # The pool tail keeps duplicate refs of the entries just slid
        # down rather than being re-padded with None: at most a slab's
        # worth of transient pins per leaf, overwritten by later claims.
        self.gap = fill
        self.gap_hi = None

    # ------------------------------------------------------------------
    # Storage bridge: whole-list ``keys`` / ``values`` for cold paths
    # ------------------------------------------------------------------

    @property  # type: ignore[override]
    def keys(self) -> list[Key]:
        """Packed copy of the live keys (read-only bridge for cold paths;
        hot paths use :meth:`view` or the slot arrays directly)."""
        if self.gap != self.fill:
            self._compact()
        live = self.skeys[: self.fill]
        return live if isinstance(live, list) else live.tolist()

    @keys.setter
    def keys(self, new_keys: list[Key]) -> None:
        # Whole-list assignment (bulk load, overflow rebuild) repacks the
        # slab and re-establishes the gap pool.  Compact first so the
        # value slots are contiguous under the new keys.
        if self.gap != self.fill:
            self._compact()
        self._pack_keys(new_keys)

    @property  # type: ignore[override]
    def values(self) -> list[Any]:
        """Packed copy of the live values (read-only bridge)."""
        if self.gap != self.fill:
            self._compact()
        return self.svals[: self.fill]

    @values.setter
    def values(self, new_values: list[Any]) -> None:
        if self.gap != self.fill:
            self._compact()
        svals = list(new_values)
        pad = max(len(self.skeys), len(svals)) - len(svals)
        if pad:
            svals.extend([None] * pad)
        self.svals = svals

    @property
    def typed(self) -> bool:
        """True when the key slab is a typed ``array``."""
        return not isinstance(self.skeys, list)

    def _pack_keys(
        self, new_keys: Sequence[Key], slab: Optional[int] = None
    ) -> None:
        """Repack the key slab from ``new_keys``, padding the tail back up
        to ``slab`` slots (default: the current slab size) — the re-gap
        step."""
        n = len(new_keys)
        slab = max(len(self.skeys) if slab is None else slab, n)
        slots = _typed_slots(new_keys)
        if slots is None:
            slots = list(new_keys)
            slots.extend([None] * (slab - n))
        else:
            self.stats.typed_leaves += 1
            if slab > n:
                slots.extend(slots[-1:] * (slab - n))
        if slab > n:
            self.stats.gap_redistributions += 1
        self.skeys = slots
        self.fill = n
        self.gap = n
        self.gap_hi = None

    def _demote(self) -> None:
        """Fall back from typed key slots to an object list in place."""
        self.skeys = self.skeys.tolist()  # type: ignore[union-attr]
        self.stats.typed_demotions += 1

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of entries currently stored."""
        return self.fill

    @property
    def min_key(self) -> Key:
        """Smallest key in the leaf (the leaf must be non-empty).

        O(1) in any cursor state: the smallest key is ``skeys[0]``
        unless the gap sits at index 0, in which case the live entries
        start just past the gap's far edge — no compaction needed.
        """
        if self.gap:
            return self.skeys[0]
        return self.skeys[len(self.skeys) - self.fill]

    @property
    def max_key(self) -> Key:
        """Largest key in the leaf (the leaf must be non-empty).

        O(1) in any cursor state: with the gap mid-slab the live
        entries extend to the physical end, otherwise they end at
        ``fill`` — no compaction needed.
        """
        fill = self.fill
        if self.gap == fill:
            return self.skeys[fill - 1]
        return self.skeys[len(self.skeys) - 1]

    def view(self) -> tuple[Sequence[Key], Sequence[Any], int]:
        """Zero-copy read view ``(keys, values, n)`` over the slot arrays
        (live entries at ``[0, n)``; the gap-pool tail must not be read).
        """
        if self.gap != self.fill:
            self._compact()
        return self.skeys, self.svals, self.fill

    def find(self, key: Key) -> Optional[int]:
        """Index of ``key`` in this leaf, or None if absent."""
        if self.gap != self.fill:
            self._compact()
        fill = self.fill
        skeys = self.skeys
        idx = bisect_left(skeys, key, 0, fill)
        if idx < fill and skeys[idx] == key:
            return idx
        return None

    def value_at(self, idx: int) -> Any:
        """Value stored at entry index ``idx``, straight from the slot
        array (no packed-copy materialization)."""
        if self.gap != self.fill:
            self._compact()
        return self.svals[idx]

    def items(self) -> Iterator[tuple[Key, Any]]:
        """Iterate the leaf's entries in key order."""
        if self.gap != self.fill:
            self._compact()
        fill = self.fill
        return zip(
            itertools.islice(iter(self.skeys), fill),
            itertools.islice(iter(self.svals), fill),
        )

    # ------------------------------------------------------------------
    # Point mutations
    # ------------------------------------------------------------------

    def insert_entry(self, key: Key, value: Any) -> bool:
        """Insert preserving sort order; True when a new entry was added.

        An insert landing exactly at the gap cursor claims the next gap
        slot with two comparisons and two stores (no bisect, no shift);
        anything else migrates the gap to the new position — a slice
        move proportional to the *distance*, not the leaf size — so the
        cursor follows wherever the run is landing.
        """
        fill = self.fill
        skeys = self.skeys
        if fill < len(skeys):
            gap = self.gap
            if (gap == 0 or skeys[gap - 1] < key) and (
                (hi := self.gap_hi) is None or key < hi
            ):
                try:
                    skeys[gap] = key
                except (TypeError, OverflowError):
                    self._demote()
                    self.skeys[gap] = key
                self.svals[gap] = value
                self.gap = gap + 1
                self.fill = fill + 1
                if hi is not None:
                    # Only mid-leaf claims count: an append (gap at the
                    # tail) needs no shift anyway, so counting it would
                    # just dilute the metric the cursor exists for.
                    self.stats.gap_hits += 1
                return True
            return self._gap_insert(key, value)
        return self._grow_insert(key, value)

    def _gap_insert(self, key: Key, value: Any) -> bool:
        """Cursor-miss insert while gap slots exist: locate the key with
        a two-segment bisect (no compaction), migrate the gap to the
        insertion point — one slice move proportional to the *distance*,
        junk copies left behind in the pool — and claim its first slot."""
        skeys = self.skeys
        svals = self.svals
        fill = self.fill
        gap = self.gap
        glen = len(skeys) - fill
        if gap != 0 and key <= skeys[gap - 1]:
            idx = bisect_left(skeys, key, 0, gap)
            if skeys[idx] == key:
                svals[idx] = value
                return False
            # Slide [idx, gap) right against the gap's far edge.
            skeys[idx + glen : gap + glen] = skeys[idx:gap]
            svals[idx + glen : gap + glen] = svals[idx:gap]
        else:
            phys = bisect_left(skeys, key, gap + glen, len(skeys))
            idx = phys - glen
            if idx < fill and skeys[phys] == key:
                svals[phys] = value
                return False
            if idx > gap:
                # Slide [gap, idx) (physical [gap+glen, idx+glen)) left.
                skeys[gap:idx] = skeys[gap + glen : idx + glen]
                svals[gap:idx] = svals[gap + glen : idx + glen]
        try:
            skeys[idx] = key
        except (TypeError, OverflowError):
            self._demote()
            skeys = self.skeys
            skeys[idx] = key
        svals[idx] = value
        self.gap = idx + 1
        self.gap_hi = skeys[idx + glen] if idx < fill else None
        self.fill = fill + 1
        return True

    def _grow_insert(self, key: Key, value: Any) -> bool:
        """Insert with the slab exhausted (over-capacity leaf): compact
        (a no-op unless mid-gap) and grow the slab in place."""
        self._compact()
        skeys = self.skeys
        fill = self.fill
        idx = bisect_left(skeys, key, 0, fill)
        if idx < fill and skeys[idx] == key:
            self.svals[idx] = value
            return False
        if idx == fill:
            self._append_grow(key, value)
            return True
        try:
            skeys.insert(idx, key)
        except (TypeError, OverflowError):
            self._demote()
            skeys = self.skeys
            skeys.insert(idx, key)
        self.svals.insert(idx, value)
        fill += 1
        self.fill = fill
        self.gap = fill
        return True

    def _append_grow(self, key: Key, value: Any) -> None:
        """Append past the slab end (only reachable over capacity)."""
        skeys = self.skeys
        try:
            skeys.append(key)
        except (TypeError, OverflowError):
            self._demote()
            self.skeys.append(key)
        self.svals.append(value)
        self.fill += 1
        self.gap = self.fill

    def append_entry(self, key: Key, value: Any) -> None:
        """Append an entry known to be greater than every current key."""
        if self.gap != self.fill:
            self._compact()
        fill = self.fill
        skeys = self.skeys
        if fill < len(skeys):
            try:
                skeys[fill] = key
            except (TypeError, OverflowError):
                self._demote()
                self.skeys[fill] = key
            self.svals[fill] = value
            self.fill = fill + 1
            self.gap = self.fill
        else:
            self._append_grow(key, value)

    def remove_at(self, idx: int) -> tuple[Key, Any]:
        """Remove and return the entry at ``idx``; the freed slot returns
        to the gap pool (the slab length never shrinks)."""
        if self.gap != self.fill:
            self._compact()
        skeys = self.skeys
        key = skeys.pop(idx)
        value = self.svals.pop(idx)
        fill = self.fill - 1
        self.fill = fill
        self.gap = fill
        # Re-pad so the slab keeps >= capacity slots (gap-claim safety).
        skeys.append(skeys[-1] if len(skeys) else key)
        self.svals.append(None)
        return key, value

    # ------------------------------------------------------------------
    # Run / bulk mutations
    # ------------------------------------------------------------------

    def extend_entries(
        self, run_keys: Sequence[Key], run_values: Sequence[Any]
    ) -> None:
        """Append entries known to be greater than every current key,
        filling gap slots first."""
        if self.gap != self.fill:
            self._compact()
        fill = self.fill
        m = len(run_keys)
        self._splice_keys(fill, fill + m, run_keys)
        self.svals[fill : fill + m] = run_values
        self.fill = fill + m
        self.gap = self.fill

    def drop_prefix(self, count: int) -> None:
        """Delete the first ``count`` entries (slots return to the pool)."""
        if count <= 0:
            return
        if self.gap != self.fill:
            self._compact()
        skeys = self.skeys
        pad = skeys[-count:]  # junk refill, typecode-valid by construction
        del skeys[:count]
        skeys.extend(pad)
        svals = self.svals
        del svals[:count]
        svals.extend([None] * count)
        fill = self.fill - count
        self.fill = fill
        self.gap = fill

    def _splice_keys(self, lo: int, hi: int, seq: Sequence[Key]) -> None:
        """``skeys[lo:hi] = seq`` with typed-array conversion/demotion."""
        skeys = self.skeys
        if isinstance(skeys, list):
            skeys[lo:hi] = seq
            return
        try:
            skeys[lo:hi] = array(skeys.typecode, seq)
        except (TypeError, OverflowError):
            self._demote()
            self.skeys[lo:hi] = list(seq)

    def apply_run(self, run_keys: list[Key], run_values: list[Any]) -> int:
        """Place a strictly-increasing run into this leaf in one motion.

        This is the batch-ingest analogue of :meth:`insert_entry`: the run
        is located with at most two bisects and placed with one slice
        store (the append case lands in the gap pool).  Existing keys are
        upserted — the run's value wins.  The caller is responsible for
        capacity: the leaf may grow by up to ``len(run_keys)`` entries.
        Returns the number of new keys added.
        """
        if self.gap != self.fill:
            self._compact()
        fill = self.fill
        skeys = self.skeys
        svals = self.svals
        m = len(run_keys)
        if fill == 0 or run_keys[0] > skeys[fill - 1]:
            self._splice_keys(fill, fill + m, run_keys)
            svals[fill : fill + m] = run_values
            self.fill = fill + m
            self.gap = self.fill
            return m
        lo = bisect_left(skeys, run_keys[0], 0, fill)
        hi = bisect_right(skeys, run_keys[-1], lo, fill)
        if lo == hi:
            # Nested run: one slice insertion; junk tail slides right and
            # the slab grows by m (re-gapped at the next rebuild).
            self._splice_keys(lo, lo, run_keys)
            svals[lo:lo] = run_values
            self.fill = fill + m
            self.gap = self.fill
            return m
        window_keys = skeys[lo:hi]
        if not isinstance(window_keys, list):
            window_keys = window_keys.tolist()
        merged_keys, merged_vals, added = merge_run(
            window_keys, svals[lo:hi], run_keys, run_values
        )
        self._splice_keys(lo, hi, merged_keys)
        svals[lo:hi] = merged_vals
        self.fill = fill + added
        self.gap = self.fill
        return added

    # ------------------------------------------------------------------
    # Split
    # ------------------------------------------------------------------

    def split_at(self, pos: int) -> tuple["LeafNode", Key]:
        """Split this leaf, moving entries from ``pos`` onward into a new
        right sibling.  Returns ``(new_right, split_key)``.

        ``pos`` must leave both halves non-empty.  Chain links are fixed
        here; the caller registers the new node with the parent.

        When the slab is full (``fill == len(skeys)`` — every split a
        tree triggers), the right sibling takes a *whole-slab copy with
        the gap at the front*: one C-level slice per array, no pad
        allocation.  Its live entries stay at physical ``[pos, slab)``
        (``gap = 0``, ``glen = pos``), which is a legal cursor state —
        the first out-of-window insert migrates the gap wherever that
        leaf's run is landing, paying one bounded slice move instead of
        every split paying an unconditional repack.
        """
        if self.gap != self.fill:
            self._compact()
        fill = self.fill
        if not 0 < pos < fill:
            raise ValueError(
                f"split position {pos} out of range for leaf of "
                f"size {fill}"
            )
        stats = self.stats
        skeys = self.skeys
        right = LeafNode.__new__(LeafNode)
        right.node_id = next(_node_ids)
        right.stats = stats
        if fill == len(skeys):
            split_key = skeys[pos]
            right.skeys = skeys[:]
            right.svals = self.svals[:]
            right.gap = 0
            right.gap_hi = split_key
        else:
            self._move_right_tail(right, pos, fill)
            split_key = right.skeys[0]
        right.fill = fill - pos
        stats.gap_redistributions += 1
        self.fill = pos
        self.gap = pos
        nxt = self.next
        right.next = nxt
        if nxt is not None:
            nxt.prev = right
        right.prev = self
        self.next = right
        right.parent = self.parent
        return right, split_key

    def _move_right_tail(
        self, right: "LeafNode", pos: int, fill: int
    ) -> None:
        """Copy entries ``[pos, fill)`` into ``right`` packed at the
        front with the gap pool re-padded to our slab size (the general
        split path, used when the slab has slack beyond ``fill``)."""
        skeys = self.skeys
        slab = len(skeys)
        n = fill - pos
        right_keys = skeys[pos:fill]
        if type(right_keys) is list:
            right_keys.extend([None] * (slab - n))
        else:
            right_keys.extend(right_keys[-1:] * (slab - n))
        right.skeys = right_keys
        right.gap = n
        right.gap_hi = None
        right_vals = self.svals[pos:fill]
        right_vals.extend([None] * (slab - n))
        right.svals = right_vals


def _typed_slots(entries: Sequence[Key]) -> Optional[KeySlots]:
    """Typed slot array for ``entries`` when the key domain allows it.

    ``int`` domains (the common case) are validated by the ``array('q')``
    constructor itself at C speed — any non-int or out-of-int64 element
    raises and the caller falls back to object slots.  ``float`` domains
    are pre-checked element-wise because ``array('d')`` would silently
    coerce stray ints (changing the type a reader gets back).
    """
    if not entries:
        return None
    first = type(entries[0])
    if first is int:
        try:
            return array("q", entries)
        except (TypeError, OverflowError):
            return None
    if first is float:
        if all(type(k) is float for k in entries):
            return array("d", entries)
    return None


class InternalNode(Node):
    """An internal node: ``len(children) == len(keys) + 1``.

    ``children[i]`` roots the subtree of keys in ``[keys[i-1], keys[i])``
    (with the open ends at the boundaries), so the child holding ``key``
    is ``children[bisect_right(keys, key)]``.  Descents in the trees
    inline that expression instead of calling a method per level.
    """

    __slots__ = ("keys", "children")

    is_leaf = False

    def __init__(self) -> None:
        super().__init__()
        self.keys: list[Key] = []
        self.children: list[Node] = []

    @property
    def size(self) -> int:
        """Number of children."""
        return len(self.children)

    def index_of_child(self, child: Node, stats: Optional[Any] = None) -> int:
        """Position of ``child`` in this node's child list.

        Seeds the search by bisecting on the child's smallest key, so the
        common case costs O(log fan-out) instead of a linear scan; empty
        children (possible under QuIT's lazy delete) fall back to a scan.
        When the caller passes its ``TreeStats`` the fallback is counted
        in ``stats.index_fallback_scans`` so O(fan-out) regressions are
        visible instead of silently absorbed.
        """
        children = self.children
        if child.is_leaf:
            populated = child.size > 0
            seed_key = child.min_key if populated else None  # type: ignore[attr-defined]
        else:
            populated = bool(child.keys)
            seed_key = child.keys[0] if populated else None
        if populated:
            idx = bisect_right(self.keys, seed_key)
            # The seed can be off by the pivot/duplicate boundary; probe
            # outward before conceding to a scan.
            for probe in (idx, idx - 1, idx + 1):
                if 0 <= probe < len(children) and children[probe] is child:
                    return probe
        if stats is not None:
            stats.index_fallback_scans += 1
        for idx, candidate in enumerate(children):
            if candidate is child:
                return idx
        raise ValueError(f"{child!r} is not a child of {self!r}")

    def insert_child(
        self, split_key: Key, right: Node, idx: Optional[int] = None
    ) -> None:
        """Register a split: add ``split_key`` and the new ``right`` child
        immediately after ``right``'s left sibling.

        Callers that already know the pivot position (e.g. from
        :meth:`index_of_child` on the left sibling) pass ``idx`` to skip
        the bisect.  The two C-level ``list.insert`` memmoves stay: the
        measured alternatives — a combined slice-splice
        (``keys[idx:idx] = (split_key,)``) and a single paired
        ``(key, child)`` list — run 1.4× and 1.75× *slower* per splice in
        CPython (394 ns and 483 ns vs 276 ns at fan-out 64; see DESIGN.md,
        "Gapped leaf"), because each slice assignment allocates a
        temporary and paired tuples tax every descent's bisect.
        """
        keys = self.keys
        if idx is None:
            idx = bisect_right(keys, split_key)
        keys.insert(idx, split_key)
        self.children.insert(idx + 1, right)
        right.parent = self

    def split(self) -> tuple["InternalNode", Key]:
        """Split this internal node in half.

        Returns ``(new_right, push_up_key)`` where ``push_up_key`` moves to
        the parent (it is *not* retained in either half, matching the
        textbook internal split).
        """
        mid = len(self.keys) // 2
        push_up = self.keys[mid]
        right = InternalNode()
        right.keys = self.keys[mid + 1:]
        right.children = self.children[mid + 1:]
        del self.keys[mid:]
        del self.children[mid + 1:]
        for child in right.children:
            child.parent = right
        right.parent = self.parent
        return right, push_up
