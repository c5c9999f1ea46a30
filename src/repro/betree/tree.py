"""A Bε-tree: the write-optimized baseline of the paper's related work
(§6; Bender et al. [6]).

Bε-trees trade internal fan-out for per-node message buffers: an insert
or delete becomes a *message* dropped into the root's buffer, and full
buffers flush batches of messages one level down, so the amortized
I/O/insert beats a B+-tree by the batching factor.  The paper's §6
argument — which `exp_betree` makes measurable — is that this
amortization is *sortedness-unaware*: a Bε-tree ingests a scrambled
stream exactly as fast as a sorted one, while QuIT converts sortedness
into proportional savings.

Semantics: newest-wins messages.  Along any root-to-leaf path, a message
closer to the root is newer than any message for the same key further
down (inserts enter at the root; flushes only push messages downward and
overwrite older ones).  Point lookups therefore return the *first*
message found while descending; deletes are tombstone messages.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Union

from ..core.bptree import TreeInvariantError
from ..core.node import Key, LeafNode


def _require(
    cond: bool, message: str, errors: Optional[list] = None
) -> None:
    """Invariant check that survives ``python -O`` (unlike ``assert``).

    With ``errors`` provided the violation is collected instead of
    raised, so :meth:`BeTree.check` can survey every problem at once.
    """
    if cond:
        return
    if errors is None:
        raise TreeInvariantError(message)
    errors.append(message)

#: Message operations.
_PUT = "put"
_DEL = "del"


@dataclass
class BeTreeConfig:
    """Configuration of a Bε-tree.

    Attributes:
        leaf_capacity: entries per leaf.
        fanout: max children per internal node (the "Bε" pivots).
        buffer_capacity: messages an internal node buffers before it
            must flush a batch downward.  In the classical formulation
            ``fanout = B**eps`` and the buffer takes the remaining
            ``B - B**eps`` space; here both are explicit knobs.
    """

    leaf_capacity: int = 64
    fanout: int = 8
    buffer_capacity: int = 64

    def __post_init__(self) -> None:
        if self.leaf_capacity < 4:
            raise ValueError(
                f"leaf_capacity must be >= 4, got {self.leaf_capacity}"
            )
        if self.fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {self.fanout}")
        if self.buffer_capacity < 1:
            raise ValueError(
                f"buffer_capacity must be >= 1, got {self.buffer_capacity}"
            )


@dataclass
class BeTreeStats:
    """Work counters for the Bε-tree.

    The four gap/typed counters mirror
    :class:`repro.core.stats.TreeStats` — the Bε-tree's leaves are the
    shared core :class:`~repro.core.node.LeafNode`, which reports its
    gap and typed-slab events into whatever stats receiver it is wired
    to.
    """

    messages_enqueued: int = 0
    messages_moved: int = 0
    flushes: int = 0
    leaf_applies: int = 0
    leaf_splits: int = 0
    internal_splits: int = 0
    node_accesses: int = 0
    gap_hits: int = 0
    gap_redistributions: int = 0
    typed_leaves: int = 0
    typed_demotions: int = 0


class _Internal:
    __slots__ = ("pivots", "children", "buffer")

    is_leaf = False

    def __init__(self) -> None:
        self.pivots: list[Key] = []
        self.children: list[Union["_Internal", LeafNode]] = []
        # key -> (op, value); newest message for the key at this level.
        self.buffer: dict[Key, tuple[str, Any]] = {}

    def child_index_for(self, key: Key) -> int:
        """Index of the child whose range contains ``key``."""
        return bisect_right(self.pivots, key)


_Node = Union[_Internal, LeafNode]


class BeTree:
    """Write-optimized Bε-tree with the same public surface as the
    package's B+-tree variants (insert/get/range_query/delete/items)."""

    name = "Be-tree"

    def __init__(self, config: Optional[BeTreeConfig] = None) -> None:
        self.config = config or BeTreeConfig()
        self.stats = BeTreeStats()
        self._root: _Node = self._new_leaf()

    def _new_leaf(self) -> LeafNode:
        return LeafNode(
            self.config.leaf_capacity,
            self.stats,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Writes: everything is a message
    # ------------------------------------------------------------------

    def insert(self, key: Key, value: Any = None) -> None:
        """Upsert ``(key, value)`` (amortized via message batching)."""
        self._enqueue(key, (_PUT, value))

    def delete(self, key: Key) -> None:
        """Delete ``key`` (tombstone message; idempotent).

        Unlike the B+-tree variants this cannot report whether the key
        existed without paying a lookup — the classic Bε-tree trade.
        """
        self._enqueue(key, (_DEL, None))

    def insert_many(self, items: Iterable[tuple[Key, Any]]) -> int:
        """Batched upsert: each item becomes a message, so the batch is
        absorbed at buffer speed anyway — the method exists for surface
        parity with the B+-tree variants.  Returns the number of items
        enqueued (message semantics hide the net size delta without a
        read, the classic Bε-tree trade)."""
        count = 0
        for key, value in items:
            self.insert(key, value)
            count += 1
        return count

    def _enqueue(self, key: Key, message: tuple[str, Any]) -> None:
        self.stats.messages_enqueued += 1
        root = self._root
        if root.is_leaf:
            self._apply_to_leaf(root, key, message)
            if root.size > self.config.leaf_capacity:
                self._split_root_leaf()
            return
        root.buffer[key] = message
        if len(root.buffer) > self.config.buffer_capacity:
            self._flush(root)
            if len(root.pivots) + 1 > self.config.fanout:
                self._split_root_internal()

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def _flush(self, node: _Internal) -> None:
        """Push the largest per-child message group one level down."""
        self.stats.flushes += 1
        groups: dict[int, list[Key]] = {}
        for key in node.buffer:
            groups.setdefault(node.child_index_for(key), []).append(key)
        child_idx = max(groups, key=lambda i: len(groups[i]))
        keys = groups[child_idx]
        child = node.children[child_idx]
        batch = [(k, node.buffer.pop(k)) for k in keys]
        self.stats.messages_moved += len(batch)
        if child.is_leaf:
            for k, message in sorted(batch):
                self._apply_to_leaf(child, k, message)
            # A batch can overfill the leaf several times over; split
            # every oversized piece.
            pending = [child_idx]
            while pending:
                idx = pending.pop()
                piece = node.children[idx]
                if piece.size > self.config.leaf_capacity:
                    self._split_child(node, idx)
                    pending.extend((idx, idx + 1))
        else:
            inner: _Internal = child
            # Parent messages are newer: they overwrite the child's.
            for k, message in batch:
                inner.buffer[k] = message
            if len(inner.buffer) > self.config.buffer_capacity:
                self._flush(inner)
            # Splits inside the recursive flush may have pushed the
            # child past its fan-out; repair it here (each flush fixes
            # the level below it — transient overflow deeper down is
            # repaired by the next flush that reaches it).
            while len(inner.pivots) + 1 > self.config.fanout:
                self._split_child(node, child_idx)
                left = node.children[child_idx]
                right = node.children[child_idx + 1]
                inner = (
                    left
                    if len(left.pivots) >= len(right.pivots)
                    else right
                )
                child_idx = node.children.index(inner)

    def _apply_to_leaf(
        self, leaf: LeafNode, key: Key, message: tuple[str, Any]
    ) -> None:
        self.stats.leaf_applies += 1
        op, value = message
        if op == _PUT:
            leaf.insert_entry(key, value)
        else:
            idx = leaf.find(key)
            if idx is not None:
                leaf.remove_at(idx)

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------

    def _split_root_leaf(self) -> None:
        leaf: LeafNode = self._root
        right, pivot = self._split_leaf(leaf)
        root = _Internal()
        root.pivots = [pivot]
        root.children = [leaf, right]
        self._root = root

    def _split_root_internal(self) -> None:
        node: _Internal = self._root
        right, pivot = self._split_internal(node)
        root = _Internal()
        root.pivots = [pivot]
        root.children = [node, right]
        self._root = root

    def _split_leaf(self, leaf: LeafNode) -> tuple[LeafNode, Key]:
        self.stats.leaf_splits += 1
        # split_at sizes the sibling's slab and fixes the chain links.
        return leaf.split_at(leaf.size // 2)

    def _split_internal(self, node: _Internal) -> tuple[_Internal, Key]:
        self.stats.internal_splits += 1
        mid = len(node.pivots) // 2
        pivot = node.pivots[mid]
        right = _Internal()
        right.pivots = node.pivots[mid + 1:]
        right.children = node.children[mid + 1:]
        del node.pivots[mid:]
        del node.children[mid + 1:]
        for key in list(node.buffer):
            if key >= pivot:
                right.buffer[key] = node.buffer.pop(key)
        return right, pivot

    def _split_child(self, parent: _Internal, child_idx: int) -> None:
        child = parent.children[child_idx]
        if child.is_leaf:
            right, pivot = self._split_leaf(child)
        else:
            right, pivot = self._split_internal(child)
        insort(parent.pivots, pivot)
        parent.children.insert(child_idx + 1, right)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        """Point lookup: the first (newest) message on the path wins."""
        node = self._root
        self.stats.node_accesses += 1
        while not node.is_leaf:
            message = node.buffer.get(key)
            if message is not None:
                op, value = message
                return value if op == _PUT else default
            node = node.children[node.child_index_for(key)]
            self.stats.node_accesses += 1
        idx = node.find(key)
        if idx is not None:
            return node.value_at(idx)
        return default

    def __contains__(self, key: Key) -> bool:
        sentinel = object()
        return self.get(key, default=sentinel) is not sentinel

    def get_many(self, keys, default: Any = None) -> list[Any]:
        """Batched point lookups aligned with ``keys``.

        The sorted probe batch descends the tree *once*: at each internal
        node the whole group checks the buffer (newest message wins, as
        in :meth:`get`), and the unresolved remainder is partitioned
        across children by pivot — every node on the way down is visited
        one time for the batch instead of once per probe.
        """
        key_list = keys if isinstance(keys, list) else list(keys)
        n = len(key_list)
        out = [default] * n
        if not n:
            return out
        order = sorted(range(n), key=key_list.__getitem__)
        probes = [(key_list[pos], pos) for pos in order]
        self._get_many_in(self._root, probes, out, default)
        return out

    def _get_many_in(
        self,
        node: _Node,
        probes: list[tuple[Key, int]],
        out: list[Any],
        default: Any,
    ) -> None:
        """Resolve sorted ``probes`` (key, output position) within
        ``node``'s subtree."""
        self.stats.node_accesses += 1
        if node.is_leaf:
            lk, lv, ln = node.view()
            for key, pos in probes:
                idx = bisect_left(lk, key, 0, ln)
                if idx < ln and lk[idx] == key:
                    out[pos] = lv[idx]
            return
        buffer = node.buffer
        if buffer:
            remaining = []
            for probe in probes:
                message = buffer.get(probe[0])
                if message is None:
                    remaining.append(probe)
                elif message[0] == _PUT:
                    out[probe[1]] = message[1]
                # _DEL tombstone: the probe resolves to ``default``.
            probes = remaining
        pivots = node.pivots
        children = node.children
        start = 0
        total = len(probes)
        while start < total:
            child_idx = bisect_right(pivots, probes[start][0])
            stop = start + 1
            if child_idx < len(pivots):
                bound = pivots[child_idx]
                while stop < total and probes[stop][0] < bound:
                    stop += 1
            else:
                stop = total
            self._get_many_in(
                children[child_idx], probes[start:stop], out, default
            )
            start = stop

    def range_iter(self, start: Key, end: Key) -> Iterator[tuple[Key, Any]]:
        """Iterator over the entries of :meth:`range_query`.

        Provided for API parity with the B+-tree variants; message
        resolution requires seeing every buffer on the overlapping
        paths, so the result is materialized up front rather than
        streamed.
        """
        return iter(self.range_query(start, end))

    def count_range(self, start: Key, end: Key) -> int:
        """Number of live entries in ``[start, end)`` (materializes the
        resolved range — see :meth:`range_iter`)."""
        return len(self.range_query(start, end))

    def range_query(self, start: Key, end: Key) -> list[tuple[Key, Any]]:
        """Entries with ``start <= key < end``: merges the pending
        messages along every overlapping path over the leaf contents."""
        if start >= end:
            return []
        resolved: dict[Key, tuple[str, Any]] = {}
        self._collect_range(self._root, start, end, resolved)
        return sorted(
            (k, v) for k, (op, v) in resolved.items() if op == _PUT
        )

    def _collect_range(
        self,
        node: _Node,
        start: Key,
        end: Key,
        resolved: dict[Key, tuple[str, Any]],
    ) -> None:
        """Post-order resolution: children first, then this node's buffer
        overwrites (higher = newer)."""
        self.stats.node_accesses += 1
        if node.is_leaf:
            lk, lv, ln = node.view()
            lo = bisect_left(lk, start, 0, ln)
            hi = bisect_left(lk, end, 0, ln)
            for i in range(lo, hi):
                resolved.setdefault(lk[i], (_PUT, lv[i]))
            return
        first = node.child_index_for(start)
        last = node.child_index_for(end)
        for idx in range(first, last + 1):
            self._collect_range(node.children[idx], start, end, resolved)
        for key, message in node.buffer.items():
            if start <= key < end:
                resolved[key] = message

    def items(self) -> Iterator[tuple[Key, Any]]:
        """All live entries in key order (resolves every buffer)."""
        lo, hi = self._key_extents()
        if lo is None:
            return iter(())
        return iter(self.range_query(lo, _PastEnd(hi)))

    def __len__(self) -> int:
        """Live entry count (O(n): requires resolving the buffers)."""
        return sum(1 for _ in self.items())

    def _key_extents(self) -> tuple[Optional[Key], Optional[Key]]:
        keys = list(self._all_keys_unresolved())
        if not keys:
            return None, None
        return min(keys), max(keys)

    def _all_keys_unresolved(self) -> Iterator[Key]:
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.keys
            else:
                yield from node.buffer.keys()
                stack.extend(node.children)

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def flush_all(self) -> None:
        """Drain every buffer down to the leaves (checkpoint)."""
        changed = True
        while changed:
            changed = False
            for node in self._internal_nodes():
                if node.buffer:
                    self._flush(node)
                    if (
                        node is self._root
                        and len(node.pivots) + 1 > self.config.fanout
                    ):
                        self._split_root_internal()
                    changed = True

    def _internal_nodes(self) -> list[_Internal]:
        out: list[_Internal] = []
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                out.append(node)
                stack.extend(node.children)
        return out

    def height(self) -> int:
        """Levels including the leaf level."""
        node = self._root
        h = 1
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def validate(self, errors: Optional[list] = None) -> None:
        """Structural invariants: sorted pivots/leaves, buffer keys within
        subtree ranges, leaf chain in global order.

        Raises :class:`TreeInvariantError` at the first violation, or
        collects every violation into ``errors`` when provided."""
        self._validate_node(self._root, None, None, errors)
        # Leaf chain strictly ascends.
        leaves: list[LeafNode] = []
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(node.children)
        flat = [k for leaf in leaves for k in sorted(leaf.keys)]
        _require(sorted(flat) == sorted(set(flat)), "duplicate leaf keys", errors)

    def check(self, check_min_fill: bool = False) -> list:
        """Non-raising validation: the list of violated invariants.

        Mirrors :meth:`repro.core.bptree.BPlusTree.check` so harnesses
        can diagnose any variant uniformly.  ``check_min_fill`` is
        accepted for signature parity; a Bε-tree has no min-fill
        invariant (buffers absorb deletes), so it is ignored.
        """
        errors: list = []
        self.validate(errors)
        return errors

    def scrub(self):
        """Post-recovery hygiene pass, mirroring
        :meth:`repro.core.bptree.BPlusTree.scrub`.

        The Bε-tree keeps no fast-path pointers or leaf chain, so there
        is nothing repairable-by-reset; the scrub drains every buffer
        (checkpoint) and reports structural damage, which scrubbing
        cannot repair, as issues for :meth:`check`-style triage.
        """
        from ..core.stats import ScrubReport

        self.flush_all()
        report = ScrubReport(variant=self.name)
        report.issues.extend(self.check())
        return report

    def _validate_node(
        self,
        node: _Node,
        low: Optional[Key],
        high: Optional[Key],
        errors: Optional[list] = None,
    ) -> None:
        if node.is_leaf:
            _require(node.keys == sorted(set(node.keys)), "unsorted leaf", errors)
            for k in node.keys:
                _require(
                    low is None or k >= low, "leaf key below subtree low", errors
                )
                _require(
                    high is None or k < high, "leaf key above subtree high", errors
                )
            _require(
                len(node.keys) <= self.config.leaf_capacity,
                "leaf over capacity",
                errors,
            )
            return
        _require(
            node.pivots == sorted(set(node.pivots)), "unsorted pivots", errors
        )
        _require(
            len(node.children) == len(node.pivots) + 1,
            "children/pivots arity mismatch",
            errors,
        )
        # Fan-out may transiently exceed the target between flushes
        # (a node is repaired by the next flush that reaches it).
        _require(
            len(node.children) <= self.config.fanout + 4,
            "fan-out exceeds repair slack",
            errors,
        )
        for key in node.buffer:
            _require(
                low is None or key >= low, "buffered key below subtree low", errors
            )
            _require(
                high is None or key < high,
                "buffered key above subtree high",
                errors,
            )
        for i, child in enumerate(node.children):
            child_low = node.pivots[i - 1] if i > 0 else low
            child_high = (
                node.pivots[i] if i < len(node.pivots) else high
            )
            self._validate_node(child, child_low, child_high, errors)


class _PastEnd:
    """A value comparing greater than any key (open upper bound)."""

    __slots__ = ("anchor",)

    def __init__(self, anchor: Key) -> None:
        self.anchor = anchor

    def __gt__(self, other: Any) -> bool:
        return True

    def __le__(self, other: Any) -> bool:
        return False

    def __lt__(self, other: Any) -> bool:
        return False

    def __ge__(self, other: Any) -> bool:
        return True
