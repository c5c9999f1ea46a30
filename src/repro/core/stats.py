"""Instrumentation counters shared by every index variant.

All evaluation figures in the paper are driven by a small set of
work-proportional counters: how many inserts used the fast path vs a full
top-to-bottom traversal, how many nodes a lookup touched, and how many
structural operations (splits, redistributions, resets) occurred.  Keeping
them in one mutable dataclass lets the benchmark harness read a consistent
snapshot from any tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class TreeStats:
    """Mutable operation counters for a tree index.

    Attributes:
        fast_inserts: inserts that used the fast path (tail / lil / pole).
        top_inserts: inserts that performed a root-to-leaf traversal.
        leaf_splits: number of leaf-node splits.
        internal_splits: number of internal-node splits.
        variable_splits: leaf splits that used QuIT's IKR-guided split point
            (Alg. 2) instead of the default 50% position.
        redistributions: Alg. 2 redistributions into ``pole_prev``.
        pole_updates: times the ``pole`` pointer advanced after a split.
        pole_catchups: times a top-insert into ``pole_next`` moved ``pole``
            forward ("catching up to predicted outliers", §4.2).
        pole_resets: stale-pole resets (§4.3).
        node_accesses: nodes touched by lookups (internal + leaf).
        leaf_accesses: leaf nodes touched by lookups (Fig. 10c metric).
        point_lookups / range_lookups / deletes: operation counts.
        insert_traversal_nodes: nodes touched while descending for
            top-inserts (proxy for insert cost in the analytical model).
        bulk_splice_segments: descents performed by ``bulk_insert_run``
            (one per pivot-bounded segment of the spliced run).
        batch_inserts: entries ingested through ``insert_many``.
        batch_runs: maximal non-decreasing runs the batch detector carved
            out of ``insert_many`` batches (after coalescing, when it
            applied).
        batch_coalesced: fragmented ``insert_many`` batches that were
            stable-sorted into a single run before application.
        batch_segments: pivot-bounded segments the batch path applied
            (>= batch_runs; each segment costs at most one descent).
        batch_fast_segments: batch segments whose target leaf came
            straight from the variant's fast-path pointer (no descent).
        batch_chained_segments: batch segments whose target leaf was
            reached without a descent via batch-local locality: the leaf
            chain from the previous segment of the same run, or the
            frontier (rightmost leaf touched) of earlier runs in the same
            ``insert_many`` call.
        index_fallback_scans: ``InternalNode.index_of_child`` calls that
            fell back to the O(fan-out) linear scan (typically empty
            children under QuIT's lazy delete).
        read_batches: ``get_many`` calls (one per probe batch).
        read_chain_hits: batched probes resolved without a root-to-leaf
            descent — served from the leaf the previous probe landed in,
            or from a leaf reached through that leaf's parent pivots.
        read_redescents: root-to-leaf descents performed inside
            ``get_many``: the batch's first positioning descent plus one
            per probe past the current parent's key range (a batch that
            stays under one parent counts exactly one).
        read_fast_hits: per-key ``get`` calls served straight from the
            fast-path pointer's cached leaf because the probe key fell
            inside its ``[fp_min, fp_max)`` window (read-side analogue
            of ``fast_inserts``; ``get_many`` never consults the window).
        read_fast_misses: per-key ``get`` calls that consulted the
            fast-path window and missed, falling back to a descent.
        scrub_checks: ``scrub()`` passes run over this tree.
        scrub_resets: fast-path/auxiliary pointers that ``scrub()``
            found inconsistent and reset (graceful degradation after
            recovery instead of trusting derived state blindly).
        gap_hits: mid-leaf point inserts a leaf absorbed by claiming a
            slot from its gap pool (one C-level store) where a compact
            list would have shifted entries.  Pure appends are not
            counted (they shift nothing), and neither are the inlined
            fast-path claims of the tail/lil/pole/QuIT insert loop —
            the counter tracks the out-of-line ``insert_entry`` path.
        gap_redistributions: leaf rebuilds (splits, run-overflow
            repacks, bulk loads) that re-established gap slack — the
            leaf's "redistribute" events.
        typed_leaves: leaf repacks that chose typed ``array``
            key storage (uniform int/float key domain detected).
        typed_demotions: typed key slabs demoted back to object lists
            because a non-conforming key arrived (type change or int64
            overflow).
    """

    fast_inserts: int = 0
    top_inserts: int = 0
    leaf_splits: int = 0
    internal_splits: int = 0
    variable_splits: int = 0
    redistributions: int = 0
    pole_updates: int = 0
    pole_catchups: int = 0
    pole_resets: int = 0
    node_accesses: int = 0
    leaf_accesses: int = 0
    point_lookups: int = 0
    range_lookups: int = 0
    deletes: int = 0
    insert_traversal_nodes: int = 0
    bulk_splice_segments: int = 0
    batch_inserts: int = 0
    batch_runs: int = 0
    batch_coalesced: int = 0
    batch_segments: int = 0
    batch_fast_segments: int = 0
    batch_chained_segments: int = 0
    index_fallback_scans: int = 0
    read_batches: int = 0
    read_chain_hits: int = 0
    read_redescents: int = 0
    read_fast_hits: int = 0
    read_fast_misses: int = 0
    scrub_checks: int = 0
    scrub_resets: int = 0
    gap_hits: int = 0
    gap_redistributions: int = 0
    typed_leaves: int = 0
    typed_demotions: int = 0

    @property
    def inserts(self) -> int:
        """Total number of inserts performed."""
        return self.fast_inserts + self.top_inserts

    @property
    def fast_insert_fraction(self) -> float:
        """Fraction of inserts served by the fast path (0.0 when empty)."""
        total = self.inserts
        return self.fast_inserts / total if total else 0.0

    @property
    def top_insert_fraction(self) -> float:
        """Fraction of inserts that required a full traversal."""
        total = self.inserts
        return self.top_inserts / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> "TreeStats":
        """Return an independent copy of the current counters."""
        return TreeStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def diff(self, earlier: "TreeStats") -> "TreeStats":
        """Return counters accumulated since an ``earlier`` snapshot."""
        return TreeStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for reporting)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ScrubReport:
    """Outcome of a ``scrub()`` pass over one tree.

    Attributes:
        variant: ``name`` of the scrubbed tree class.
        issues: human-readable description of each inconsistency found
            in derived state (fast-path pointers, chain endpoints).
        repairs: how many of those were repaired in place (pointer
            resets); issues without a matching repair are unrepairable
            by scrubbing and need :meth:`BPlusTree.check`.
    """

    variant: str = ""
    issues: list[str] = field(default_factory=list)
    repairs: int = 0

    @property
    def clean(self) -> bool:
        """True when no inconsistency was found."""
        return not self.issues


@dataclass
class OccupancyStats:
    """Leaf-occupancy summary used by Fig. 10a / 11 / Table 2.

    Attributes:
        leaf_count: number of leaf nodes.
        internal_count: number of internal nodes.
        entries: total entries stored in the leaves.
        capacity: per-leaf capacity the occupancy is measured against.
        min_occupancy / max_occupancy: extremes over all leaves (fractions).
    """

    leaf_count: int = 0
    internal_count: int = 0
    entries: int = 0
    capacity: int = 0
    min_occupancy: float = 0.0
    max_occupancy: float = 0.0

    @property
    def avg_occupancy(self) -> float:
        """Average leaf fill fraction in [0, 1]."""
        if not self.leaf_count or not self.capacity:
            return 0.0
        return self.entries / (self.leaf_count * self.capacity)

    @property
    def node_count(self) -> int:
        """Total number of nodes (leaves + internals)."""
        return self.leaf_count + self.internal_count
