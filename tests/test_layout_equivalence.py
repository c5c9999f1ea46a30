"""Layout equivalence: the gapped slot-array leaf layout must be
observationally identical to the classic compact-list layout.

Every variant is driven through random ~1k-op workloads (point inserts,
overwrites, deletes, range queries, point reads) three ways at once —
``layout="gapped"``, ``layout="list"``, and a plain dict oracle — and
every read result must agree.  ``range_query`` uses half-open
``[start, end)`` semantics, which the oracle mirrors.

Also covered: persist round-trips across layouts, typed-array promotion
/ demotion at the leaf level, and crash-recovery property runs with the
gapped layout under the registered failpoints (the durability layer
must not care how leaves store their slots).
"""

import random

import pytest

from repro.core import (
    BPlusTree,
    DurableTree,
    LilBPlusTree,
    PoleBPlusTree,
    QuITTree,
    TailBPlusTree,
    TreeConfig,
)
from repro.core.node import GappedLeafNode, LeafNode, make_leaf

from conftest import legacy_snapshot_bytes

VARIANTS = (
    BPlusTree,
    TailBPlusTree,
    LilBPlusTree,
    PoleBPlusTree,
    QuITTree,
)

KEYSPACE = 600
N_OPS = 1000


def cfg(layout: str) -> TreeConfig:
    return TreeConfig(leaf_capacity=8, internal_capacity=8, layout=layout)


def make_ops(seed: int, n: int = N_OPS) -> list[tuple]:
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.50:
            ops.append(("insert", rng.randrange(KEYSPACE), rng.randrange(10**6)))
        elif r < 0.65:
            ops.append(("delete", rng.randrange(KEYSPACE)))
        elif r < 0.80:
            ops.append(("get", rng.randrange(KEYSPACE)))
        elif r < 0.95:
            lo = rng.randrange(KEYSPACE)
            ops.append(("range", lo, lo + rng.randrange(80)))
        else:
            ops.append(("items",))
    return ops


class TestRandomWorkloadEquivalence:
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gapped_list_and_oracle_agree(self, variant, seed):
        gapped = variant(cfg("gapped"))
        listy = variant(cfg("list"))
        oracle: dict = {}
        for step, op in enumerate(make_ops(seed)):
            tag = (variant.name, seed, step, op)
            if op[0] == "insert":
                _, k, v = op
                gapped.insert(k, v)
                listy.insert(k, v)
                oracle[k] = v
            elif op[0] == "delete":
                _, k = op
                assert gapped.delete(k) == listy.delete(k), tag
                oracle.pop(k, None)
            elif op[0] == "get":
                _, k = op
                expect = oracle.get(k)
                assert gapped.get(k) == expect, tag
                assert listy.get(k) == expect, tag
            elif op[0] == "range":
                _, lo, hi = op
                expect = sorted(
                    (k, v) for k, v in oracle.items() if lo <= k < hi
                )
                assert gapped.range_query(lo, hi) == expect, tag
                assert listy.range_query(lo, hi) == expect, tag
            else:
                expect = sorted(oracle.items())
                assert sorted(gapped.items()) == expect, tag
                assert sorted(listy.items()) == expect, tag
            assert len(gapped) == len(listy) == len(oracle), tag
        # Structural invariants hold for both layouts.  QuIT's variable
        # splits can legally leave under-min-fill leaves (a documented,
        # layout-independent property), so min-fill is not asserted.
        gapped.validate(check_min_fill=False)
        listy.validate(check_min_fill=False)

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    def test_batched_ingest_agrees(self, variant):
        rng = random.Random(99)
        gapped = variant(cfg("gapped"))
        listy = variant(cfg("list"))
        oracle: dict = {}
        for _ in range(40):
            base = rng.randrange(KEYSPACE)
            batch = [
                (base + j, rng.randrange(10**6))
                for j in range(rng.randrange(1, 30))
            ]
            gapped.insert_many(batch)
            listy.insert_many(batch)
            oracle.update(batch)
        assert list(gapped.items()) == list(listy.items()) == sorted(
            oracle.items()
        )


class TestPersistRoundTrip:
    @pytest.mark.parametrize("layout", ["gapped", "list"])
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_snapshot_round_trip_preserves_entries(
        self, tmp_path, layout, version
    ):
        # v3 is what save_tree writes; v1/v2 are the legacy text
        # formats load_tree still reads.
        from repro.core import codec
        from repro.core.persist import load_tree, save_tree

        t = QuITTree(cfg(layout))
        rng = random.Random(7)
        for _ in range(500):
            t.insert(rng.randrange(KEYSPACE), rng.randrange(10**6))
        path = tmp_path / "tree.snap"
        if version == 3:
            save_tree(t, path)
            head, _, body = path.read_bytes().partition(b"\n")
            assert head.split(b"\t")[:2] == [
                b"quit-tree-v3", str(len(t)).encode()
            ]
            assert body[8] == codec.TAG_PAIRS  # one packed int chunk
        else:
            path.write_bytes(
                legacy_snapshot_bytes(list(t.items()), t.config, version)
            )
        back = load_tree(path, QuITTree, config=cfg(layout))
        assert list(back.items()) == list(t.items())
        assert back.layout == layout
        back.validate(check_min_fill=False)

    def test_cross_layout_load(self, tmp_path):
        # A snapshot written by one layout loads under the other: the
        # snapshot format stores entries, not slab internals.
        from repro.core.persist import load_tree, save_tree

        src = BPlusTree(cfg("list"))
        for i in range(300):
            src.insert(i * 3 % KEYSPACE, i)
        path = tmp_path / "tree.snap"
        save_tree(src, path)
        back = load_tree(path, BPlusTree, config=cfg("gapped"))
        assert list(back.items()) == list(src.items())
        assert back.layout == "gapped"
        # The bulk-loaded rebuild promotes int keys to typed slabs.
        assert back.stats.typed_leaves > 0


class TestTypedSlots:
    def test_bulk_load_promotes_int_keys(self):
        t = BPlusTree(TreeConfig(leaf_capacity=64, internal_capacity=64,
                                 layout="gapped"))
        t.bulk_load([(i, i) for i in range(5_000)])
        assert t.stats.typed_leaves > 0
        assert list(t.items()) == [(i, i) for i in range(5_000)]

    def test_demotion_on_nonconforming_key(self):
        t = BPlusTree(TreeConfig(leaf_capacity=64, internal_capacity=64,
                                 layout="gapped"))
        t.bulk_load([(i, i) for i in range(1_000)])
        t.insert(2**70, "big")  # > int64: typed slab must demote
        assert t.stats.typed_demotions >= 1
        assert t.get(2**70) == "big"
        t.validate()

    def test_string_keys_stay_object_lists(self):
        t = BPlusTree(cfg("gapped"))
        words = [f"k{i:04d}" for i in range(300)]
        random.Random(3).shuffle(words)
        for w in words:
            t.insert(w, w)
        assert [k for k, _ in t.items()] == sorted(words)
        leaf = t.head_leaf
        while leaf is not None:
            assert not leaf.typed
            leaf = leaf.next

    def test_leaf_level_gap_claims_count(self):
        from repro.core.stats import TreeStats

        stats = TreeStats()
        leaf = make_leaf("gapped", 16, stats)
        assert isinstance(leaf, GappedLeafNode)
        for k in (10, 20, 30, 40):
            leaf.insert_entry(k, None)
        assert stats.gap_hits == 0  # appends are never counted
        leaf.insert_entry(25, None)  # migrate cursor mid-leaf
        leaf.insert_entry(26, None)  # claim at the migrated cursor
        assert stats.gap_hits >= 1
        assert leaf.keys == [10, 20, 25, 26, 30, 40]

    def test_list_layout_unchanged(self):
        leaf = make_leaf("list", 16)
        assert type(leaf) is LeafNode


class TestCrashRecoveryGapped:
    """The durability layer over gapped leaves: acknowledged writes
    survive a mid-workload crash at registered WAL/checkpoint
    failpoints.  (The full per-failpoint sweep lives in
    tests/test_crash_recovery_property.py; this asserts the gapped
    layout changes nothing about that contract.)"""

    GAPPED_CFG = TreeConfig(
        leaf_capacity=8, internal_capacity=8, layout="gapped"
    )

    @pytest.mark.parametrize(
        "failpoint",
        ["wal.before_fsync", "wal.after_append", "snapshot.after_tmp_write"],
    )
    def test_failpoint_crash_recovers_acked_state(self, tmp_path, failpoint):
        from repro.testing import SimulatedCrash, failpoints

        rng = random.Random(hash(failpoint) % 2**31)
        acked: dict = {}
        inflight = None
        tree = DurableTree(
            QuITTree(self.GAPPED_CFG), tmp_path, segment_bytes=512
        )
        assert tree.layout == "gapped"
        try:
            with failpoints.active(
                failpoint, mode="crash", hits_before=5
            ) as state:
                for step in range(600):
                    if step and step % 50 == 0:
                        tree.checkpoint()  # exercises snapshot.* points
                    k = rng.randrange(KEYSPACE)
                    if rng.random() < 0.75:
                        v = rng.randrange(10**6)
                        inflight = ("insert", k, v)
                        tree.insert(k, v)
                        acked[k] = v
                    else:
                        inflight = ("delete", k)
                        tree.delete(k)
                        acked.pop(k, None)
                    inflight = None
        except SimulatedCrash:
            pass
        assert state.fired == 1, (
            f"{failpoint} never fired — the workload does not cover it"
        )
        recovered, report = DurableTree.recover(
            tmp_path, QuITTree, self.GAPPED_CFG
        )
        try:
            assert recovered.layout == "gapped"
            got = dict(recovered.tree.items())
            # Log-then-apply: exactly the acknowledged history, plus at
            # most the single op that was in flight at the crash.
            allowed = [acked]
            if inflight is not None:
                extra = dict(acked)
                if inflight[0] == "insert":
                    extra[inflight[1]] = inflight[2]
                else:
                    extra.pop(inflight[1], None)
                allowed.append(extra)
            assert any(got == s for s in allowed), (
                failpoint,
                len(got),
                len(acked),
                inflight,
            )
            assert recovered.check(check_min_fill=False) == []
            # The recovered tree keeps working through its fast path.
            recovered.insert(10**9, "post-recovery")
            assert recovered.get(10**9) == "post-recovery"
        finally:
            recovered.close()
