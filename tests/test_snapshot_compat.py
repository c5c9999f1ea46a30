"""Snapshot formats: legacy v1/v2 files still load, the header's
optional leaf field is checked the same way in every version, and damage
to a v3 file is rejected by ``load_tree`` and reported by
``verify_snapshot``.

``fixtures/snapshot_v1`` holds a bare ``snapshot.quit`` written by the
v1 text writer: keys 0..199 mapped to ``3 * k``, plus keys 1000-1010
mapped to mixed literals (see ``MIXED``; the tab-holding string is
absent because the text writers refused separator characters).

``fixtures/snapshot_v2`` is a durability root written by the v2-era
``DurableTree``: a v2 checkpoint of ``k -> -k`` for k in 0, 3, ..., 297
plus the same mixed literals, then a WAL holding, in order::

    ("m", [(300, 2100), ..., (399, 2793)])      # packed, k -> 7 * k
    ("m", [(2000, 0.25), (2001, "x"), (2002, None)])
    ("d", 0)
    ("i", 3, "three")

Every test that recovers works on a copy: recovery repairs and appends.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path
from typing import Optional

import pytest

from repro.core import (
    BPlusTree,
    DurableTree,
    PersistenceError,
    QuITTree,
    TreeConfig,
    codec,
    load_tree,
    save_tree,
    verify_snapshot,
)
from repro.core.durable import SNAPSHOT_NAME
from repro.core.persist import CHUNK_PAIRS
from repro.core.wal import WALPosition, frame_record, parse_segment
from repro.replication import Replica, ReplicationTransport, SnapshotPayload

from conftest import legacy_snapshot_bytes

FIXTURES = Path(__file__).parent / "fixtures"
CONFIG = TreeConfig(leaf_capacity=8, internal_capacity=8)
MIXED = {
    1000: None, 1001: True, 1002: 3.5, 1003: "text", 1004: (1, "two"),
    1005: [1, "a"], 1006: {"k": 1}, 1007: 2 ** 70, 1008: -(2 ** 40),
    1010: b"raw",
}
V1_STATE = {**{k: 3 * k for k in range(200)}, **MIXED}
V2_SNAPSHOT_STATE = {**{k: -k for k in range(0, 300, 3)}, **MIXED}


def _v2_recovered_state() -> dict:
    state = dict(V2_SNAPSHOT_STATE)
    state.update({k: 7 * k for k in range(300, 400)})
    state.update({2000: 0.25, 2001: "x", 2002: None})
    del state[0]
    state[3] = "three"
    return state


def _same_items(tree, expected: dict) -> None:
    items = list(tree.items())
    assert items == sorted(expected.items())
    # ``==`` alone would let True pass for 1 and 1.0 for 1.
    assert [type(v) for _, v in items] == [
        type(v) for _, v in sorted(expected.items())
    ]


@pytest.fixture
def v2_root(tmp_path):
    root = tmp_path / "state"
    shutil.copytree(FIXTURES / "snapshot_v2", root)
    return root


class TestLegacyFixtures:
    @pytest.mark.parametrize("version, state", [
        (1, V1_STATE), (2, V2_SNAPSHOT_STATE),
    ])
    def test_fixture_loads_to_exact_items(self, version, state):
        path = FIXTURES / f"snapshot_v{version}" / SNAPSHOT_NAME
        assert path.read_bytes().startswith(f"quit-tree-v{version}\t".encode())
        assert verify_snapshot(path) == []
        tree = load_tree(path, QuITTree)
        _same_items(tree, state)
        assert tree.config.leaf_capacity == 8
        tree.validate(check_min_fill=False)
        # The conftest writer that other suites use for legacy files
        # reproduces the committed bytes exactly.
        assert legacy_snapshot_bytes(
            sorted(state.items()), CONFIG, version
        ) == path.read_bytes()

    def test_recover_v2_checkpoint_plus_packed_wal(self, v2_root):
        seg = next((v2_root / "wal").iterdir()).read_bytes()
        assert codec.is_packed(seg[8:9])  # the WAL opens packed
        durable, report = DurableTree.recover(v2_root, QuITTree, CONFIG)
        try:
            assert report.clean and report.snapshot_loaded
            assert report.snapshot_entries == len(V2_SNAPSHOT_STATE)
            assert report.records_replayed == 4
            _same_items(durable, _v2_recovered_state())
            # The next checkpoint upgrades the file to v3.
            durable.checkpoint()
            snap = v2_root / SNAPSHOT_NAME
            assert snap.read_bytes().startswith(b"quit-tree-v3\t")
        finally:
            durable.close()
        again, _ = DurableTree.recover(v2_root, QuITTree, CONFIG)
        try:
            _same_items(again, _v2_recovered_state())
        finally:
            again.close()

    def test_replica_bootstraps_from_v2_payload(self, tmp_path):
        data = (FIXTURES / "snapshot_v2" / SNAPSHOT_NAME).read_bytes()

        class FixedSnapshot(ReplicationTransport):
            def fetch_snapshot(self) -> SnapshotPayload:
                return SnapshotPayload(
                    data=data, base=WALPosition(2, 0), epoch=3
                )

        replica = Replica(
            tmp_path / "replica", FixedSnapshot(),
            tree_class=QuITTree, config=CONFIG,
        )
        try:
            replica.bootstrap()
            assert replica.position == WALPosition(2, 0)
            assert replica.epoch == 3
            _same_items(replica.durable, V2_SNAPSHOT_STATE)
        finally:
            replica.close()


def _image(version: int, path: Path) -> dict:
    """Write a snapshot of a randomly built QuIT tree in format
    ``version`` to ``path``; returns the tree's state."""
    tree = QuITTree(CONFIG)
    rng = random.Random(7)
    for _ in range(500):
        tree.insert(rng.randrange(600), rng.randrange(10 ** 6))
    if version == 3:
        save_tree(tree, path)
    else:
        path.write_bytes(
            legacy_snapshot_bytes(list(tree.items()), CONFIG, version)
        )
    return dict(tree.items())


def _set_leaf_field(path: Path, field: Optional[str]) -> None:
    """Rewrite the header's fifth field (``None`` drops it)."""
    head, _, body = path.read_bytes().partition(b"\n")
    fields = head.split(b"\t")[:4]
    if field is not None:
        fields.append(field.encode())
    path.write_bytes(b"\t".join(fields) + b"\n" + body)


class TestHeaderLeafField:
    """Headers carry four fields, or five whose last names the leaf
    storage of the writer: ``gapped`` (what :func:`save_tree` writes) or
    ``list`` (from code that had a second leaf class).  All of them load
    into the one leaf; any other fifth field is a malformed header."""

    @pytest.mark.parametrize(
        "field", [None, "gapped", "list"], ids=["4-field", "gapped", "list"]
    )
    @pytest.mark.parametrize("version", [1, 2, 3], ids=lambda v: f"v{v}")
    def test_accepted_header_loads(self, tmp_path, version, field):
        path = tmp_path / "t.quit"
        state = _image(version, path)
        _set_leaf_field(path, field)
        assert verify_snapshot(path) == []
        tree = load_tree(path, QuITTree)
        _same_items(tree, state)
        assert tree.config == CONFIG
        tree.validate(check_min_fill=False)
        # The bulk-loaded rebuild promotes int keys to typed slabs.
        assert tree.stats.typed_leaves > 0

    def test_list_writer_snapshot_loads_into_bplustree(self, tmp_path):
        # A B+-tree snapshot whose header names the list leaf loads into
        # the one leaf: the format stores entries, not slab internals.
        src = BPlusTree(CONFIG)
        for i in range(300):
            src.insert(i * 3 % 600, i)
        path = tmp_path / "t.quit"
        assert save_tree(src, path) == len(src)
        _set_leaf_field(path, "list")
        back = load_tree(path, BPlusTree)
        assert type(back) is BPlusTree
        _same_items(back, dict(src.items()))
        back.validate(check_min_fill=False)
        assert back.stats.typed_leaves > 0

    @pytest.mark.parametrize(
        "field", ["btree", "Gapped", ""], ids=["btree", "Gapped", "empty"]
    )
    @pytest.mark.parametrize("version", [1, 2, 3], ids=lambda v: f"v{v}")
    def test_unknown_field_is_rejected(self, tmp_path, version, field):
        path = tmp_path / "t.quit"
        _image(version, path)
        _set_leaf_field(path, field)
        with pytest.raises(PersistenceError, match="malformed header"):
            load_tree(path, QuITTree)
        issues = verify_snapshot(path)
        assert len(issues) == 1 and "malformed header" in issues[0]
        assert repr(field) in issues[0]


def _v3_snapshot(path: Path) -> dict:
    """Three records: two packed int chunks, then a literal one."""
    state = {k: k * k for k in range(2 * CHUNK_PAIRS)}
    state.update({10 ** 6 + i: v for i, v in enumerate(
        ["tab\there", "line\nbreak", None, 2.5, (1, 2), 2 ** 64]
    )})
    tree = BPlusTree(CONFIG)
    tree.update(state.items())
    assert save_tree(tree, path) == len(state)
    return state


def _records(data: bytes) -> tuple[bytes, list[bytes]]:
    """Header line and framed records of a v3 image."""
    head, _, body = data.partition(b"\n")
    records, offset = [], 0
    while offset < len(body):
        end = offset + 8 + int.from_bytes(body[offset:offset + 4], "little")
        records.append(body[offset:end])
        offset = end
    return head + b"\n", records


class TestV3Damage:
    def test_layout_is_wal_framed_chunks(self, tmp_path):
        path = tmp_path / "t.quit"
        state = _v3_snapshot(path)
        head, records = _records(path.read_bytes())
        assert head == f"quit-tree-v3\t{len(state)}\t8\t8\tgapped\n".encode()
        assert [r[8] for r in records] == [
            codec.TAG_PAIRS, codec.TAG_PAIRS, ord("(")
        ]
        parse = parse_segment(b"".join(records))
        assert parse.intact and [len(op[1]) for op in parse.ops] == [
            CHUNK_PAIRS, CHUNK_PAIRS, 6
        ]
        assert verify_snapshot(path) == []
        _same_items(load_tree(path), state)

    def _damaged(self, data: bytes, damage: str) -> bytes:
        head, records = _records(data)
        if damage == "flipped byte":
            mid = len(head) + len(records[0]) + len(records[1]) // 2
            return data[:mid] + bytes([data[mid] ^ 0x10]) + data[mid + 1:]
        if damage == "record cut short":
            return data[:-3]
        if damage == "record missing":
            return head + b"".join(records[:2])
        if damage == "unsorted records":
            return head + b"".join([records[1], records[0], records[2]])
        if damage == "not a chunk":
            return head + b"".join(records) + frame_record(("i", -1, 0))
        raise AssertionError(damage)

    @pytest.mark.parametrize("damage, issue", [
        ("flipped byte", "checksum failure"),
        ("record cut short", "torn record"),
        ("record missing", "declares"),
        ("unsorted records", "not in strictly ascending order"),
        ("not a chunk", "not a chunk"),
    ])
    def test_damage_is_rejected_and_reported(self, tmp_path, damage, issue):
        path = tmp_path / "t.quit"
        _v3_snapshot(path)
        path.write_bytes(self._damaged(path.read_bytes(), damage))
        with pytest.raises(PersistenceError, match=issue):
            load_tree(path)
        issues = verify_snapshot(path)
        assert issues and issue in issues[0]
