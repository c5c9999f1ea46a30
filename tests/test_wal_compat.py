"""Logs written before the packed WAL encoding still replay.

``fixtures/wal_literal_v1`` is a durability root (a ``wal/`` directory,
no snapshot) written by the literal-only record encoder.  In order, its
records are::

    ("e", 1)
    ("m", [(0, 0), (2, 20), ..., (38, 380)])    # k -> 10 * k, even k < 40
    ("i", 5, "five")
    ("i", 7, -7)
    ("d", 4)
    ("m", [(100, 1.5), (101, 2 ** 40), (102, None)])
    ("e", 1)                                    # restart, same tenure
    ("d", 999)                                  # absent key
    ("m", [(3, 30), (1, 10), (6, -6)])
    ("i", 2, (2, "two"))

Every test works on a copy: recovery repairs and appends to the log.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core import DurableTree, QuITTree, TreeConfig, codec
from repro.core.wal import replay_wal, segment_paths
from repro.replication import InProcessTransport, Primary, Replica

FIXTURE = Path(__file__).parent / "fixtures" / "wal_literal_v1"
CONFIG = TreeConfig(leaf_capacity=8, internal_capacity=8)


def _expected() -> dict:
    state = {k: 10 * k for k in range(0, 40, 2)}
    state.update({5: "five", 7: -7})
    del state[4]
    state.update({100: 1.5, 101: 2 ** 40, 102: None})
    state.update({3: 30, 1: 10, 6: -6})
    state[2] = (2, "two")
    return state


EXPECTED = _expected()


@pytest.fixture
def state(tmp_path):
    root = tmp_path / "state"
    shutil.copytree(FIXTURE, root)
    return root


def test_fixture_is_literal_only():
    (seg,) = segment_paths(FIXTURE / "wal")
    data = seg.read_bytes()
    res = replay_wal(FIXTURE / "wal")
    assert res.clean and res.records == 10
    offset = 0
    while offset < len(data):
        length = int.from_bytes(data[offset:offset + 4], "little")
        assert not codec.is_packed(data[offset + 8:offset + 8 + length])
        offset += 8 + length


def test_recover_replays_literal_log_exactly(state):
    durable, report = DurableTree.recover(state, QuITTree, CONFIG)
    try:
        assert report.clean
        assert report.records_replayed == 10
        assert report.epoch_markers == 2 and report.last_epoch == 1
        assert dict(durable.items()) == EXPECTED
    finally:
        durable.close()


def test_packed_records_after_literal_log_replay(state):
    durable, _ = DurableTree.recover(state, QuITTree, CONFIG)
    durable.insert_many([(k, k * k) for k in range(40, 80)])
    durable.insert_many([(6, 2 ** 40), (200, -1)])  # int64 value column
    durable.delete(8)
    durable.close()
    packed = [
        seg for seg in segment_paths(state / "wal")
        if codec.is_packed(seg.read_bytes()[8:9])
    ]
    assert packed, "the new segment should open with a packed record"
    expected = dict(EXPECTED)
    expected.update({k: k * k for k in range(40, 80)})
    expected.update({6: 2 ** 40, 200: -1})
    del expected[8]
    again, report = DurableTree.recover(state, QuITTree, CONFIG)
    try:
        assert report.clean
        assert dict(again.items()) == expected
    finally:
        again.close()


def test_replica_catches_up_across_mixed_records(state, tmp_path):
    durable, _ = DurableTree.recover(state, QuITTree, CONFIG, fsync="none")
    primary = Primary(durable, node_id="node0", epoch=1)
    primary.insert_many([(k, -k) for k in range(300, 340)])
    primary.insert(41, "literal")
    replica = Replica(
        tmp_path / "replica",
        InProcessTransport(primary),
        tree_class=QuITTree,
        config=CONFIG,
        name="replica0",
    )
    try:
        replica.bootstrap()
        replica.catch_up()
        expected = dict(EXPECTED)
        expected.update({k: -k for k in range(300, 340)})
        expected[41] = "literal"
        assert dict(replica.durable.items()) == expected
        assert replica.epoch == 1
    finally:
        replica.close()
        primary.close()
