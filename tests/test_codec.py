"""Packed integer codec: round trips, the literal fallback, and strict
decoding on the wire and in the WAL."""

from __future__ import annotations

import socket
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DurableTree, QuITTree, TreeConfig, codec
from repro.core.wal import OP_INSERT_MANY, WriteAheadLog, replay_wal
from repro.net import BackgroundServer, QuitClient, protocol

INT32 = 2 ** 31
INT64 = 2 ** 63

#: Integers clustered on the int32 and int64 edges, where the column
#: width flips and where packing must give way to the literal form.
edge_ints = st.one_of(
    st.integers(-INT64, INT64 - 1),
    st.sampled_from([
        0, 1, -1,
        INT32 - 1, INT32, -INT32, -INT32 - 1,
        INT64 - 1, -INT64,
    ]),
    st.integers(INT32 - 3, INT32 + 3),
    st.integers(-INT32 - 3, -INT32 + 3),
)
int_lists = st.lists(edge_ints, min_size=1, max_size=64)
pair_lists = st.lists(st.tuples(edge_ints, edge_ints), min_size=1,
                      max_size=64)


def _same(a, b):
    """Equal, and equal in every container and item type: ``==`` alone
    would let ``True`` pass for ``1``, ``[1]`` for ``(1,)`` and ``0.0``
    for ``-0.0``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return repr(a) == repr(b)


def _literal(obj):
    return protocol.encode_payload(obj) == repr(obj).encode("utf-8")


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(obj=st.one_of(
        int_lists,
        pair_lists,
        st.tuples(pair_lists, st.booleans()),
        st.tuples(int_lists, st.none()),
    ))
    def test_packed_shapes_round_trip(self, obj):
        packed = codec.pack(obj)
        assert packed is not None and codec.is_packed(packed)
        assert _same(codec.unpack(packed), obj)
        assert _same(protocol.decode_payload(protocol.encode_payload(obj)), obj)

    @pytest.mark.parametrize("value,width", [
        (INT32 - 1, 4), (-INT32, 4), (INT32, 8), (-INT32 - 1, 8),
        (INT64 - 1, 8), (-INT64, 8),
    ])
    def test_narrowest_width_per_column(self, value, width):
        packed = codec.pack([(0, value)])
        # tag, count, key column (width 4, one entry), value column.
        assert packed[5] == 4
        assert packed[10] == width
        assert len(packed) == 5 + 1 + 4 + 1 + width

    def test_int32_pairs_take_eight_bytes_per_key(self):
        batch = [(k, k) for k in range(1024)]
        assert len(codec.pack(batch)) == 5 + 2 + 8 * 1024


class TestLiteralFallback:
    @pytest.mark.parametrize("obj", [
        [INT64], [-INT64 - 1], [(1, INT64)], ([INT64], None),
        [True], [1, False], [(True, 1)], [(1, False)], ([(1, True)], True),
        [1.0], [(1, -0.0)], [-0.0],
        ["a"], [(1, "b")], [("a", 1)],
        [((1, 2), 3)], [(1, (2, 3))], [(1, 2, 3)], [(1, 2), (3,)], [[1, 2]],
        [(1, None)], [None], [1, None], ([1], 0), ([1], 2),
        [], ([], None), ([], True),
    ])
    def test_takes_literal_and_round_trips(self, obj):
        assert codec.pack(obj) is None
        assert _literal(obj)
        assert _same(protocol.decode_payload(protocol.encode_payload(obj)), obj)

    @settings(max_examples=100, deadline=None)
    @given(items=st.lists(
        st.tuples(
            st.one_of(st.booleans(), st.integers()),
            st.one_of(st.booleans(), st.integers(), st.none(),
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.text(max_size=3)),
        ),
        min_size=1, max_size=20,
    ))
    def test_bool_never_comes_back_as_int(self, items):
        out = protocol.decode_payload(protocol.encode_payload(items))
        assert _same(out, items)

    @pytest.mark.parametrize("obj", [5, (1, 2), "m", (True, 5), None, {"a": 1}])
    def test_single_key_and_admin_payloads_stay_literal(self, obj):
        assert codec.pack(obj) is None
        assert _literal(obj)


def _malformed():
    good = codec.pack([(1, 2), (3, 4)])
    page = codec.pack(([(1, 2)], True))
    return {
        "short header": good[:3],
        "short column": good[:-1],
        "wrong count": bytes([codec.TAG_PAIRS]) + struct.pack("<I", 3)
        + good[5:],
        "trailing bytes": good + b"\x00",
        "unknown width": good[:5] + b"\x05" + good[6:],
        "unknown tag": b"\x1f" + good[1:],
        "bad done flag": page[:5] + b"\x02" + page[6:],
        # An ints payload retagged as pairs: the value column is absent.
        "missing value column": bytes([codec.TAG_PAIRS])
        + codec.pack([1, 3])[1:],
    }


MALFORMED = _malformed()


class TestStrictDecode:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_codec_error(self, name):
        with pytest.raises(codec.CodecError):
            codec.unpack(MALFORMED[name])

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_protocol_error(self, name):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_payload(MALFORMED[name])

    def test_literal_frames_still_decode(self):
        old = repr([(1, 2), (3, 4)]).encode("utf-8")
        assert protocol.decode_payload(old) == [(1, 2), (3, 4)]


@pytest.fixture
def live(tmp_path):
    durable = DurableTree(QuITTree(TreeConfig(leaf_capacity=8,
                                              internal_capacity=8)),
                          tmp_path / "state", fsync="group")
    with BackgroundServer(durable) as bg:
        yield durable, bg
    durable.close()


def _send_raw(port, op, payload):
    body = struct.pack("!BQd", op, 77, 5.0) + payload
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(struct.pack("!I", len(body)) + body)
        resp = protocol.read_frame_blocking(sock)
    assert resp is not None
    return protocol.decode_response(resp)


class TestServed:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_packed_payload_is_bad_request(self, live, name):
        durable, bg = live
        status, _rid, _boot, _flags, _msg = _send_raw(
            bg.port, protocol.OP_PUT_MANY, MALFORMED[name]
        )
        assert status == protocol.ST_BAD_REQUEST
        assert bg.stats.net_protocol_errors >= 1
        assert len(durable) == 0

    def test_bulk_ops_round_trip_packed_and_literal(self, live):
        _durable, bg = live
        client = QuitClient("127.0.0.1", bg.port, deadline=5.0)
        try:
            assert client.insert_many([(k, -k) for k in range(50)]) == 50
            assert client.insert_many([(100, "x"), (101, None)]) == 2
            assert client.get_many(range(0, 50, 7)) == [
                -k for k in range(0, 50, 7)
            ]
            assert client.get_many([1, 999]) == [-1, None]
            assert client.get_many([100, 101]) == ["x", None]
            assert client.range_query(10, 20) == [(k, -k) for k in range(10, 20)]
            assert client.range_query(90, 200) == [(100, "x"), (101, None)]
        finally:
            client.close()


class TestWALRecords:
    def test_int_batch_is_packed_and_replays(self, tmp_path):
        batch = [(k, k * INT32) for k in range(10)]
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.log_insert_many(batch)
            wal.log_insert_many([(1, "mixed")])
            wal.log_insert(2, 3)
        data = next((tmp_path / "wal").iterdir()).read_bytes()
        assert data[8] == codec.TAG_PAIRS
        res = replay_wal(tmp_path / "wal")
        assert res.clean
        assert res.ops == [
            (OP_INSERT_MANY, batch),
            (OP_INSERT_MANY, [(1, "mixed")]),
            ("i", 2, 3),
        ]

    @pytest.mark.parametrize("payload", [
        MALFORMED["short column"],
        MALFORMED["trailing bytes"],
        codec.pack([1, 2, 3]),  # well-formed, but not a WAL record shape
    ], ids=["short-column", "trailing", "wrong-shape"])
    def test_crc_valid_garbage_packed_record_is_corruption(
        self, tmp_path, payload
    ):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        rec = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        (wal_dir / "wal-00000001.seg").write_bytes(rec)
        res = replay_wal(wal_dir)
        assert res.checksum_failures == 1 and res.records == 0

    def test_recovery_survives_garbage_packed_record(self, tmp_path):
        state = tmp_path / "state"
        durable = DurableTree(QuITTree(), state)
        durable.insert_many([(k, k) for k in range(20)])
        durable.close()
        payload = MALFORMED["unknown width"]
        seg = sorted((state / "wal").iterdir())[-1]
        with open(seg, "ab") as fh:
            fh.write(struct.pack("<II", len(payload), zlib.crc32(payload))
                     + payload)
        recovered, report = DurableTree.recover(state, QuITTree)
        try:
            assert report.checksum_failures == 1
            assert list(recovered.items()) == [(k, k) for k in range(20)]
        finally:
            recovered.close()
