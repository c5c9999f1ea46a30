"""WAL unit tests: framing, fsync policies, rotation, and every
damaged-log edge case replay must tolerate."""

import struct
from pathlib import Path
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wal as wal_module
from repro.core.wal import (
    WALError,
    WriteAheadLog,
    _decode,
    _encode,
    repair_wal,
    replay_wal,
    segment_paths,
)
from repro.testing import FaultError, faults


@pytest.fixture
def wal_dir(tmp_path):
    return tmp_path / "wal"


def fill(wal, n=10):
    for i in range(n):
        wal.log_insert(i, f"v{i}")


class TestAppendAndReplay:
    def test_round_trip_all_op_kinds(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            wal.log_insert(1, "one")
            wal.log_delete(2)
            wal.log_insert_many([(3, None), (4, (4, "four"))])
        res = replay_wal(wal_dir)
        assert res.clean
        assert res.ops == [
            ("i", 1, "one"),
            ("d", 2),
            ("m", [(3, None), (4, (4, "four"))]),
        ]
        assert res.records == 3

    def test_empty_directory_replays_empty(self, wal_dir):
        res = replay_wal(wal_dir)
        assert res.clean
        assert res.ops == []
        assert res.segments_scanned == 0

    def test_empty_segment_replays_empty(self, wal_dir):
        # A WAL opened and closed without appends: directory exists but
        # holds no segment (segments are created lazily).
        wal = WriteAheadLog(wal_dir)
        wal.close()
        res = replay_wal(wal_dir)
        assert res.clean and res.ops == []
        # A zero-byte segment file is equally fine.
        (wal_dir / "wal-00000001.seg").write_bytes(b"")
        res = replay_wal(wal_dir)
        assert res.clean and res.ops == [] and res.segments_scanned == 1

    def test_non_literal_value_rejected_before_logging(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        with pytest.raises(WALError):
            wal.log_insert(1, object())
        wal.close()
        assert replay_wal(wal_dir).ops == []  # nothing half-written

    def test_successive_appenders_replay_in_order(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            wal.log_insert(1, "a")
        with WriteAheadLog(wal_dir) as wal:  # new segment, same log
            wal.log_insert(2, "b")
        res = replay_wal(wal_dir)
        assert [op[1] for op in res.ops] == [1, 2]
        assert res.segments_scanned == 2


#: Field values of the exact types ``_encode`` trusts without a parse.
plain_fields = st.one_of(
    st.integers(),
    st.text(),
    st.sampled_from(["\ud800", "tab\there", "\x00", "'\"", "\\"]),
    st.booleans(),
    st.none(),
)


class TestPlainRecordEncoding:
    @settings(max_examples=300, deadline=None)
    @given(key=plain_fields, value=plain_fields)
    def test_exact_scalar_records_round_trip(self, key, value):
        for op in (("i", key, value), ("d", key), ("e", key)):
            back = _decode(_encode(op))
            assert back == op
            assert list(map(type, back)) == list(map(type, op))

    def test_only_exact_scalar_records_skip_the_parse(self, monkeypatch):
        parsed = []
        real = wal_module.ast.literal_eval
        monkeypatch.setattr(
            wal_module.ast, "literal_eval",
            lambda text: parsed.append(text) or real(text),
        )
        _encode(("i", 1, "one"))
        _encode(("d", None))
        _encode(("e", 7))
        assert parsed == []
        _encode(("i", 1, 2.5))
        _encode(("i", 1, (1, 2)))
        _encode(("m", [(1, "x")]))
        assert len(parsed) == 3

    def test_non_round_tripping_fields_are_still_refused(self):
        class Shouty(int):
            def __repr__(self) -> str:
                return "<shouty>"

        for bad in (float("nan"), float("inf"), Shouty(3)):
            with pytest.raises(WALError):
                _encode(("i", 1, bad))


class TestFsyncPoliciesAndRotation:
    def test_always_syncs_every_append(self, wal_dir):
        wal = WriteAheadLog(wal_dir, fsync="always")
        fill(wal, 5)
        assert wal.syncs == 5
        wal.close()

    def test_interval_syncs_every_n(self, wal_dir):
        n = wal_module._FSYNC_INTERVAL
        wal = WriteAheadLog(wal_dir, fsync="interval")
        fill(wal, 2 * n + 2)
        assert wal.syncs == 2  # at appends n and 2n
        wal.close()
        assert wal.syncs == 3  # close always syncs

    def test_none_never_syncs_until_close(self, wal_dir):
        wal = WriteAheadLog(wal_dir, fsync="none")
        fill(wal, 10)
        assert wal.syncs == 0
        wal.close()

    def test_bad_policy_rejected(self, wal_dir):
        with pytest.raises(WALError):
            WriteAheadLog(wal_dir, fsync="sometimes")

    def test_rotation_caps_segment_size(self, wal_dir):
        wal = WriteAheadLog(wal_dir, segment_bytes=128)
        fill(wal, 30)
        wal.close()
        segs = segment_paths(wal_dir)
        assert len(segs) > 1
        assert all(s.stat().st_size <= 128 for s in segs)
        res = replay_wal(wal_dir)
        assert res.clean and res.records == 30

    def test_truncate_removes_all_segments(self, wal_dir):
        wal = WriteAheadLog(wal_dir, segment_bytes=128)
        fill(wal, 30)
        removed = wal.truncate()
        assert removed >= 2
        assert segment_paths(wal_dir) == []
        wal.log_insert(99, "after")  # appender survives truncation
        wal.close()
        assert [op[1] for op in replay_wal(wal_dir).ops] == [99]


class TestDamagedLogs:
    """Satellite: empty log, truncated length prefix, flipped byte —
    replay stops cleanly and reports, never raises."""

    def make_log(self, wal_dir, n=10):
        with WriteAheadLog(wal_dir) as wal:
            fill(wal, n)
        (seg,) = segment_paths(wal_dir)
        return seg

    def test_truncated_length_prefix(self, wal_dir):
        seg = self.make_log(wal_dir)
        data = seg.read_bytes()
        seg.write_bytes(data[: len(data) - len(data) // 3])  # mid-record
        res = replay_wal(wal_dir)
        assert res.truncated_tail
        assert 0 < res.records < 10
        assert res.tail_bytes_dropped > 0
        assert res.checksum_failures == 0
        # Degenerate torn tail: fewer bytes than one header.
        seg.write_bytes(data[: 5])
        res = replay_wal(wal_dir)
        assert res.truncated_tail and res.records == 0
        assert res.tail_bytes_dropped == 5

    def test_truncated_payload(self, wal_dir):
        seg = self.make_log(wal_dir, n=1)
        data = seg.read_bytes()
        seg.write_bytes(data[:-1])
        res = replay_wal(wal_dir)
        assert res.truncated_tail and res.records == 0

    def test_flipped_payload_byte(self, wal_dir):
        seg = self.make_log(wal_dir)
        data = bytearray(seg.read_bytes())
        # Flip one byte inside the *last* record's payload.
        length, _ = struct.unpack_from("<II", data, 0)
        data[-2] ^= 0xFF
        seg.write_bytes(bytes(data))
        res = replay_wal(wal_dir)
        assert res.checksum_failures == 1
        assert res.records == 9
        assert not res.truncated_tail
        assert res.tail_bytes_dropped == 8 + length  # header + payload

    def test_flipped_byte_mid_log_drops_later_records_too(self, wal_dir):
        seg = self.make_log(wal_dir)
        data = bytearray(seg.read_bytes())
        data[10] ^= 0x01  # first record's payload
        seg.write_bytes(bytes(data))
        res = replay_wal(wal_dir)
        assert res.records == 0
        assert res.checksum_failures == 1
        assert res.tail_bytes_dropped == len(data)

    def test_damage_in_early_segment_drops_later_segments(self, wal_dir):
        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        segs = segment_paths(wal_dir)
        assert len(segs) >= 3
        data = bytearray(segs[0].read_bytes())
        data[-1] ^= 0x10
        segs[0].write_bytes(bytes(data))
        res = replay_wal(wal_dir)
        assert res.corrupt_segment == segs[0]
        later = sum(s.stat().st_size for s in segs[1:])
        assert res.tail_bytes_dropped >= later

    def test_crc_valid_but_undecodable_payload(self, wal_dir):
        seg = wal_dir
        seg.mkdir()
        payload = b"not a python literal ]["
        rec = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        (wal_dir / "wal-00000001.seg").write_bytes(rec)
        res = replay_wal(wal_dir)
        assert res.checksum_failures == 1 and res.records == 0


class TestRepair:
    def test_repair_trims_to_last_valid_record(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            fill(wal, 10)
        (seg,) = segment_paths(wal_dir)
        data = seg.read_bytes()
        seg.write_bytes(data[:-3])  # torn tail
        res = replay_wal(wal_dir)
        repair_wal(wal_dir, res)
        assert seg.stat().st_size == res.valid_offset
        # Appends after repair are visible to the next replay.
        with WriteAheadLog(wal_dir) as wal:
            wal.log_insert(777, "post-repair")
        res2 = replay_wal(wal_dir)
        assert res2.clean
        assert res2.ops[-1] == ("i", 777, "post-repair")
        assert res2.records == res.records + 1

    def test_repair_deletes_segments_after_the_damage(self, wal_dir):
        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        segs = segment_paths(wal_dir)
        data = bytearray(segs[0].read_bytes())
        data[-1] ^= 0x10
        segs[0].write_bytes(bytes(data))
        res = replay_wal(wal_dir)
        repair_wal(wal_dir, res)
        assert segment_paths(wal_dir) == [segs[0]]
        assert replay_wal(wal_dir).clean

    def test_repair_of_clean_log_is_a_no_op(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            fill(wal, 3)
        before = [(s, s.stat().st_size) for s in segment_paths(wal_dir)]
        res = replay_wal(wal_dir)
        repair_wal(wal_dir, res)
        assert [(s, s.stat().st_size) for s in segment_paths(wal_dir)] == before

    def test_replay_stops_at_a_missing_middle_segment(self, wal_dir):
        """A gap in the segment sequence ends replay: the post-gap
        records are newer than the hole they sit behind, so applying
        them would reorder history."""
        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        segs = segment_paths(wal_dir)
        assert len(segs) >= 4
        pre_gap = replay_wal(wal_dir)  # ground truth before the damage
        gap_records = len(
            replay_wal(wal_dir).ops
        )  # full count, for contrast below
        segs[1].unlink()
        res = replay_wal(wal_dir)
        assert not res.clean
        assert res.sequence_gap
        assert res.corrupt_segment == segs[2]  # first orphaned segment
        assert res.segments_scanned == 1  # only the pre-gap prefix
        assert len(res.ops) < gap_records
        # Every surviving op is a prefix of the undamaged history.
        assert res.ops == pre_gap.ops[: len(res.ops)]

    def test_repair_after_gap_deletes_orphaned_segments(self, wal_dir):
        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        segs = segment_paths(wal_dir)
        segs[1].unlink()
        res = replay_wal(wal_dir)
        repair_wal(wal_dir, res)
        # Only the consecutive clean prefix survives, whole: a gap
        # repair never truncates inside a segment.
        assert segment_paths(wal_dir) == [segs[0]]
        after = replay_wal(wal_dir)
        assert after.clean
        assert after.ops == res.ops
        # The log accepts appends again and replays them.
        with WriteAheadLog(wal_dir) as wal:
            wal.log_insert(777, "post-gap-repair")
        assert replay_wal(wal_dir).ops[-1] == ("i", 777, "post-gap-repair")

    def test_corruption_and_gap_across_segments_stops_at_first(
        self, wal_dir
    ):
        """Multi-segment damage: a checksum failure in an early segment
        wins over a gap later in the sequence — replay is strictly
        prefix-valid and repair acts on the first damage only."""
        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 40)
        segs = segment_paths(wal_dir)
        assert len(segs) >= 5
        data = bytearray(segs[1].read_bytes())
        data[-1] ^= 0x10
        segs[1].write_bytes(bytes(data))
        segs[3].unlink()
        res = replay_wal(wal_dir)
        assert not res.clean
        assert not res.sequence_gap  # the CRC damage came first
        assert res.corrupt_segment == segs[1]
        repair_wal(wal_dir, res)
        survivors = segment_paths(wal_dir)
        assert survivors == segs[:2]
        assert replay_wal(wal_dir).clean


class TestWALFailpoints:
    def test_raise_mode_surfaces_and_log_stays_consistent(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        wal.log_insert(1, "a")
        with faults.inject("wal.before_fsync", "raise"):
            with pytest.raises(FaultError):
                wal.log_insert(2, "b")
        wal.log_insert(3, "c")
        wal.close()
        res = replay_wal(wal_dir)
        # Record 2 was written before its fsync failed; all three are
        # intact — the point is no *framing* damage occurred.
        assert res.clean and [op[1] for op in res.ops] == [1, 2, 3]

    def test_crash_before_append_loses_only_that_record(self, wal_dir):
        from repro.testing import SimulatedCrash

        wal = WriteAheadLog(wal_dir)
        wal.log_insert(1, "a")
        with faults.inject("wal.before_append", "crash"):
            with pytest.raises(SimulatedCrash):
                wal.log_insert(2, "b")
        res = replay_wal(wal_dir)
        assert res.clean and [op[1] for op in res.ops] == [1]


class TestContextManagerExit:
    def test_exit_flushes_on_keyboard_interrupt(self, wal_dir):
        """An interrupt leaves a *live* process, so __exit__ must still
        close and fsync — only SimulatedCrash models a dead one."""
        wal = WriteAheadLog(wal_dir, fsync="interval")
        with pytest.raises(KeyboardInterrupt):
            with wal:
                wal.log_insert(1, "a")
                raise KeyboardInterrupt
        assert wal._fh is None  # closed → final flush/fsync happened
        assert wal.syncs >= 1

    def test_exit_skips_close_on_simulated_crash(self, wal_dir):
        from repro.testing import SimulatedCrash

        wal = WriteAheadLog(wal_dir, fsync="none")
        with pytest.raises(SimulatedCrash):
            with wal:
                wal.log_insert(1, "a")
                raise SimulatedCrash("simulated crash")
        assert wal._fh is not None  # a dead process flushes nothing
        wal._fh.close()

class TestWALReader:
    """Streaming reads for replication: resume cursors, rotation,
    tailing semantics, truncation detection."""

    def read_all(self, wal_dir, position=None):
        from repro.core.wal import WALPosition, WALReader

        reader = WALReader(wal_dir)
        return reader.read(position or WALPosition(1, 0))

    def test_reads_records_with_positions(self, wal_dir):
        from repro.core.wal import WALPosition, WALReader

        with WriteAheadLog(wal_dir) as wal:
            fill(wal, 5)
        records, resume = WALReader(wal_dir).read(WALPosition(1, 0))
        assert len(records) == 5
        assert [r.op for r in records] == replay_wal(wal_dir).ops
        assert all(r.verify() for r in records)
        # Positions chain: each record starts where the previous ended.
        for a, b in zip(records, records[1:]):
            assert a.next_position == b.position
        assert resume == records[-1].next_position

    def test_resume_from_mid_stream_position(self, wal_dir):
        from repro.core.wal import WALPosition, WALReader

        with WriteAheadLog(wal_dir) as wal:
            fill(wal, 8)
        reader = WALReader(wal_dir)
        first, resume = reader.read(WALPosition(1, 0), max_records=3)
        rest, _ = reader.read(resume)
        assert len(first) == 3 and len(rest) == 5
        ops = [r.op for r in first + rest]
        assert ops == replay_wal(wal_dir).ops

    def test_read_follows_rotation(self, wal_dir):
        from repro.core.wal import WALPosition, WALReader

        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        assert len(segment_paths(wal_dir)) >= 3
        reader = WALReader(wal_dir)
        records = []
        pos = WALPosition(1, 0)
        while True:
            batch, pos = reader.read(pos, max_records=4)
            if not batch:
                break
            records.extend(batch)
        assert [r.op for r in records] == replay_wal(wal_dir).ops

    def test_inflight_tail_returns_cleanly(self, wal_dir):
        """An incomplete record at the tail of the *last* segment is an
        append in flight, not damage: the reader stops before it."""
        from repro.core.wal import WALPosition, WALReader

        with WriteAheadLog(wal_dir) as wal:
            fill(wal, 3)
        (seg,) = segment_paths(wal_dir)
        with seg.open("ab") as fh:
            fh.write(b"\x99\x00\x00\x00")  # half a header
        records, resume = WALReader(wal_dir).read(WALPosition(1, 0))
        assert len(records) == 3
        assert resume == records[-1].next_position  # stops before it

    def test_torn_tail_in_nonlast_segment_is_an_error(self, wal_dir):
        from repro.core.wal import WALPosition, WALReader, WALStreamError

        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        segs = segment_paths(wal_dir)
        assert len(segs) >= 3
        data = segs[0].read_bytes()
        segs[0].write_bytes(data[:-3])
        with pytest.raises(WALStreamError):
            WALReader(wal_dir).read(WALPosition(1, 0))

    def test_corrupt_record_is_a_stream_error(self, wal_dir):
        from repro.core.wal import WALPosition, WALReader, WALStreamError

        with WriteAheadLog(wal_dir) as wal:
            fill(wal, 5)
        (seg,) = segment_paths(wal_dir)
        data = bytearray(seg.read_bytes())
        data[10] ^= 0x01
        seg.write_bytes(bytes(data))
        # CRC damage below the tail must never be served as data.
        with pytest.raises(WALStreamError):
            WALReader(wal_dir).read(WALPosition(1, 0))

    def test_position_below_first_segment_is_truncated(self, wal_dir):
        from repro.core.wal import (
            WALPosition,
            WALReader,
            WALTruncatedError,
        )

        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        segs = segment_paths(wal_dir)
        segs[0].unlink()  # a checkpoint reclaimed the oldest segment
        with pytest.raises(WALTruncatedError):
            WALReader(wal_dir).read(WALPosition(1, 0))

    def test_missing_middle_segment_is_a_stream_error(self, wal_dir):
        """The reader stops at a gap where replay stops, instead of
        serving the records behind it."""
        from repro.core.wal import WALPosition, WALReader, WALStreamError

        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        segs = segment_paths(wal_dir)
        assert len(segs) >= 3
        segs[1].unlink()
        assert replay_wal(wal_dir).sequence_gap
        with pytest.raises(WALStreamError, match="sequence gap"):
            WALReader(wal_dir).read(WALPosition(1, 0))

    def test_position_past_segment_end_is_truncated(self, wal_dir):
        from repro.core.wal import (
            WALPosition,
            WALReader,
            WALTruncatedError,
        )

        with WriteAheadLog(wal_dir) as wal:
            fill(wal, 4)
        (seg,) = segment_paths(wal_dir)
        end = seg.stat().st_size
        assert WALReader(wal_dir).read(WALPosition(1, end)) == (
            [], WALPosition(1, end)
        )
        with pytest.raises(WALTruncatedError):
            WALReader(wal_dir).read(WALPosition(1, end + 1))

    def test_position_at_tail_returns_empty(self, wal_dir):
        from repro.core.wal import WALReader

        wal = WriteAheadLog(wal_dir)
        fill(wal, 4)
        tail = wal.tail_position()
        records, resume = WALReader(wal_dir).read(tail)
        assert records == [] and resume == tail
        wal.close()

    def test_bytes_behind(self, wal_dir):
        from repro.core.wal import WALPosition, WALReader

        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        reader = WALReader(wal_dir)
        total = sum(s.stat().st_size for s in segment_paths(wal_dir))
        assert reader.bytes_behind(WALPosition(1, 0)) == total
        _, resume = reader.read(WALPosition(1, 0))
        assert reader.bytes_behind(resume) == 0

    def test_first_position(self, wal_dir):
        from repro.core.wal import WALPosition, first_position

        assert first_position(wal_dir) is None
        with WriteAheadLog(wal_dir, segment_bytes=128) as wal:
            fill(wal, 30)
        assert first_position(wal_dir) == WALPosition(1, 0)
        segment_paths(wal_dir)[0].unlink()
        assert first_position(wal_dir).segment > 1


class TestDirectoryFsync:
    """Satellite regression: segment create/unlink/rewrite must be
    followed by an fsync of the WAL directory itself, or the *names*
    can vanish in a crash even though the data was synced."""

    def _spy(self, monkeypatch):
        import repro.core.wal as wal_mod

        calls = []
        real = wal_mod._fsync_dir

        def spy(directory):
            calls.append(Path(directory))
            real(directory)

        monkeypatch.setattr(wal_mod, "_fsync_dir", spy)
        return calls

    def test_truncate_fsyncs_directory(self, wal_dir, monkeypatch):
        wal = WriteAheadLog(wal_dir, segment_bytes=128)
        fill(wal, 30)
        calls = self._spy(monkeypatch)
        wal.truncate()
        assert wal_dir in calls
        wal.close()

    def test_repair_fsyncs_directory(self, wal_dir, monkeypatch):
        with WriteAheadLog(wal_dir) as wal:
            fill(wal, 10)
        (seg,) = segment_paths(wal_dir)
        seg.write_bytes(seg.read_bytes()[:-3])
        res = replay_wal(wal_dir)
        calls = self._spy(monkeypatch)
        repair_wal(wal_dir, res)
        assert wal_dir in calls

    def test_rotation_fsyncs_directory(self, wal_dir, monkeypatch):
        wal = WriteAheadLog(wal_dir, segment_bytes=128)
        calls = self._spy(monkeypatch)
        fill(wal, 30)
        assert wal_dir in calls  # every new segment name made durable
        wal.close()
