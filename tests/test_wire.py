"""The binary wire: record codec, WAL file format, frames, and the ack.

Covers :mod:`repro.faults.wire` from both of its users — the journal's files
and the process transport's frames — plus the way a sealed trajectory
pickles on the way back (:meth:`RawTrajectory.__reduce__`).
"""

from __future__ import annotations

import copy
import pickle
import struct
import tempfile
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PipelineConfig
from repro.core.errors import ServiceError
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.faults import IngestJournal, wire
from repro.parallel.canonical import canonical_digest
from repro.service import workers
from repro.service.workers import DRAIN_FRAME, STOP_FRAME, FrameEncoder, decode_frame

_BIG_ID = "å" * (1 << 19)  # 1 MB of UTF-8

_doubles = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
#: What an emitter may hand in for a coordinate: floats, ints, numpy scalars.
_coordinates = st.one_of(
    _doubles,
    st.sampled_from([-0.0, 5e-324, -5e-324, float("nan"), float("inf"), float("-inf")]),
    st.integers(min_value=-(2**62), max_value=2**62),
    _doubles.map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int64),
)
_ids = st.one_of(st.text(max_size=12), st.sampled_from(["", "car-1", "véhicule-é", "车-7"]))
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("event"), _ids, st.tuples(_coordinates, _coordinates, _coordinates)),
        st.tuples(st.just("close"), _ids, st.none()),
        st.tuples(st.just("evict"), st.integers(min_value=0, max_value=2**32 - 1), st.none()),
    ),
    max_size=40,
)


def _bits(value: object) -> bytes:
    """The float64 a coordinate must arrive as, NaN payload and sign included."""
    return struct.pack("<d", float(value))  # type: ignore[arg-type]


def _items(operations) -> List[Tuple[str, object, Optional[SpatioTemporalPoint]]]:
    return [
        (kind, target, None if xyt is None else SpatioTemporalPoint(*xyt))
        for kind, target, xyt in operations
    ]


def _assert_same_ops(decoded, items) -> None:
    assert len(decoded) == len(items)
    for (kind, target, point), (sent_kind, sent_target, sent_point) in zip(decoded, items):
        assert (kind, target) == (sent_kind, sent_target)
        if sent_point is None:
            assert point is None
        else:
            assert [type(v) for v in point.as_tuple()] == [float] * 3
            assert list(map(_bits, point.as_tuple())) == list(map(_bits, sent_point.as_tuple()))


# ------------------------------------------------------------------ round trip
class TestRecordRoundTrip:
    @given(operations=_operations, cuts=st.lists(st.integers(0, 40), max_size=4))
    @example(operations=[("event", _BIG_ID, (1, 2, 3)), ("close", _BIG_ID, None)], cuts=[1])
    @settings(max_examples=60, deadline=None)
    def test_frames_round_trip_whatever_the_batching(self, operations, cuts):
        items = _items(operations)
        bounds = sorted({0, len(items), *(cut for cut in cuts if cut < len(items))})
        encoder = FrameEncoder()
        decoded = []
        for start, stop in zip(bounds, bounds[1:]):
            decoded.extend(decode_frame(encoder.encode_batch(items[start:stop])))
        _assert_same_ops(decoded, items)

    def test_control_frames(self):
        assert decode_frame(DRAIN_FRAME) == [("drain", None, None)]
        assert decode_frame(STOP_FRAME) == [("stop", None, None)]
        assert decode_frame(FrameEncoder().encode_batch([])) == []

    @given(operations=_operations)
    @example(operations=[("event", _BIG_ID, (0.5, -0.0, 7)), ("close", "", None)])
    @settings(max_examples=30, deadline=None)
    def test_journal_round_trip(self, operations):
        journaled = [op for op in operations if op[0] != "evict"]
        with tempfile.TemporaryDirectory() as directory:
            journal = IngestJournal(directory, shards=2)
            origins = []
            for index, (kind, object_id, xyt) in enumerate(journaled):
                if kind == "event":
                    origins.append(
                        journal.append_event(index % 2, object_id, SpatioTemporalPoint(*xyt))
                    )
                else:
                    origins.append(journal.append_close(index % 2, object_id))
            journal.close()
            recovered = IngestJournal(directory, shards=2)
            records = {record.origin: record for record in recovered.pending_records}
            recovered.close()
        assert sorted(records) == sorted(origins)
        for origin, (kind, object_id, xyt) in zip(origins, journaled):
            record = records[origin]
            assert (record.kind, record.object_id) == (kind, object_id)
            if xyt is not None:
                got = (record.x, record.y, record.t)
                assert list(map(_bits, got)) == list(map(_bits, xyt))

    def test_record_is_at_most_48_bytes(self):
        assert wire.RECORD.size <= 48

    def test_a_full_table_starts_over(self, monkeypatch):
        monkeypatch.setattr(wire, "_MAX_SLOTS", 3)
        items = [("close", f"id-{n % 5}", None) for n in range(23)]
        encoder = FrameEncoder()
        assert decode_frame(encoder.encode_batch(items[:9])) == items[:9]
        assert decode_frame(encoder.encode_batch(items[9:])) == items[9:]

    def test_ids_that_are_not_strings_arrive_as_their_str(self):
        frame = FrameEncoder().encode_batch([("close", 7, None), ("evict", 7, None)] * 2)
        assert decode_frame(frame) == [("close", "7", None), ("evict", 7, None)] * 2

    def test_a_frame_that_does_not_decode_to_its_end_raises(self):
        frame = FrameEncoder().encode_batch([("close", "a", None)])
        with pytest.raises(ServiceError, match="undecodable frame"):
            decode_frame(frame[:-1])
        # A slot the stream never defined.
        stray = wire.RECORD.pack(wire.CLOSE, 0, 0, 0, 99, 0.0, 0.0, 0.0)
        with pytest.raises(ServiceError, match="undecodable frame"):
            decode_frame(frame + stray)


# --------------------------------------------------------------------- respawn
@pytest.mark.parametrize("fresh_process", [True, False])
def test_replayed_prefix_defines_ids_anew_after_a_respawn(monkeypatch, fresh_process):
    """A worker dies after N operations; its successor is sent the prefix
    again, then traffic whose ids were first seen before and after the cut.
    The new connection's encoder defines every id again, so the successor —
    a spawned one with an empty table, or a forked one that inherited the
    parent's — reads the same operations."""
    point = SpatioTemporalPoint(1.0, 2.0, 3.0)
    prefix = [("event", "a", point), ("event", "b", point), ("close", "a", None)]
    after = [("event", "c", point), ("event", "b", point), ("event", "a", point)]

    first = FrameEncoder()
    assert decode_frame(first.encode_batch(prefix)) == prefix
    stale = first.encode_batch(after)  # sent to the dying worker, never read

    if fresh_process:
        monkeypatch.setattr(workers, "_incoming", wire.RecordDecoder())
    second = FrameEncoder()  # what ProcessShard._spawn installs
    assert decode_frame(second.encode_batch(prefix)) == prefix
    assert decode_frame(second.encode_batch(after)) == after
    # The dead connection's bytes mean nothing on the new one: ``c`` is slot
    # 2 there and was never defined by the first frame alone.
    if fresh_process:
        monkeypatch.setattr(workers, "_incoming", wire.RecordDecoder())
        with pytest.raises(ServiceError, match="undecodable frame"):
            decode_frame(stale[len(stale) - 3 * wire.RECORD.size :])


# -------------------------------------------------------------- WAL file format
def _small_journal(directory: str) -> List[Tuple[str, str, Tuple[float, float, float]]]:
    """Seven records, three ids (one empty, one non-ASCII), one close."""
    journal = IngestJournal(directory, shards=1, fsync_batch=3)
    for n, object_id in enumerate(["car-1", "véhicule-2", "car-1", "", "véhicule-2", "car-1"]):
        journal.append_event(0, object_id, SpatioTemporalPoint(n + 0.5, -n, 10 * n))
    journal.append_close(0, "car-1")
    journal.close()
    reopened = IngestJournal(directory, shards=1)
    records = [(r.kind, r.object_id, (r.x, r.y, r.t)) for r in reopened.pending_records]
    reopened.close()
    return records


def test_journal_truncated_at_every_byte_offset_reopens_to_a_prefix(tmp_path):
    records = _small_journal(str(tmp_path / "whole"))
    assert len(records) == 7
    data = (tmp_path / "whole" / "shard-0.e1.wal").read_bytes()
    lengths = []
    for size in range(len(data) + 1):
        directory = tmp_path / f"cut-{size}"
        directory.mkdir()
        (directory / "shard-0.e1.wal").write_bytes(data[:size])
        journal = IngestJournal(str(directory), shards=1)  # never raises
        survived = [(r.kind, r.object_id, (r.x, r.y, r.t)) for r in journal.pending_records]
        journal.close()
        assert survived == records[: len(survived)], size
        lengths.append(len(survived))
    assert lengths == sorted(lengths) and lengths[0] == 0 and lengths[-1] == 7
    # A torn record costs that record only: every count is reached.
    assert set(lengths) == set(range(8))


def test_zero_filled_tail_reads_as_torn(tmp_path):
    records = _small_journal(str(tmp_path))
    path = tmp_path / "shard-0.e1.wal"
    path.write_bytes(path.read_bytes() + bytes(4096))
    journal = IngestJournal(str(tmp_path), shards=1)
    assert len(journal.pending_records) == len(records)
    journal.close()


def test_json_lines_journal_is_refused_and_left_on_disk(tmp_path):
    old = tmp_path / "shard-0.e1.wal"
    content = b'["e1:0:1","event","car-1",1.0,2.0,3.0]\n["e1:0:2","close","car-1"]\n'
    old.write_bytes(content)
    with pytest.raises(ServiceError, match=r"shard-0\.e1\.wal.*JSON-lines"):
        IngestJournal(str(tmp_path), shards=1)
    assert old.read_bytes() == content
    assert sorted(path.name for path in tmp_path.iterdir()) == ["shard-0.e1.wal"]


def test_other_format_version_is_refused(tmp_path):
    _small_journal(str(tmp_path))
    path = tmp_path / "shard-0.e1.wal"
    data = path.read_bytes()
    path.write_bytes(data[:7] + b"\x02" + data[8:])
    with pytest.raises(ServiceError, match=r"shard-0\.e1\.wal"):
        IngestJournal(str(tmp_path), shards=1)
    assert path.exists()


def test_service_refuses_to_start_on_a_json_lines_journal(annotation_sources, tmp_path):
    import asyncio

    from repro.service import AnnotationService

    old = tmp_path / "shard-1.e4.wal"
    old.write_text('["e4:1:1","close","car-1"]\n', encoding="utf-8")
    config = PipelineConfig.for_vehicles().with_overrides(
        {"service.shards": 2, "service.journal_dir": str(tmp_path)}
    )
    service = AnnotationService(annotation_sources, config=config)

    async def run() -> None:
        async with service:
            pass

    with pytest.raises(ServiceError, match=r"shard-1\.e4\.wal"):
        asyncio.run(run())
    assert old.exists()


# ------------------------------------------------------------------------- ack
class TestTrajectoryPickle:
    def test_trajectory_travels_as_columns(self):
        points = [SpatioTemporalPoint(float(n), 2.0 * n, 3.0 * n) for n in range(50)]
        trajectory = RawTrajectory(points, object_id="o", trajectory_id="o-t3")
        function, (xs, ys, ts, object_id, trajectory_id) = trajectory.__reduce__()
        assert (xs, ys, ts) == (
            [p.x for p in points],
            [p.y for p in points],
            [p.t for p in points],
        )
        assert function(xs, ys, ts, object_id, trajectory_id).points == tuple(points)
        assert b"SpatioTemporalPoint" not in pickle.dumps(trajectory)  # numbers only
        assert len(pickle.dumps(trajectory)) < len(pickle.dumps(points))

    def test_copies_are_equal_and_independent(self):
        trajectory = RawTrajectory(
            [SpatioTemporalPoint(0.0, 0.0, 0.0), SpatioTemporalPoint(1.0, 1.0, 5.0)],
            object_id="o",
            trajectory_id="o-t0",
        )
        for clone in (copy.deepcopy(trajectory), copy.copy(trajectory)):
            assert type(clone) is RawTrajectory and clone is not trajectory
            assert clone.points == trajectory.points
            assert (clone.object_id, clone.trajectory_id) == ("o", "o-t0")
            assert clone.length() == trajectory.length()

    def test_integer_timestamps_stay_integers(self):
        trajectory = RawTrajectory(
            [SpatioTemporalPoint(1.5, 2, 10), SpatioTemporalPoint(np.float64(2.5), 3.0, 20)]
        )
        clone = pickle.loads(pickle.dumps(trajectory, pickle.HIGHEST_PROTOCOL))
        assert [type(p.t) for p in clone.points] == [int, int]
        assert [type(p.y) for p in clone.points] == [int, float]
        assert type(clone.points[1].x) is np.float64
        assert clone.points == trajectory.points

    def test_an_open_trajectory_arrives_closed(self):
        from repro.streaming import OpenTrajectory

        trajectory = OpenTrajectory(0.0, 0.0, 0.0, "o", "o-t0")
        trajectory.append(1.0, 0.0, 1.0)
        clone = pickle.loads(pickle.dumps(trajectory))
        assert type(clone) is RawTrajectory
        assert isinstance(trajectory.points, list) and isinstance(clone.points, tuple)
        assert clone.points == tuple(trajectory.points)
        # The clone holds columns of its own: the open original still grows alone.
        trajectory.append(2.0, 0.0, 2.0)
        assert (len(trajectory), len(clone), clone.ts) == (3, 2, [0.0, 1.0])

    def test_result_round_trip_keeps_the_canonical_digest(
        self, annotation_sources, car_dataset
    ):
        import repro

        results = repro.annotate_many(
            car_dataset.trajectories[:4], annotation_sources, config=PipelineConfig.for_vehicles()
        )
        clones = pickle.loads(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
        assert canonical_digest(clones) == canonical_digest(results)
        for clone in clones:
            # One trajectory per result, shared by its episodes as before.
            assert all(episode.trajectory is clone.trajectory for episode in clone.episodes)
