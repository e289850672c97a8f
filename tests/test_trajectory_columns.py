"""A trajectory is its three coordinate columns; point objects are built on demand.

Every way of making a trajectory — from points, from columns, by pickle or
copy, by ``slice()``, or grown fix by fix as an open trajectory — holds the
same ``xs`` / ``ys`` / ``ts`` and gives the same points, length, path length
and canonical bytes.  ``points`` builds each fix at most once, also while an
open trajectory keeps growing, and the stream path builds none at all: not a
streaming executor's pass over the benchmark fleet, not the parent of a
two-shard process service.  Every executor records one ``compute_episode``
latency sample per result, the shape of Figure 17.

The round-trip cases (duplicate and NaN timestamps, antimeridian longitudes,
mismatched columns) must survive the columns losslessly.
"""

from __future__ import annotations

import asyncio
import copy
import math
import os
import pickle
import sys
from pathlib import Path
from typing import List, Optional

import pytest

from repro import api
from repro.core import PipelineConfig
from repro.core.config import StopMoveConfig
from repro.core.errors import DataQualityError
from repro.core.pipeline import PipelineResult
from repro.core.points import RawTrajectory, SpatioTemporalPoint, build_trajectory
from repro.parallel import canonical_bytes
from repro.preprocessing.stops import StopMoveDetector, velocity_stop_flags_arrays
from repro.reference.stops import velocity_stop_flags
from repro.streaming import OpenTrajectory, SessionManager

# The benchmark fleet (bench/fleet.py) lives beside src/ at the checkout root.
_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from bench import fleet  # noqa: E402

#: Worker processes of the pool leg (``1`` runs it on the sequential executor).
TEST_WORKERS = int(os.environ.get("SEMITRI_TEST_WORKERS", "2"))


@pytest.fixture()
def built(monkeypatch) -> List[int]:
    """``built[0]`` counts the ``SpatioTemporalPoint``s this process makes from now on."""
    count = [0]
    init = SpatioTemporalPoint.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SpatioTemporalPoint, "__init__", counting)
    return count


# --------------------------------------------------------------- round trips
class TestRoundTrip:
    def test_ordinary_trajectory_round_trips_losslessly(self):
        trajectory = build_trajectory(
            [(1.25, -2.5, 0.0), (1.375, -2.125, 10.0), (2.0, -1.0, 25.5)],
            object_id="u1",
            trajectory_id="u1-7",
        )
        assert trajectory.xs == [1.25, 1.375, 2.0]
        assert trajectory.ys == [-2.5, -2.125, -1.0]
        assert trajectory.ts == [0.0, 10.0, 25.5]
        rebuilt = RawTrajectory.from_columns(
            trajectory.xs, trajectory.ys, trajectory.ts, object_id="u1", trajectory_id="u1-7"
        )
        assert (rebuilt.object_id, rebuilt.trajectory_id) == ("u1", "u1-7")
        assert rebuilt.points == trajectory.points

    def test_columns_hold_the_numbers_given(self):
        # No conversion on the way in: an integer timestamp stays an int.
        trajectory = RawTrajectory(
            [SpatioTemporalPoint(0.0, 1, 2), SpatioTemporalPoint(3.0, 4.5, 5)]
        )
        assert [type(t) for t in trajectory.ts] == [int, int]
        assert [type(y) for y in trajectory.ys] == [int, float]
        assert type(trajectory.xs) is list

    def test_empty_point_sequence(self):
        with pytest.raises(DataQualityError):
            RawTrajectory([])
        with pytest.raises(DataQualityError):
            RawTrajectory.from_columns([], [], [])

    def test_single_point(self):
        trajectory = RawTrajectory.from_columns([5.0], [6.0], [7.0])
        assert len(trajectory) == 1
        assert trajectory.duration == 0.0
        assert trajectory.length() == 0.0
        assert trajectory.average_sampling_period() == 0.0
        assert trajectory[0].as_tuple() == (5.0, 6.0, 7.0)
        box = trajectory.bounding_box()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (5.0, 6.0, 5.0, 6.0)
        # A lone fix has speed 0: a stop candidate under any positive threshold.
        assert velocity_stop_flags_arrays(
            trajectory.xs, trajectory.ys, trajectory.ts, 1e-9
        ) == [True]

    def test_duplicate_timestamps_survive_and_speeds_are_zero(self):
        trajectory = build_trajectory([(0.0, 0.0, 100.0), (3.0, 4.0, 100.0), (6.0, 8.0, 200.0)])
        assert trajectory.ts == [100.0, 100.0, 200.0]
        assert trajectory[1].as_tuple() == (3.0, 4.0, 100.0)
        # Zero-duration step gets speed 0 (paper convention), not inf/NaN;
        # the other two read 5 / 100.
        assert velocity_stop_flags_arrays(
            trajectory.xs, trajectory.ys, trajectory.ts, 0.01
        ) == [True, False, False]

    def test_nan_timestamp_round_trips_as_nan(self):
        # The monotonicity check only rejects decreasing pairs, so NaN
        # timestamps are representable and must survive the columns.
        trajectory = RawTrajectory(
            [SpatioTemporalPoint(0.0, 0.0, 0.0), SpatioTemporalPoint(1.0, 1.0, math.nan)],
            object_id="nan-user",
        )
        assert math.isnan(trajectory.ts[1])
        for clone in (
            pickle.loads(pickle.dumps(trajectory)),
            RawTrajectory.from_columns(trajectory.xs, trajectory.ys, trajectory.ts),
        ):
            assert math.isnan(clone.ts[1]) and math.isnan(clone[1].t)
            assert clone[1].x == 1.0

    def test_antimeridian_adjacent_longitudes_unchanged(self):
        # Fixes straddling the +/-180 meridian come back exactly as given:
        # no wrapping, no sign normalisation.
        east, west = 179.99999999, -179.99999999
        trajectory = build_trajectory(
            [(east, 10.0, 0.0), (west, 10.1, 60.0), (-180.0, 10.2, 120.0), (180.0, 10.3, 180.0)]
        )
        assert trajectory.xs == [east, west, -180.0, 180.0]
        assert [point.x for point in trajectory] == [east, west, -180.0, 180.0]
        box = trajectory.bounding_box()
        assert box.min_x == -180.0 and box.max_x == 180.0

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(DataQualityError):
            RawTrajectory.from_columns([0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0, 2.0])

    def test_decreasing_timestamps_rejected_from_columns_too(self):
        with pytest.raises(DataQualityError, match="non-decreasing"):
            RawTrajectory.from_columns([0.0, 1.0], [0.0, 1.0], [5.0, 4.0])

    def test_velocity_flags_follow_the_per_point_speed_convention(self):
        trajectory = build_trajectory(
            [(float(i) * 3.0, 0.0, float(i) * 2.0) for i in range(6)]
            + [(15.0, 0.0, 10.0), (15.5, 0.0, 30.0)]
        )
        for threshold in (0.1, 1.5, 1.6):
            assert velocity_stop_flags_arrays(
                trajectory.xs, trajectory.ys, trajectory.ts, threshold
            ) == velocity_stop_flags(trajectory.points, threshold)


# ------------------------------------------------ every construction agrees
_TRIPLES = [(float(i % 7) * 3.5, 2.0 * i - 0.25 * (i % 3), 10.0 * i) for i in range(40)]
_ID = "o-t0"


def _from_points() -> RawTrajectory:
    return build_trajectory(_TRIPLES, object_id="o", trajectory_id=_ID)


def _open() -> OpenTrajectory:
    (x, y, t), *rest = _TRIPLES
    trajectory = OpenTrajectory(x, y, t, object_id="o", trajectory_id=_ID)
    for triple in rest:
        trajectory.append(*triple)
    return trajectory


_CONSTRUCTIONS = {
    "points": _from_points,
    "columns": lambda: RawTrajectory.from_columns(
        *zip(*_TRIPLES), object_id="o", trajectory_id=_ID
    ),
    "pickle": lambda: pickle.loads(pickle.dumps(_from_points(), pickle.HIGHEST_PROTOCOL)),
    "copy": lambda: copy.copy(_from_points()),
    "deepcopy": lambda: copy.deepcopy(_from_points()),
    "open": _open,
    "open-pickled": lambda: pickle.loads(pickle.dumps(_open())),
}


def _canonical(trajectory: RawTrajectory) -> bytes:
    episodes = StopMoveDetector(StopMoveConfig(min_stop_duration=30.0)).segment(trajectory)
    return canonical_bytes([PipelineResult(trajectory=trajectory, episodes=episodes)])


@pytest.mark.parametrize("how", sorted(_CONSTRUCTIONS))
def test_every_construction_holds_the_same_trajectory(how):
    reference = _from_points()
    trajectory = _CONSTRUCTIONS[how]()
    assert (trajectory.object_id, trajectory.trajectory_id) == ("o", _ID)
    assert (trajectory.xs, trajectory.ys, trajectory.ts) == tuple(
        list(column) for column in zip(*_TRIPLES)
    )
    assert len(trajectory) == len(_TRIPLES)
    assert trajectory.length() == reference.length()
    assert (trajectory.start_time, trajectory.end_time) == (0.0, 390.0)
    assert [point.as_tuple() for point in trajectory.points] == _TRIPLES
    assert _canonical(trajectory) == _canonical(reference)
    # A closed trajectory's points are a tuple, an open one's the growing list.
    expected = list if isinstance(trajectory, OpenTrajectory) else tuple
    assert type(trajectory.points) is expected


# ------------------------------------------------------- points are lazy
def test_points_are_built_once_per_fix_and_only_when_read(built):
    trajectory = RawTrajectory.from_columns(*zip(*_TRIPLES), object_id="o")
    clone = pickle.loads(pickle.dumps(trajectory))
    assert (len(trajectory), trajectory.length() > 0, len(clone)) == (40, True, 40)
    assert built[0] == 0, "columns, pickle, len and length() build no point"

    points = trajectory.points
    assert built[0] == 40
    assert trajectory.points is points
    assert list(trajectory) == list(points) and trajectory[7] is points[7]
    assert built[0] == 40, "a second read builds nothing"


def test_the_constructor_keeps_the_callers_points(built):
    points = [SpatioTemporalPoint(*triple) for triple in _TRIPLES]
    built[0] = 0
    trajectory = RawTrajectory(points)
    assert all(ours is theirs for ours, theirs in zip(trajectory.points, points))
    assert built[0] == 0


def test_an_open_trajectory_extends_its_cache_as_it_grows(built):
    (x, y, t), *rest = _TRIPLES
    trajectory = OpenTrajectory(x, y, t, object_id="o")
    for triple in rest[:9]:
        trajectory.append(*triple)
    assert built[0] == 0, "appending floats builds no point"

    early = trajectory.points
    first = list(early)
    assert built[0] == 10
    for triple in rest[9:]:
        trajectory.append(*triple)
    assert built[0] == 10, "growing after a read builds nothing until the next read"

    later = trajectory.points
    assert later is early, "the cache is one list, extended in place"
    assert all(a is b for a, b in zip(later, first)), "the prefix is not rebuilt"
    assert [point.as_tuple() for point in later] == _TRIPLES
    assert built[0] == 40


def test_an_open_trajectory_still_rejects_a_step_back_in_time():
    trajectory = OpenTrajectory(0.0, 0.0, 10.0, object_id="o")
    with pytest.raises(DataQualityError, match="non-decreasing"):
        trajectory.append(1.0, 1.0, 9.0)
    assert len(trajectory) == 1


# ------------------------------------------ the stream path builds no point
def _config(**service: object) -> PipelineConfig:
    """The benchmark's recorded configuration, observability left to the environment."""
    overrides = {
        "streaming.micro_batch_size": 64,
        "streaming.apply_cleaning": True,
        "service.session_budget": 1_000_000,
    }
    overrides.update({f"service.{key}": value for key, value in service.items()})
    return PipelineConfig.for_vehicles().with_overrides(overrides)


@pytest.fixture(scope="module")
def fleet_inputs() -> fleet.Inputs:
    """The benchmark fleet of seed 1: 12,000 events of about 125 objects."""
    return fleet.generate(1, fleet.FULL)


def _stream(context, inputs: fleet.Inputs) -> List[PipelineResult]:
    results: List[PipelineResult] = []
    engine = api.stream(context, on_result=results.append)
    for object_id, point in inputs.ops:
        if point is None:
            engine.close_object(object_id)
        else:
            engine.ingest(object_id, point)
    engine.close_all()
    return results


def _serve(
    context, inputs: fleet.Inputs, built: Optional[List[int]] = None
) -> List[PipelineResult]:
    """Feed the fleet to a service; ``built``, if given, is zeroed after start-up."""

    async def run() -> List[PipelineResult]:
        service = api.serve(context)
        await service.start()
        if built is not None:
            built[0] = 0
        try:
            for object_id, point in inputs.ops:
                if point is None:
                    await service.close_object(object_id)
                else:
                    await service.ingest(object_id, point)
            results = await service.drain()
            assert service.dropped_events == 0 and service.stats.errors == 0
            return results
        finally:
            await service.shutdown()

    return asyncio.run(run())


def test_a_stream_pass_of_the_fleet_builds_no_point(fleet_inputs, built):
    context = fleet.build_context(fleet_inputs, _config())
    built[0] = 0
    results = _stream(context, fleet_inputs)
    assert built[0] == 0
    assert len(results) == 132
    assert sum(len(result.trajectory) for result in results) > 11_000


def test_a_tight_session_budget_evicts_in_per_event_acquire_order(
    fleet_inputs, built, monkeypatch
):
    """The executor buffers ``(object_id, x, y, t)`` and still acquires one
    session per event, in order: with room for 8 sessions it evicts exactly
    the objects a per-event ``SessionManager.acquire`` replay evicts, and the
    pass builds no point."""
    config = _config().with_overrides({"streaming.max_sessions": 8})
    context = fleet.build_context(fleet_inputs, config)
    acquire = SessionManager.acquire
    evicted: List[str] = []

    def recording(self, object_id):
        session, gone = acquire(self, object_id)
        evicted.extend(old.object_id for old in gone)
        return session, gone

    monkeypatch.setattr(SessionManager, "acquire", recording)
    built[0] = 0
    _stream(context, fleet_inputs)
    assert built[0] == 0

    manager = SessionManager(config)
    replayed: List[str] = []
    for object_id, point in fleet_inputs.ops:
        if point is None:
            manager.pop(object_id)
        else:
            replayed.extend(old.object_id for old in acquire(manager, object_id)[1])
    assert len(replayed) > 1_000
    assert evicted == replayed


def test_a_two_shard_process_drain_builds_no_point_in_the_parent(fleet_inputs, built):
    context = fleet.build_context(fleet_inputs, _config(transport="process", shards=2))
    results = _serve(context, fleet_inputs, built)
    assert built[0] == 0
    assert len(results) == 132
    assert all(type(result.trajectory) is RawTrajectory for result in results)


# ------------------------------ Figure 17: one compute_episode per result
def _sequential(inputs: fleet.Inputs) -> List[PipelineResult]:
    return fleet.sequential(fleet.build_context(inputs, _config()), inputs)


def _pool(inputs: fleet.Inputs) -> List[PipelineResult]:
    context = fleet.build_context(inputs, _config())
    raws = [result.trajectory for result in fleet.sequential(context, inputs)]
    return api.annotate_many(raws, context=context, workers=TEST_WORKERS)


def _stream_engine(inputs: fleet.Inputs) -> List[PipelineResult]:
    return _stream(fleet.build_context(inputs, _config()), inputs)


def _thread_service(inputs: fleet.Inputs) -> List[PipelineResult]:
    context = fleet.build_context(inputs, _config(transport="thread", shards=1))
    return _serve(context, inputs)


@pytest.mark.parametrize("run", [_sequential, _pool, _stream_engine, _thread_service])
def test_every_executor_records_one_compute_episode_sample_per_result(fleet_inputs, run):
    """A streaming session adds its detector's time up over its passes and
    records it once, when the trajectory seals — the sample batch records."""
    results = run(fleet_inputs)
    assert len(results) == 132
    for result in results:
        assert result.latency.count("compute_episode") == 1, result.trajectory.trajectory_id
        if result.spans:  # traced runs carry the same number as one span
            names = [span.name for span in result.spans]
            assert names.count("compute_episode") == 1, names
