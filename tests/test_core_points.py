"""Unit tests for raw trajectories and spatio-temporal points (Definition 1)."""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory, SpatioTemporalPoint, build_trajectory


def _simple_trajectory() -> RawTrajectory:
    return build_trajectory(
        [(0, 0, 0), (3, 4, 10), (6, 8, 20), (6, 8, 30)], object_id="obj", trajectory_id="t0"
    )


class TestSpatioTemporalPoint:
    def test_position_and_tuple(self):
        point = SpatioTemporalPoint(1.0, 2.0, 3.0)
        assert point.position.as_tuple() == (1.0, 2.0)
        assert point.as_tuple() == (1.0, 2.0, 3.0)

    def test_time_delta(self):
        a = SpatioTemporalPoint(0, 0, 10)
        b = SpatioTemporalPoint(0, 0, 25)
        assert a.time_delta(b) == 15
        assert b.time_delta(a) == -15

    def test_speed_to(self):
        a = SpatioTemporalPoint(0, 0, 0)
        b = SpatioTemporalPoint(3, 4, 5)
        assert a.speed_to(b) == pytest.approx(1.0)

    def test_speed_with_zero_time_delta_is_zero(self):
        a = SpatioTemporalPoint(0, 0, 0)
        b = SpatioTemporalPoint(3, 4, 0)
        assert a.speed_to(b) == 0.0

    @given(*[st.floats(allow_nan=False, allow_infinity=False)] * 4)
    @example(5e-324, -5e-324, 2.2e-308, 0.0)  # subnormal differences
    @example(1e308, -1e308, 1e308, 1e308)  # dx and dx*dx overflow
    @example(0.0, -0.0, -0.0, 0.0)  # signed zeros
    def test_distance_to_is_point_distance_bit_for_bit(self, ax, ay, bx, by):
        a = SpatioTemporalPoint(ax, ay, 0.0)
        b = SpatioTemporalPoint(bx, by, 1.0)
        ours = a.distance_to(b)
        theirs = a.position.distance_to(b.position)
        assert struct.pack("<d", ours) == struct.pack("<d", theirs)


class TestRawTrajectory:
    def test_empty_trajectory_rejected(self):
        with pytest.raises(DataQualityError):
            RawTrajectory([], object_id="x")

    def test_non_monotonic_timestamps_rejected(self):
        points = [SpatioTemporalPoint(0, 0, 10), SpatioTemporalPoint(0, 0, 5)]
        with pytest.raises(DataQualityError):
            RawTrajectory(points)

    def test_basic_accessors(self):
        trajectory = _simple_trajectory()
        assert len(trajectory) == 4
        assert trajectory.start_time == 0
        assert trajectory.end_time == 30
        assert trajectory.duration == 30
        assert trajectory.object_id == "obj"
        assert trajectory.trajectory_id == "t0"

    def test_length_is_path_length(self):
        trajectory = _simple_trajectory()
        assert trajectory.length() == pytest.approx(10.0)

    def test_average_sampling_period(self):
        trajectory = _simple_trajectory()
        assert trajectory.average_sampling_period() == pytest.approx(10.0)

    def test_single_point_sampling_period_is_zero(self):
        trajectory = build_trajectory([(0, 0, 0)])
        assert trajectory.average_sampling_period() == 0.0

    def test_bounding_box(self):
        box = _simple_trajectory().bounding_box()
        assert box.min_x == 0 and box.max_x == 6
        assert box.min_y == 0 and box.max_y == 8

    def test_iteration_and_indexing(self):
        trajectory = _simple_trajectory()
        assert trajectory[0].t == 0
        assert [point.t for point in trajectory] == [0, 10, 20, 30]

    def test_slice(self):
        trajectory = _simple_trajectory()
        part = trajectory.slice(1, 3)
        assert len(part) == 2
        assert part[0].t == 10
        assert part.object_id == "obj"

    def test_slice_invalid_range_raises(self):
        trajectory = _simple_trajectory()
        with pytest.raises(IndexError):
            trajectory.slice(3, 1)
        with pytest.raises(IndexError):
            trajectory.slice(0, 10)

    def test_points_between(self):
        trajectory = _simple_trajectory()
        selected = trajectory.points_between(5, 25)
        assert [point.t for point in selected] == [10, 20]

    def test_default_trajectory_id(self):
        trajectory = RawTrajectory([SpatioTemporalPoint(0, 0, 0)], object_id="car7")
        assert trajectory.trajectory_id == "car7-0"

    def test_equal_timestamps_allowed(self):
        points = [SpatioTemporalPoint(0, 0, 5), SpatioTemporalPoint(1, 1, 5)]
        trajectory = RawTrajectory(points)
        assert trajectory.duration == 0
