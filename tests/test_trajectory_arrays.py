"""Round-trip and edge-case coverage for the columnar trajectory structures.

The ``from_trajectory`` → ``to_trajectory`` round trip must be lossless for
every float the pipeline can encounter: ordinary fixes, duplicate timestamps,
NaN timestamps (which :class:`RawTrajectory` accepts, since its monotonicity
check only rejects *decreasing* pairs), and antimeridian-adjacent longitudes
that naive wrapping logic would mangle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.arrays import TrajectoryArrays
from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory, SpatioTemporalPoint, build_trajectory


class TestRoundTrip:
    def test_ordinary_trajectory_round_trips_losslessly(self):
        trajectory = build_trajectory(
            [(1.25, -2.5, 0.0), (1.375, -2.125, 10.0), (2.0, -1.0, 25.5)],
            object_id="u1",
            trajectory_id="u1-7",
        )
        arrays = TrajectoryArrays.from_trajectory(trajectory)
        rebuilt = arrays.to_trajectory()
        assert rebuilt.object_id == "u1"
        assert rebuilt.trajectory_id == "u1-7"
        assert [p.as_tuple() for p in rebuilt.points] == [
            p.as_tuple() for p in trajectory.points
        ]

    def test_columns_are_contiguous_float64(self):
        arrays = TrajectoryArrays.from_points(
            [SpatioTemporalPoint(0.0, 1.0, 2.0), SpatioTemporalPoint(3.0, 4.0, 5.0)]
        )
        for column in (arrays.xs, arrays.ys, arrays.ts):
            assert column.dtype == np.float64
            assert column.flags["C_CONTIGUOUS"]

    def test_empty_point_sequence(self):
        arrays = TrajectoryArrays.from_points([])
        assert len(arrays) == 0
        assert arrays.to_points() == []
        assert arrays.duration == 0.0
        with pytest.raises(DataQualityError):
            arrays.to_trajectory()
        with pytest.raises(DataQualityError):
            arrays.bounding_box()

    def test_single_point(self):
        arrays = TrajectoryArrays.from_points([SpatioTemporalPoint(5.0, 6.0, 7.0)])
        assert len(arrays) == 1
        assert arrays.speeds.tolist() == [0.0]
        assert arrays.duration == 0.0
        rebuilt = arrays.to_trajectory()
        assert len(rebuilt) == 1
        assert rebuilt[0].as_tuple() == (5.0, 6.0, 7.0)
        box = arrays.bounding_box()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (5.0, 6.0, 5.0, 6.0)

    def test_duplicate_timestamps_survive_and_speeds_are_zero(self):
        points = [
            SpatioTemporalPoint(0.0, 0.0, 100.0),
            SpatioTemporalPoint(3.0, 4.0, 100.0),  # duplicate timestamp
            SpatioTemporalPoint(6.0, 8.0, 200.0),
        ]
        arrays = TrajectoryArrays.from_points(points)
        assert arrays.ts.tolist() == [100.0, 100.0, 200.0]
        # Zero-duration step gets speed 0 (paper convention), not inf/NaN.
        assert arrays.speeds[0] == 0.0
        assert arrays.to_trajectory()[1].as_tuple() == (3.0, 4.0, 100.0)

    def test_nan_timestamp_round_trips_as_nan(self):
        # RawTrajectory's monotonicity check only rejects decreasing pairs, so
        # NaN timestamps are representable and must survive columnarisation.
        trajectory = RawTrajectory(
            [
                SpatioTemporalPoint(0.0, 0.0, 0.0),
                SpatioTemporalPoint(1.0, 1.0, float("nan")),
            ],
            object_id="nan-user",
        )
        arrays = TrajectoryArrays.from_trajectory(trajectory)
        assert math.isnan(float(arrays.ts[1]))
        rebuilt = arrays.to_trajectory()
        assert math.isnan(rebuilt[1].t)
        assert rebuilt[1].x == 1.0

    def test_antimeridian_adjacent_longitudes_unchanged(self):
        # Fixes straddling the +/-180 meridian must come back exactly as
        # given — no wrapping, no sign normalisation.
        east = 179.99999999
        west = -179.99999999
        points = [
            SpatioTemporalPoint(east, 10.0, 0.0),
            SpatioTemporalPoint(west, 10.1, 60.0),
            SpatioTemporalPoint(-180.0, 10.2, 120.0),
            SpatioTemporalPoint(180.0, 10.3, 180.0),
        ]
        arrays = TrajectoryArrays.from_points(points)
        rebuilt = arrays.to_points()
        assert [p.x for p in rebuilt] == [east, west, -180.0, 180.0]
        box = arrays.bounding_box()
        assert box.min_x == -180.0 and box.max_x == 180.0

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(DataQualityError):
            TrajectoryArrays(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_speeds_cached_and_match_scalar_convention(self):
        points = [SpatioTemporalPoint(float(i) * 3.0, 0.0, float(i) * 2.0) for i in range(6)]
        arrays = TrajectoryArrays.from_points(points)
        speeds = arrays.speeds
        assert speeds is arrays.speeds  # cached
        assert speeds.tolist() == [1.5] * 6  # last value repeated
