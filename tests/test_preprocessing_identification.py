"""Unit tests for raw trajectory identification (gap-based splitting)."""

from __future__ import annotations

from repro.core.config import TrajectoryIdentificationConfig
from repro.preprocessing.identification import TrajectoryIdentifier


def _stream(*triples):
    """The ``(xs, ys, ts)`` columns of ``(x, y, t)`` fixes."""
    return tuple(list(column) for column in zip(*triples))


class TestSplit:
    def test_no_gap_single_trajectory(self):
        identifier = TrajectoryIdentifier(
            TrajectoryIdentificationConfig(max_time_gap=100, max_distance_gap=100, min_points=2)
        )
        points = _stream(*[(i, 0, i * 10) for i in range(10)])
        trajectories = identifier.split_columns(*points, object_id="o")
        assert len(trajectories) == 1
        assert len(trajectories[0]) == 10

    def test_time_gap_splits(self):
        identifier = TrajectoryIdentifier(
            TrajectoryIdentificationConfig(max_time_gap=50, max_distance_gap=1e9, min_points=2)
        )
        points = _stream((0, 0, 0), (1, 0, 10), (2, 0, 20), (3, 0, 500), (4, 0, 510))
        trajectories = identifier.split_columns(*points)
        assert len(trajectories) == 2
        assert len(trajectories[0]) == 3
        assert len(trajectories[1]) == 2

    def test_distance_gap_splits(self):
        identifier = TrajectoryIdentifier(
            TrajectoryIdentificationConfig(max_time_gap=1e9, max_distance_gap=10, min_points=2)
        )
        points = _stream((0, 0, 0), (1, 0, 1), (500, 0, 2), (501, 0, 3))
        trajectories = identifier.split_columns(*points)
        assert len(trajectories) == 2

    def test_short_fragments_discarded(self):
        identifier = TrajectoryIdentifier(
            TrajectoryIdentificationConfig(max_time_gap=50, max_distance_gap=1e9, min_points=3)
        )
        points = _stream((0, 0, 0), (1, 0, 10), (2, 0, 20), (3, 0, 500), (4, 0, 510))
        trajectories = identifier.split_columns(*points)
        assert len(trajectories) == 1

    def test_empty_stream(self):
        assert TrajectoryIdentifier().split_columns([], [], []) == []

    def test_trajectory_ids_are_unique(self):
        identifier = TrajectoryIdentifier(
            TrajectoryIdentificationConfig(max_time_gap=5, max_distance_gap=1e9, min_points=1)
        )
        points = _stream((0, 0, 0), (1, 0, 100), (2, 0, 200))
        trajectories = identifier.split_columns(*points, object_id="obj")
        ids = [t.trajectory_id for t in trajectories]
        assert len(ids) == len(set(ids)) == 3
        assert all(t.object_id == "obj" for t in trajectories)
