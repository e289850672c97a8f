"""Unit tests for motion feature extraction."""

from __future__ import annotations

import math

import pytest

from repro.core.points import build_trajectory
from repro.preprocessing.features import MotionFeatures, motion_features


def _points(*triples):
    """The ``(xs, ys, ts)`` columns of ``(x, y, t)`` fixes."""
    return tuple(list(column) for column in zip(*triples))


class TestComputeMotionFeatures:
    """:func:`motion_features` over a stream's coordinate columns."""

    def test_constant_speed(self):
        points = _points(*[(i * 10.0, 0, i) for i in range(5)])
        features = motion_features(*points)
        assert len(features) == 5
        assert all(speed == pytest.approx(10.0) for speed in features.speeds)
        assert features.mean_speed() == pytest.approx(10.0)
        assert features.mean_absolute_acceleration() == pytest.approx(0.0)

    def test_acceleration_detected(self):
        # Speeds 1, then 3: acceleration at the switch point.
        points = _points((0, 0, 0), (1, 0, 1), (4, 0, 2), (7, 0, 3))
        features = motion_features(*points)
        assert features.mean_absolute_acceleration() > 0.0

    def test_headings(self):
        points = _points((0, 0, 0), (1, 0, 1), (1, 1, 2))
        features = motion_features(*points)
        assert features.headings[0] == pytest.approx(0.0)
        assert features.headings[1] == pytest.approx(math.pi / 2)

    def test_empty_and_single_point(self):
        assert len(motion_features([], [], [])) == 0
        single = motion_features(*_points((0, 0, 0)))
        assert single.speeds == [0.0]

    def test_zero_time_delta_gives_zero_speed(self):
        points = _points((0, 0, 0), (10, 0, 0))
        features = motion_features(*points)
        assert features.speeds[0] == 0.0

    def test_lengths_match_input(self):
        points = _points(*[(i, i, i) for i in range(7)])
        features = motion_features(*points)
        assert len(features.speeds) == len(features.accelerations) == len(features.headings) == 7

    def test_features_for_trajectory(self):
        trajectory = build_trajectory([(0, 0, 0), (1, 0, 1), (2, 0, 2)])
        features = motion_features(trajectory.xs, trajectory.ys, trajectory.ts)
        assert features.mean_speed() == pytest.approx(1.0)


class TestFeatureStatistics:
    def test_max_speed(self):
        features = MotionFeatures(
            speeds=[1.0, 5.0, 3.0], accelerations=[0, 0, 0], headings=[0, 0, 0]
        )
        assert features.max_speed() == 5.0

    def test_empty_statistics(self):
        features = MotionFeatures(speeds=[], accelerations=[], headings=[])
        assert features.mean_speed() == 0.0
        assert features.max_speed() == 0.0
