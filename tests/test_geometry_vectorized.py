"""Kernel-level parity: each vectorized kernel against its scalar oracle.

Arithmetic-only kernels (distances, speeds) are asserted **bit-for-bit** equal
to the scalar loops on random inputs; the ``exp``-based kernel (Gaussian
weights) is asserted within the documented 1-ulp-per-element tolerance, plus
exact agreement on its branch structure (zero outside the radius).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.distance import (
    euclidean_distance,
    perpendicular_distance,
    point_segment_distance,
)
from repro.geometry.kernels import gaussian_kernel_weight
from repro.geometry.primitives import Point, Segment
from repro.geometry.vectorized import (
    consecutive_distances,
    consecutive_speeds,
    distances_to_point,
    gaussian_kernel_weights,
    perpendicular_distances,
    point_segment_distances,
)
from repro.preprocessing.features import motion_features


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _random_columns(rng, n, low=-5000.0, high=5000.0):
    return rng.uniform(low, high, size=n), rng.uniform(low, high, size=n)


class TestDistanceKernels:
    def test_consecutive_distances_bitwise(self, rng):
        xs, ys = _random_columns(rng, 500)
        expected = [
            euclidean_distance(Point(xs[i], ys[i]), Point(xs[i + 1], ys[i + 1]))
            for i in range(len(xs) - 1)
        ]
        assert consecutive_distances(xs, ys).tolist() == expected

    def test_distances_to_point_bitwise(self, rng):
        xs, ys = _random_columns(rng, 500)
        center = Point(12.5, -42.0)
        expected = [euclidean_distance(Point(x, y), center) for x, y in zip(xs, ys)]
        assert distances_to_point(xs, ys, center.x, center.y).tolist() == expected

    def test_point_segment_distances_bitwise(self, rng):
        axs, ays = _random_columns(rng, 300)
        bxs, bys = _random_columns(rng, 300)
        # Include degenerate (zero-length) segments.
        bxs[::50] = axs[::50]
        bys[::50] = ays[::50]
        point = Point(123.0, -321.0)
        expected = [
            point_segment_distance(point, Segment(Point(ax, ay), Point(bx, by)))
            for ax, ay, bx, by in zip(axs, ays, bxs, bys)
        ]
        got = point_segment_distances(point.x, point.y, axs, ays, bxs, bys)
        assert got.tolist() == expected

    def test_perpendicular_distances_bitwise(self, rng):
        axs, ays = _random_columns(rng, 200)
        bxs, bys = _random_columns(rng, 200)
        point = Point(-77.0, 88.0)
        expected = [
            perpendicular_distance(point, Segment(Point(ax, ay), Point(bx, by)))
            for ax, ay, bx, by in zip(axs, ays, bxs, bys)
        ]
        assert perpendicular_distances(point.x, point.y, axs, ays, bxs, bys).tolist() == expected


class TestSpeedKernel:
    def test_consecutive_speeds_matches_motion_features(self, rng):
        xs, ys = _random_columns(rng, 300)
        ts = np.cumsum(rng.uniform(0.0, 20.0, size=300))  # includes zero gaps
        expected = motion_features(xs, ys, ts).speeds
        assert consecutive_speeds(xs, ys, ts).tolist() == expected

    def test_degenerate_lengths(self):
        empty = np.empty(0)
        assert consecutive_speeds(empty, empty, empty).tolist() == []
        one = np.array([1.0])
        assert consecutive_speeds(one, one, one).tolist() == [0.0]


class TestGaussianKernels:
    def test_kernel_weights_branching_and_tolerance(self, rng):
        distances = rng.uniform(0.0, 200.0, size=400)
        bandwidth, radius = 50.0, 100.0
        got = gaussian_kernel_weights(distances, bandwidth, radius)
        for value, distance in zip(got, distances):
            expected = gaussian_kernel_weight(float(distance), bandwidth, radius)
            if distance >= radius:
                assert value == 0.0 == expected
            else:
                assert value == pytest.approx(expected, rel=1e-15)

    def test_kernel_weights_validation(self):
        with pytest.raises(ValueError):
            gaussian_kernel_weights(np.array([1.0]), bandwidth=0.0, radius=1.0)
        with pytest.raises(ValueError):
            gaussian_kernel_weights(np.array([1.0]), bandwidth=1.0, radius=0.0)


class TestScalarVectorAgreementOnSqrtForm:
    def test_hypot_free_distance_formula(self):
        """The scalar oracle uses sqrt(dx*dx + dy*dy) — the numpy-replicable form."""
        a, b = Point(3.0, 4.0), Point(0.0, 0.0)
        assert a.distance_to(b) == 5.0 == euclidean_distance(a, b)
        xs, ys = np.array([3.0]), np.array([4.0])
        assert distances_to_point(xs, ys, 0.0, 0.0)[0] == 5.0
        values = np.random.default_rng(9).uniform(-1e4, 1e4, size=(64, 4))
        for ax, ay, bx, by in values:
            dx, dy = ax - bx, ay - by
            assert euclidean_distance(Point(ax, ay), Point(bx, by)) == math.sqrt(
                dx * dx + dy * dy
            )
