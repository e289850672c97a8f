"""Kernel-level parity: each vectorized kernel against its scalar oracle.

Arithmetic-only kernels (distances, speeds, projections, bounding-box masks,
scan runs) are asserted **bit-for-bit** equal to the scalar loops on random
inputs; ``exp``-based kernels (Gaussian weights and densities) are asserted
within the documented 1-ulp-per-element tolerance, plus exact agreement on
their branch structure (zero outside the radius).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.points import SpatioTemporalPoint
from repro.geometry.distance import (
    euclidean_distance,
    perpendicular_distance,
    point_segment_distance,
)
from repro.geometry.kernels import gaussian_2d_density, gaussian_kernel_weight
from repro.geometry.primitives import Point, Segment
from repro.geometry.projection import LocalProjector
from repro.geometry.vectorized import (
    consecutive_distances,
    consecutive_speeds,
    distances_to_point,
    equirectangular_to_planar,
    gaussian_2d_densities,
    gaussian_kernel_weights,
    leading_run_within_radius,
    pairwise_distances,
    perpendicular_distances,
    planar_to_equirectangular,
    point_segment_distances,
)
from repro.preprocessing.features import compute_motion_features


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

    def test_pairwise_distances_bitwise(self, rng):
        axs, ays = _random_columns(rng, 40)
        bxs, bys = _random_columns(rng, 25)
        matrix = pairwise_distances(axs, ays, bxs, bys)
        assert matrix.shape == (40, 25)
        for i in (0, 7, 39):
            for j in (0, 11, 24):
                assert matrix[i, j] == euclidean_distance(
                    Point(axs[i], ays[i]), Point(bxs[j], bys[j])
                )

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
        points = [SpatioTemporalPoint(x, y, t) for x, y, t in zip(xs, ys, ts)]
        expected = compute_motion_features(points).speeds
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

    def test_densities_tolerance(self, rng):
        mxs, mys = _random_columns(rng, 200, low=-300.0, high=300.0)
        sigmas = rng.uniform(5.0, 120.0, size=200)
        point = Point(10.0, -20.0)
        got = gaussian_2d_densities(point.x, point.y, mxs, mys, sigmas)
        for value, mx, my, sigma in zip(got, mxs, mys, sigmas):
            assert value == pytest.approx(
                gaussian_2d_density(point, Point(mx, my), float(sigma)), rel=1e-14
            )

    def test_densities_validation(self):
        with pytest.raises(ValueError):
            gaussian_2d_densities(0.0, 0.0, np.array([1.0]), np.array([1.0]), np.array([0.0]))


class TestScans:
    def test_leading_run_matches_scalar_walk(self, rng):
        for trial in range(20):
            n = int(rng.integers(0, 120))
            xs = rng.uniform(0.0, 60.0, size=n)
            ys = rng.uniform(0.0, 60.0, size=n)
            center = Point(30.0, 30.0)
            radius = float(rng.uniform(5.0, 50.0))
            expected = 0
            for x, y in zip(xs, ys):
                distance = euclidean_distance(Point(x, y), center)
                if not distance <= radius:
                    break
                expected += 1
            assert leading_run_within_radius(xs, ys, center.x, center.y, radius) == expected

    def test_leading_run_spans_chunk_boundaries(self):
        # A long all-within run exercises the geometric chunk growth.
        xs = np.zeros(5000)
        ys = np.zeros(5000)
        assert leading_run_within_radius(xs, ys, 0.0, 0.0, 1.0) == 5000


class TestProjectionKernels:
    def test_projection_round_trip_bitwise(self, rng):
        lons = rng.uniform(6.0, 7.0, size=300)
        lats = rng.uniform(46.0, 47.0, size=300)
        reference = Point(6.5, 46.5)
        projector = LocalProjector(reference)
        xs, ys = equirectangular_to_planar(lons, lats, reference.x, reference.y)
        for i in range(0, 300, 37):
            scalar = projector.to_planar(Point(lons[i], lats[i]))
            assert (xs[i], ys[i]) == (scalar.x, scalar.y)
        back_lons, back_lats = planar_to_equirectangular(xs, ys, reference.x, reference.y)
        for i in range(0, 300, 37):
            scalar = projector.to_lonlat(Point(xs[i], ys[i]))
            assert (back_lons[i], back_lats[i]) == (scalar.x, scalar.y)

    def test_polar_reference_rejected(self):
        with pytest.raises(ValueError):
            equirectangular_to_planar(np.array([0.0]), np.array([0.0]), 0.0, 90.0)


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
