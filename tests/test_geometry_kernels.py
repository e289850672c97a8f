"""Unit tests for kernel weights (Equation 4) and Gaussian POI influence."""

from __future__ import annotations

import math

import pytest

from repro.geometry.kernels import (
    gaussian_2d_density,
    gaussian_kernel_weight,
)
from repro.geometry.primitives import Point


class TestKernelWeight:
    def test_zero_distance_gives_weight_one(self):
        assert gaussian_kernel_weight(0.0, bandwidth=10.0, radius=50.0) == pytest.approx(1.0)

    def test_weight_decreases_with_distance(self):
        near = gaussian_kernel_weight(5.0, bandwidth=10.0, radius=50.0)
        far = gaussian_kernel_weight(20.0, bandwidth=10.0, radius=50.0)
        assert near > far > 0.0

    def test_outside_radius_is_zero(self):
        assert gaussian_kernel_weight(51.0, bandwidth=10.0, radius=50.0) == 0.0
        assert gaussian_kernel_weight(50.0, bandwidth=10.0, radius=50.0) == 0.0

    def test_matches_equation_four(self):
        distance, sigma = 7.0, 10.0
        expected = math.exp(-(distance ** 2) / (2 * sigma ** 2))
        assert gaussian_kernel_weight(distance, sigma, radius=100.0) == pytest.approx(expected)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            gaussian_kernel_weight(1.0, bandwidth=0.0, radius=10.0)
        with pytest.raises(ValueError):
            gaussian_kernel_weight(1.0, bandwidth=1.0, radius=0.0)


class TestGaussianInfluence:
    def test_density_peaks_at_mean(self):
        mean = Point(10, 10)
        at_mean = gaussian_2d_density(mean, mean, sigma=5.0)
        off_mean = gaussian_2d_density(Point(13, 14), mean, sigma=5.0)
        assert at_mean > off_mean > 0.0

    def test_density_is_isotropic(self):
        mean = Point(0, 0)
        d1 = gaussian_2d_density(Point(3, 0), mean, sigma=2.0)
        d2 = gaussian_2d_density(Point(0, 3), mean, sigma=2.0)
        assert d1 == pytest.approx(d2)

    def test_invalid_sigma_raises(self):
        with pytest.raises(ValueError):
            gaussian_2d_density(Point(0, 0), Point(0, 0), sigma=0.0)
