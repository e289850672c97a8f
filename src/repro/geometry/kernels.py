"""Kernel smoothing weights and Gaussian influence functions.

Two places in the paper use Gaussian kernels:

* Equation 4 weighs the neighbouring points of a GPS sample inside the global
  map-matching context window: ``w_k = exp(-d(Q0,Qk)^2 / (2 sigma^2))`` when
  the neighbour lies within the view radius ``R`` and zero otherwise.
* Section 4.3 models each POI's influence on a stop as a two-dimensional
  isotropic Gaussian centred at the POI with a category-specific variance.
"""

from __future__ import annotations

import math

from repro.geometry.primitives import Point


def gaussian_kernel_weight(distance: float, bandwidth: float, radius: float) -> float:
    """Equation 4: kernel weight of a neighbour at ``distance`` from the centre.

    ``bandwidth`` is the kernel width sigma and ``radius`` the global view
    radius R; neighbours outside the radius get a zero weight.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if distance >= radius:
        return 0.0
    return math.exp(-(distance * distance) / (2.0 * bandwidth * bandwidth))


def gaussian_2d_density(point: Point, mean: Point, sigma: float) -> float:
    """Isotropic 2-D Gaussian density of ``point`` around ``mean``.

    This is the POI influence model of Section 4.3: the mean is the POI's
    physical position and the (diagonal) covariance is ``sigma^2 I`` with a
    category-specific ``sigma``.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    dx = point.x - mean.x
    dy = point.y - mean.y
    exponent = -(dx * dx + dy * dy) / (2.0 * sigma * sigma)
    normalization = 1.0 / (2.0 * math.pi * sigma * sigma)
    return normalization * math.exp(exponent)
