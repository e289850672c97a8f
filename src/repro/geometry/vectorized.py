"""Vectorized batch kernels over coordinate arrays.

Every kernel replicates, element for element, the arithmetic of its scalar
counterpart in :mod:`repro.geometry.distance`, :mod:`repro.geometry.kernels`
and :mod:`repro.preprocessing.features`: same operation order, same
branching.  Because IEEE 754 ``+ - * /`` and ``sqrt`` are correctly rounded
both in CPython and in numpy's elementwise loops, kernels built from those
operations alone (distances, speeds) agree with the pure-Python reference
**bit-for-bit**.  The one kernel involving a transcendental function (``exp``
for the Gaussian weights) agrees to within 1 ulp per element, which is the
documented float tolerance of the parity tests — discrete pipeline outputs
(flags, episode boundaries, matched segment ids, categories) are still
compared exactly.

Only kernels the product calls live here: the speed column behind the
velocity stop flags and the distance / weight kernels of the columnar map
matcher.  The scalar functions they mirror are what the tests compare them
against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "consecutive_distances",
    "consecutive_speeds",
    "distances_to_point",
    "point_segment_distances",
    "perpendicular_distances",
    "gaussian_kernel_weights",
]


# ---------------------------------------------------------------- distances
def consecutive_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Distance between each consecutive point pair (length ``n - 1``).

    Mirrors :meth:`repro.geometry.primitives.Point.distance_to` exactly:
    ``sqrt(dx*dx + dy*dy)``.
    """
    dx = xs[1:] - xs[:-1]
    dy = ys[1:] - ys[:-1]
    return np.sqrt(dx * dx + dy * dy)


def consecutive_speeds(xs: np.ndarray, ys: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Per-point speeds with the paper's alignment convention (length ``n``).

    ``speeds[i]`` is the average speed from point ``i`` to ``i + 1``; the last
    point repeats its predecessor's value and zero-duration steps get speed 0,
    exactly like :func:`repro.preprocessing.features.compute_motion_features`.
    """
    n = len(xs)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if n == 1:
        return np.zeros(1, dtype=np.float64)
    distances = consecutive_distances(xs, ys)
    dt = ts[1:] - ts[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        pair = np.where(dt > 0.0, distances / dt, 0.0)
    return np.concatenate([pair, pair[-1:]])


def distances_to_point(
    xs: np.ndarray, ys: np.ndarray, x: "float | np.ndarray", y: "float | np.ndarray"
) -> np.ndarray:
    """Distance of every ``(xs, ys)`` point to ``(x, y)`` (one point, or one per row)."""
    dx = xs - x
    dy = ys - y
    return np.sqrt(dx * dx + dy * dy)


def point_segment_distances(
    px: float,
    py: float,
    axs: np.ndarray,
    ays: np.ndarray,
    bxs: np.ndarray,
    bys: np.ndarray,
) -> np.ndarray:
    """Equation 1 point-segment distance of one point to many segments.

    Replicates :func:`repro.geometry.distance.point_segment_distance` per
    element: perpendicular distance when the projection falls on the segment,
    distance to the nearest endpoint otherwise, and distance to the start
    point for degenerate (zero-length) segments.
    """
    dx = bxs - axs
    dy = bys - ays
    length_sq = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - axs) * dx + (py - ays) * dy) / length_sq
    t = np.where(length_sq <= 0.0, 0.0, t)
    proj_x = axs + t * dx
    proj_y = ays + t * dy
    pdx = px - proj_x
    pdy = py - proj_y
    projected = np.sqrt(pdx * pdx + pdy * pdy)
    start = distances_to_point(axs, ays, px, py)
    end = distances_to_point(bxs, bys, px, py)
    endpoint = np.minimum(start, end)
    on_segment = (0.0 <= t) & (t <= 1.0)
    return np.where(length_sq <= 0.0, start, np.where(on_segment, projected, endpoint))


def perpendicular_distances(
    px: "float | np.ndarray",
    py: "float | np.ndarray",
    axs: np.ndarray,
    ays: np.ndarray,
    bxs: np.ndarray,
    bys: np.ndarray,
) -> np.ndarray:
    """Classical point-to-line distance of one point (or one per line) to many carrier lines.

    Replicates :func:`repro.geometry.distance.perpendicular_distance`: the
    unclamped projection onto the infinite line (segment start for degenerate
    segments).
    """
    dx = bxs - axs
    dy = bys - ays
    length_sq = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - axs) * dx + (py - ays) * dy) / length_sq
    t = np.where(length_sq <= 0.0, 0.0, t)
    proj_x = axs + t * dx
    proj_y = ays + t * dy
    pdx = px - proj_x
    pdy = py - proj_y
    return np.sqrt(pdx * pdx + pdy * pdy)


# ------------------------------------------------------------------ kernels
def gaussian_kernel_weights(
    distances: np.ndarray, bandwidth: float, radius: float
) -> np.ndarray:
    """Equation 4 kernel weights for a whole array of neighbour distances.

    Neighbours at ``distance >= radius`` get weight 0, like
    :func:`repro.geometry.kernels.gaussian_kernel_weight`; inside the radius
    the weights agree with the scalar code to within 1 ulp (``exp``).
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    weights = np.exp(-(distances * distances) / (2.0 * bandwidth * bandwidth))
    return np.where(distances >= radius, 0.0, weights)
