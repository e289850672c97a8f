"""Vectorized batch kernels over coordinate arrays (the ``numpy`` backend).

Every kernel replicates, element for element, the arithmetic of its scalar
counterpart in :mod:`repro.geometry.distance`, :mod:`repro.geometry.kernels`,
:mod:`repro.geometry.projection` and :mod:`repro.preprocessing.features`:
same operation order, same branching.  Because IEEE 754 ``+ - * /`` and
``sqrt`` are correctly rounded both in CPython and in numpy's elementwise
loops, kernels built from those operations alone (distances, projections,
speeds) agree with the pure-Python reference
**bit-for-bit**.  Kernels involving transcendental functions (``exp`` for the
Gaussian weights and densities, trigonometry for the geodesic distance) agree
to within 1 ulp per element, which is the documented float tolerance of the
backend parity tests — discrete pipeline outputs (flags, episode boundaries,
matched segment ids, categories) are still compared exactly.

The scalar implementations remain the reference oracle; these kernels are the
throughput path selected by ``PipelineConfig.compute.backend = "numpy"``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.geometry.distance import EARTH_RADIUS_METERS

__all__ = [
    "as_coordinate_array",
    "consecutive_distances",
    "consecutive_speeds",
    "distances_to_point",
    "pairwise_distances",
    "point_segment_distances",
    "perpendicular_distances",
    "gaussian_kernel_weights",
    "gaussian_2d_densities",
    "equirectangular_to_planar",
    "planar_to_equirectangular",
    "leading_run_within_radius",
]

#: Initial chunk size of the adaptive scans; grown geometrically so short runs
#: stay cheap while long runs approach one big vector operation.
_SCAN_CHUNK = 16
_SCAN_CHUNK_MAX = 4096


def as_coordinate_array(values) -> np.ndarray:
    """Coerce ``values`` to a contiguous 1-D float64 array (no copy if already one)."""
    return np.ascontiguousarray(values, dtype=np.float64)


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


def pairwise_distances(
    axs: np.ndarray, ays: np.ndarray, bxs: np.ndarray, bys: np.ndarray
) -> np.ndarray:
    """Full distance matrix: ``result[i, j]`` is the distance from a_i to b_j."""
    dx = axs[:, None] - bxs[None, :]
    dy = ays[:, None] - bys[None, :]
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


def gaussian_2d_densities(
    px: float,
    py: float,
    mxs: np.ndarray,
    mys: np.ndarray,
    sigmas: np.ndarray,
) -> np.ndarray:
    """Isotropic 2-D Gaussian density of one point around many means.

    Vector form of :func:`repro.geometry.kernels.gaussian_2d_density` with a
    per-mean sigma (the category-specific sigma_c of Section 4.3); agrees
    with the scalar code to within 1 ulp (``exp``).
    """
    if np.any(sigmas <= 0):
        raise ValueError("sigma must be positive")
    dx = px - mxs
    dy = py - mys
    exponent = -(dx * dx + dy * dy) / (2.0 * sigmas * sigmas)
    normalization = 1.0 / (2.0 * math.pi * sigmas * sigmas)
    return normalization * np.exp(exponent)


# --------------------------------------------------------------- projection
def equirectangular_to_planar(
    lons: np.ndarray, lats: np.ndarray, ref_lon: float, ref_lat: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch equirectangular projection to planar metres around a reference.

    Replicates :meth:`repro.geometry.projection.LocalProjector.to_planar`
    exactly (``radians`` is arithmetic-only, hence bit-for-bit).
    """
    cos_lat = math.cos(math.radians(ref_lat))
    if abs(cos_lat) < 1e-9:
        raise ValueError("reference latitude too close to a pole")
    xs = np.radians(lons - ref_lon) * EARTH_RADIUS_METERS * cos_lat
    ys = np.radians(lats - ref_lat) * EARTH_RADIUS_METERS
    return xs, ys


def planar_to_equirectangular(
    xs: np.ndarray, ys: np.ndarray, ref_lon: float, ref_lat: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`equirectangular_to_planar` (batch ``to_lonlat``)."""
    cos_lat = math.cos(math.radians(ref_lat))
    if abs(cos_lat) < 1e-9:
        raise ValueError("reference latitude too close to a pole")
    lons = ref_lon + np.degrees(xs / (EARTH_RADIUS_METERS * cos_lat))
    lats = ref_lat + np.degrees(ys / EARTH_RADIUS_METERS)
    return lons, lats


# ----------------------------------------------------------- adaptive scans
def leading_run_within_radius(
    xs: np.ndarray,
    ys: np.ndarray,
    cx: float,
    cy: float,
    radius: float,
) -> int:
    """Length of the leading run of points within ``radius`` of ``(cx, cy)``.

    Scans in growing chunks so that a run of length ``L`` over an array of
    length ``n`` costs ``O(L)`` rather than ``O(n)`` — the vector analogue of
    the early-exit walk in the density seed expansion, whose inclusive ``<=``
    comparison it matches exactly.
    """
    n = len(xs)
    count = 0
    chunk = _SCAN_CHUNK
    while count < n:
        hi = min(n, count + chunk)
        within = distances_to_point(xs[count:hi], ys[count:hi], cx, cy) <= radius
        if not within.all():
            return count + int(np.argmin(within))
        count = hi
        chunk = min(chunk * 4, _SCAN_CHUNK_MAX)
    return count
