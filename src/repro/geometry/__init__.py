"""Geometric substrate for SeMiTri.

This package provides the low-level spatial primitives every annotation layer
relies on: planar distance functions, the point-to-segment distance of
Equation 1 in the paper, bounding boxes, simple polygons, the polygon/box
intersection predicate of the region join, regular grids and the Gaussian
kernel weights used by the global map-matching score.

All coordinates are planar metres (the synthetic world shipped with this
repository lives in a planar metric system).
"""

from repro.geometry.primitives import (
    BoundingBox,
    Point,
    Polygon,
    Segment,
)
from repro.geometry.distance import (
    euclidean_distance,
    point_segment_distance,
    project_point_on_segment,
)
from repro.geometry.predicates import polygon_intersects_bbox
from repro.geometry.grid import GridSpec
from repro.geometry.kernels import gaussian_kernel_weight
from repro.geometry.vectorized import (
    consecutive_distances,
    consecutive_speeds,
    gaussian_kernel_weights,
    point_segment_distances,
)

__all__ = [
    "BoundingBox",
    "Point",
    "Polygon",
    "Segment",
    "euclidean_distance",
    "point_segment_distance",
    "project_point_on_segment",
    "polygon_intersects_bbox",
    "GridSpec",
    "gaussian_kernel_weight",
    "consecutive_distances",
    "consecutive_speeds",
    "gaussian_kernel_weights",
    "point_segment_distances",
]
