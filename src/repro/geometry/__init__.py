"""Geometric substrate for SeMiTri.

This package provides the low-level spatial primitives every annotation layer
relies on: planar and geodesic distance functions, the point-to-segment
distance of Equation 1 in the paper, bounding boxes, simple polygons, spatial
predicates (intersection, containment), regular grids and Gaussian kernel
weights used by the global map-matching score.

All coordinates are expressed either in a planar metric system (metres, the
default for the synthetic world shipped with this repository) or as WGS84
longitude/latitude pairs.  Functions that care about the difference accept a
``metric`` argument; everything else is agnostic.
"""

from repro.geometry.primitives import (
    BoundingBox,
    Point,
    Polygon,
    Segment,
)
from repro.geometry.distance import (
    euclidean_distance,
    haversine_distance,
    path_length,
    point_segment_distance,
    project_point_on_segment,
)
from repro.geometry.predicates import (
    bbox_contains_point,
    bbox_intersects,
    point_in_polygon,
    polygon_intersects_bbox,
)
from repro.geometry.grid import GridSpec, UniformGrid
from repro.geometry.kernels import gaussian_kernel_weight, kernel_weights
from repro.geometry.projection import LocalProjector
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
    "haversine_distance",
    "path_length",
    "point_segment_distance",
    "project_point_on_segment",
    "bbox_contains_point",
    "bbox_intersects",
    "point_in_polygon",
    "polygon_intersects_bbox",
    "GridSpec",
    "UniformGrid",
    "gaussian_kernel_weight",
    "kernel_weights",
    "LocalProjector",
    "consecutive_distances",
    "consecutive_speeds",
    "gaussian_kernel_weights",
    "point_segment_distances",
]
