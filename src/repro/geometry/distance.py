"""Distance functions, including the point-segment distance of Equation 1.

The paper's map-matching layer replaces the usual perpendicular (point-to-
curve) distance with a *point-segment* distance: the perpendicular distance
when the projection of the GPS point falls on the segment, and otherwise the
distance to the closest segment endpoint.  That definition is implemented by
:func:`point_segment_distance`; :func:`perpendicular_distance` is kept as the
baseline used in the ablation benchmarks.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.geometry.primitives import Point, Segment


def euclidean_distance(a: Point, b: Point) -> float:
    """Planar Euclidean distance between two points.

    Uses the explicit ``sqrt(dx*dx + dy*dy)`` form (not ``math.hypot``) so the
    vectorized kernels of :mod:`repro.geometry.vectorized`, which are built
    from the same correctly rounded elementwise operations, reproduce it
    bit-for-bit.
    """
    dx = a.x - b.x
    dy = a.y - b.y
    return math.sqrt(dx * dx + dy * dy)


def project_point_on_segment(point: Point, segment: Segment) -> Tuple[Point, float]:
    """Project ``point`` onto the line carrying ``segment``.

    Returns ``(projection, t)`` where ``t`` is the (unclamped) parametric
    position of the projection along the segment: ``t`` in ``[0, 1]`` means the
    projection falls on the segment itself.
    """
    ax, ay = segment.start.x, segment.start.y
    bx, by = segment.end.x, segment.end.y
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq <= 0.0:
        return segment.start, 0.0
    t = ((point.x - ax) * dx + (point.y - ay) * dy) / length_sq
    projection = Point(ax + t * dx, ay + t * dy)
    return projection, t


def perpendicular_distance(point: Point, segment: Segment) -> float:
    """Distance from ``point`` to the infinite line carrying ``segment``.

    This is the classical point-to-curve metric used by geometric map-matching
    baselines; it can under-estimate the distance when the projection falls
    outside the segment.
    """
    projection, _ = project_point_on_segment(point, segment)
    return euclidean_distance(point, projection)


def point_segment_distance(point: Point, segment: Segment) -> float:
    """Point-segment distance d(Q, AiAj) from Equation 1 of the paper.

    Perpendicular distance when the projection of ``point`` falls on the
    segment; otherwise the Euclidean distance to the nearest endpoint.
    """
    projection, t = project_point_on_segment(point, segment)
    if 0.0 <= t <= 1.0:
        return euclidean_distance(point, projection)
    return min(
        euclidean_distance(point, segment.start),
        euclidean_distance(point, segment.end),
    )


def closest_point_on_segment(point: Point, segment: Segment) -> Point:
    """The point of ``segment`` closest to ``point`` (used to snap positions)."""
    projection, t = project_point_on_segment(point, segment)
    if t <= 0.0:
        return segment.start
    if t >= 1.0:
        return segment.end
    return projection
