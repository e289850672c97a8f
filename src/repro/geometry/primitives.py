"""Spatial primitives: points, segments, bounding boxes and simple polygons.

These are deliberately small, immutable value objects in planar metres;
the distance functions of :mod:`repro.geometry.distance` build on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class Point:
    """A 2-D point, ``x`` is longitude/easting and ``y`` is latitude/northing."""

    x: float
    y: float

    def as_tuple(self) -> Tuple[float, float]:
        """Return the ``(x, y)`` tuple."""
        return (self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Planar Euclidean distance to ``other``.

        Computed as ``sqrt(dx*dx + dy*dy)`` rather than ``math.hypot`` — this
        exact operation sequence is what the numpy kernels of
        :mod:`repro.geometry.vectorized` replicate elementwise, so scalar and
        array code agree bit-for-bit on distances.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class Segment:
    """A straight line segment between two crossings ``start`` and ``end``."""

    start: Point
    end: Point

    @property
    def length(self) -> float:
        """Planar length of the segment."""
        return self.start.distance_to(self.end)

    def bounding_box(self, padding: float = 0.0) -> "BoundingBox":
        """Axis-aligned bounding box of the segment, optionally padded."""
        return BoundingBox(
            min(self.start.x, self.end.x) - padding,
            min(self.start.y, self.end.y) - padding,
            max(self.start.x, self.end.x) + padding,
            max(self.start.y, self.end.y) + padding,
        )

    def heading(self) -> float:
        """Heading of the segment in radians, measured from the +x axis."""
        return math.atan2(self.end.y - self.start.y, self.end.x - self.start.x)


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "invalid bounding box: min corner must not exceed max corner "
                f"({self.min_x}, {self.min_y}, {self.max_x}, {self.max_y})"
            )

    @classmethod
    def from_points(cls, points: Iterable[Point], padding: float = 0.0) -> "BoundingBox":
        """Smallest box containing every point in ``points`` (must be non-empty)."""
        xs: List[float] = []
        ys: List[float] = []
        for point in points:
            xs.append(point.x)
            ys.append(point.y)
        if not xs:
            raise ValueError("cannot build a bounding box from an empty point set")
        return cls(min(xs) - padding, min(ys) - padding, max(xs) + padding, max(ys) + padding)

    @property
    def width(self) -> float:
        """Extent along the x axis."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along the y axis."""
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        """Rectangle area (zero for degenerate boxes)."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Rectangle centroid."""
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains_point(self, point: Point) -> bool:
        """True if ``point`` lies inside or on the boundary of the box."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        """True if ``other`` is entirely inside this box."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """True if the two boxes share at least one point."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def intersection(self, other: "BoundingBox") -> "BoundingBox":
        """The overlapping rectangle; raises ``ValueError`` if disjoint."""
        if not self.intersects(other):
            raise ValueError("bounding boxes do not intersect")
        return BoundingBox(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both boxes."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, padding: float) -> "BoundingBox":
        """Box grown by ``padding`` on every side."""
        return BoundingBox(
            self.min_x - padding,
            self.min_y - padding,
            self.max_x + padding,
            self.max_y + padding,
        )

    def enlargement(self, other: "BoundingBox") -> float:
        """Area increase needed to also cover ``other`` (used by the R-tree)."""
        return self.union(other).area - self.area

    def overlap_area(self, other: "BoundingBox") -> float:
        """Area of the intersection, or 0 when disjoint."""
        if not self.intersects(other):
            return 0.0
        return self.intersection(other).area

    def min_distance_to_point(self, point: Point) -> float:
        """Smallest planar distance from ``point`` to the rectangle (0 if inside).

        Computed as ``sqrt(dx*dx + dy*dy)`` rather than ``math.hypot`` — like
        :meth:`Point.distance_to`, this exact operation sequence is what the
        batch kernels of :mod:`repro.index.flat` replicate elementwise, so the
        scalar indexes and the flat batch indexes agree bit-for-bit on box
        distances (CPython's ``hypot`` uses its own higher-precision algorithm
        that numpy does not reproduce).
        """
        dx = max(self.min_x - point.x, 0.0, point.x - self.max_x)
        dy = max(self.min_y - point.y, 0.0, point.y - self.max_y)
        return math.sqrt(dx * dx + dy * dy)


class Polygon:
    """A simple polygon defined by its exterior ring.

    Vertices are given in order (either orientation); the ring is implicitly
    closed.  Only the operations the region-annotation layer needs are
    implemented: point-in-polygon, bounding box, area and centroid.
    """

    def __init__(self, vertices: Sequence[Point]):
        cleaned = list(vertices)
        if len(cleaned) >= 2 and cleaned[0] == cleaned[-1]:
            cleaned = cleaned[:-1]
        if len(cleaned) < 3:
            raise ValueError("a polygon needs at least three distinct vertices")
        self._vertices: Tuple[Point, ...] = tuple(cleaned)
        self._bbox = BoundingBox.from_points(self._vertices)

    @property
    def vertices(self) -> Tuple[Point, ...]:
        """Polygon vertices, without the closing repetition."""
        return self._vertices

    @property
    def bounding_box(self) -> BoundingBox:
        """Axis-aligned bounding box of the polygon."""
        return self._bbox

    def __iter__(self) -> Iterator[Point]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def area(self) -> float:
        """Unsigned polygon area (shoelace formula)."""
        return abs(self.signed_area)

    @property
    def signed_area(self) -> float:
        """Signed area; positive for counter-clockwise rings."""
        total = 0.0
        vertices = self._vertices
        for i, current in enumerate(vertices):
            nxt = vertices[(i + 1) % len(vertices)]
            total += current.x * nxt.y - nxt.x * current.y
        return total / 2.0

    @property
    def centroid(self) -> Point:
        """Polygon centroid (falls back to vertex mean for degenerate rings)."""
        signed = self.signed_area
        if abs(signed) < 1e-12:
            xs = sum(v.x for v in self._vertices) / len(self._vertices)
            ys = sum(v.y for v in self._vertices) / len(self._vertices)
            return Point(xs, ys)
        cx = 0.0
        cy = 0.0
        vertices = self._vertices
        for i, current in enumerate(vertices):
            nxt = vertices[(i + 1) % len(vertices)]
            cross = current.x * nxt.y - nxt.x * current.y
            cx += (current.x + nxt.x) * cross
            cy += (current.y + nxt.y) * cross
        factor = 1.0 / (6.0 * signed)
        return Point(cx * factor, cy * factor)

    def contains(self, point: Point) -> bool:
        """Ray-casting point-in-polygon test; boundary points count as inside."""
        if not self._bbox.contains_point(point):
            return False
        inside = False
        vertices = self._vertices
        n = len(vertices)
        j = n - 1
        for i in range(n):
            vi, vj = vertices[i], vertices[j]
            if _point_on_segment(point, vi, vj):
                return True
            if (vi.y > point.y) != (vj.y > point.y):
                x_cross = vj.x + (point.y - vj.y) * (vi.x - vj.x) / (vi.y - vj.y)
                if point.x < x_cross:
                    inside = not inside
            j = i
        return inside

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polygon({len(self._vertices)} vertices, area={self.area:.1f})"


def _point_on_segment(point: Point, a: Point, b: Point, tol: float = 1e-9) -> bool:
    """True when ``point`` lies on the segment ``a``-``b`` within ``tol``."""
    cross = (b.x - a.x) * (point.y - a.y) - (b.y - a.y) * (point.x - a.x)
    if abs(cross) > tol * max(1.0, a.distance_to(b)):
        return False
    min_x, max_x = min(a.x, b.x) - tol, max(a.x, b.x) + tol
    min_y, max_y = min(a.y, b.y) - tol, max(a.y, b.y) + tol
    return min_x <= point.x <= max_x and min_y <= point.y <= max_y
