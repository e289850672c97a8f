"""Spatial predicates used by the region spatial join.

The region-annotation layer of the paper computes topological correlations
("spatial predicates") between trajectories and regions.  A region source
keeps a polygon for a query box when :func:`polygon_intersects_bbox` holds;
:func:`segments_intersect` is its edge-crossing test.
"""

from __future__ import annotations

from repro.geometry.primitives import BoundingBox, Point, Polygon, Segment


def segments_intersect(a: Segment, b: Segment) -> bool:
    """True when the two segments intersect (including touching endpoints)."""

    def orientation(p: Point, q: Point, r: Point) -> int:
        value = (q.y - p.y) * (r.x - q.x) - (q.x - p.x) * (r.y - q.y)
        if abs(value) < 1e-12:
            return 0
        return 1 if value > 0 else 2

    def on_segment(p: Point, q: Point, r: Point) -> bool:
        return (
            min(p.x, r.x) - 1e-12 <= q.x <= max(p.x, r.x) + 1e-12
            and min(p.y, r.y) - 1e-12 <= q.y <= max(p.y, r.y) + 1e-12
        )

    o1 = orientation(a.start, a.end, b.start)
    o2 = orientation(a.start, a.end, b.end)
    o3 = orientation(b.start, b.end, a.start)
    o4 = orientation(b.start, b.end, a.end)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(a.start, b.start, a.end):
        return True
    if o2 == 0 and on_segment(a.start, b.end, a.end):
        return True
    if o3 == 0 and on_segment(b.start, a.start, b.end):
        return True
    if o4 == 0 and on_segment(b.start, a.end, b.end):
        return True
    return False


def polygon_intersects_bbox(polygon: Polygon, box: BoundingBox) -> bool:
    """True when ``polygon`` and ``box`` overlap.

    Handles the three configurations that matter for spatial joins: a polygon
    vertex inside the box, a box corner inside the polygon, or an edge
    crossing.
    """
    if not polygon.bounding_box.intersects(box):
        return False
    for vertex in polygon.vertices:
        if box.contains_point(vertex):
            return True
    corners = [
        Point(box.min_x, box.min_y),
        Point(box.max_x, box.min_y),
        Point(box.max_x, box.max_y),
        Point(box.min_x, box.max_y),
    ]
    for corner in corners:
        if polygon.contains(corner):
            return True
    box_edges = [
        Segment(corners[0], corners[1]),
        Segment(corners[1], corners[2]),
        Segment(corners[2], corners[3]),
        Segment(corners[3], corners[0]),
    ]
    vertices = polygon.vertices
    for i, current in enumerate(vertices):
        edge = Segment(current, vertices[(i + 1) % len(vertices)])
        for box_edge in box_edges:
            if segments_intersect(edge, box_edge):
                return True
    return False
