"""Unit tests for spatial predicates."""

from __future__ import annotations

import pytest

from repro.geometry.predicates import polygon_intersects_bbox, segments_intersect
from repro.geometry.primitives import BoundingBox, Point, Polygon, Segment


class TestSegmentIntersection:
    def test_crossing_segments(self):
        a = Segment(Point(0, 0), Point(2, 2))
        b = Segment(Point(0, 2), Point(2, 0))
        assert segments_intersect(a, b)

    def test_parallel_segments(self):
        a = Segment(Point(0, 0), Point(2, 0))
        b = Segment(Point(0, 1), Point(2, 1))
        assert not segments_intersect(a, b)

    def test_touching_at_endpoint(self):
        a = Segment(Point(0, 0), Point(2, 0))
        b = Segment(Point(2, 0), Point(2, 2))
        assert segments_intersect(a, b)

    def test_collinear_overlapping(self):
        a = Segment(Point(0, 0), Point(4, 0))
        b = Segment(Point(2, 0), Point(6, 0))
        assert segments_intersect(a, b)

    def test_collinear_disjoint(self):
        a = Segment(Point(0, 0), Point(1, 0))
        b = Segment(Point(2, 0), Point(3, 0))
        assert not segments_intersect(a, b)


class TestPolygonPredicates:
    @pytest.fixture()
    def square(self) -> Polygon:
        return Polygon([Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)])

    def test_polygon_intersects_overlapping_box(self, square):
        assert polygon_intersects_bbox(square, BoundingBox(3, 3, 6, 6))

    def test_polygon_intersects_box_fully_inside_polygon(self, square):
        assert polygon_intersects_bbox(square, BoundingBox(1, 1, 2, 2))

    def test_polygon_inside_box(self, square):
        assert polygon_intersects_bbox(square, BoundingBox(-1, -1, 5, 5))

    def test_polygon_disjoint_box(self, square):
        assert not polygon_intersects_bbox(square, BoundingBox(10, 10, 12, 12))

    def test_edge_crossing_without_contained_corners(self):
        # A thin box crossing the middle of the polygon horizontally.
        diamond = Polygon([Point(0, 2), Point(2, 0), Point(4, 2), Point(2, 4)])
        crossing = BoundingBox(-1, 1.9, 5, 2.1)
        assert polygon_intersects_bbox(diamond, crossing)
