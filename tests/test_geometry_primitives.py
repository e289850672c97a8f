"""Unit tests for the geometric primitives."""

from __future__ import annotations

import math

import pytest

from repro.geometry.primitives import BoundingBox, Point, Polygon, Segment


class TestPoint:
    def test_as_tuple_round_trip(self):
        point = Point(1.5, -2.5)
        assert point.as_tuple() == (1.5, -2.5)

    def test_distance_to_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1.2, 3.4), Point(-5.6, 7.8)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_points_are_hashable_value_objects(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2


class TestSegment:
    def test_length(self):
        segment = Segment(Point(0, 0), Point(0, 10))
        assert segment.length == pytest.approx(10.0)

    def test_bounding_box_with_padding(self):
        segment = Segment(Point(1, 5), Point(3, 2))
        box = segment.bounding_box(padding=1.0)
        assert box == BoundingBox(0, 1, 4, 6)

    def test_heading_east_is_zero(self):
        assert Segment(Point(0, 0), Point(5, 0)).heading() == pytest.approx(0.0)

    def test_heading_north_is_half_pi(self):
        assert Segment(Point(0, 0), Point(0, 5)).heading() == pytest.approx(math.pi / 2)


class TestBoundingBox:
    def test_invalid_box_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)

    def test_from_points(self):
        box = BoundingBox.from_points([Point(1, 2), Point(-1, 5), Point(3, 0)])
        assert box == BoundingBox(-1, 0, 3, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([])

    def test_area(self):
        assert BoundingBox(0, 0, 4, 3).area == pytest.approx(12.0)

    def test_contains_point_includes_boundary(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.contains_point(Point(0, 0))
        assert box.contains_point(Point(1, 1))
        assert not box.contains_point(Point(2.01, 1))

    def test_contains_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        inner = BoundingBox(2, 2, 5, 5)
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)

    def test_intersects_and_intersection(self):
        a = BoundingBox(0, 0, 5, 5)
        b = BoundingBox(3, 3, 8, 8)
        assert a.intersects(b)
        assert a.intersection(b) == BoundingBox(3, 3, 5, 5)

    def test_touching_boxes_intersect(self):
        assert BoundingBox(0, 0, 1, 1).intersects(BoundingBox(1, 1, 2, 2))

    def test_disjoint_boxes_do_not_intersect(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(2, 2, 3, 3)
        assert not a.intersects(b)
        with pytest.raises(ValueError):
            a.intersection(b)

    def test_union_covers_both(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(2, 2, 3, 3)
        union = a.union(b)
        assert union.contains_box(a) and union.contains_box(b)

    def test_enlargement_zero_for_contained_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        inner = BoundingBox(1, 1, 2, 2)
        assert outer.enlargement(inner) == pytest.approx(0.0)

    def test_overlap_area(self):
        a = BoundingBox(0, 0, 4, 4)
        b = BoundingBox(2, 2, 6, 6)
        assert a.overlap_area(b) == pytest.approx(4.0)
        assert a.overlap_area(BoundingBox(5, 5, 6, 6)) == 0.0

    def test_min_distance_to_point(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.min_distance_to_point(Point(1, 1)) == 0.0
        assert box.min_distance_to_point(Point(5, 2)) == pytest.approx(3.0)
        assert box.min_distance_to_point(Point(5, 6)) == pytest.approx(5.0)

    def test_expanded(self):
        assert BoundingBox(0, 0, 1, 1).expanded(1) == BoundingBox(-1, -1, 2, 2)

    def test_center(self):
        assert BoundingBox(0, 0, 4, 2).center == Point(2, 1)


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_closing_vertex_is_dropped(self):
        square = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1), Point(0, 0)])
        assert len(square) == 4

    def test_area_of_unit_square(self):
        square = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        assert square.area == pytest.approx(1.0)

    def test_area_independent_of_orientation(self):
        ccw = Polygon([Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)])
        cw = Polygon([Point(0, 0), Point(0, 2), Point(2, 2), Point(2, 0)])
        assert ccw.area == pytest.approx(cw.area)

    def test_centroid_of_square(self):
        square = Polygon([Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)])
        assert square.centroid.x == pytest.approx(1.0)
        assert square.centroid.y == pytest.approx(1.0)

    def test_contains_interior_and_exterior(self):
        triangle = Polygon([Point(0, 0), Point(4, 0), Point(0, 4)])
        assert triangle.contains(Point(1, 1))
        assert not triangle.contains(Point(3, 3))

    def test_contains_boundary_point(self):
        square = Polygon([Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)])
        assert square.contains(Point(1, 0))
        assert square.contains(Point(0, 0))

    def test_concave_polygon_containment(self):
        concave = Polygon(
            [Point(0, 0), Point(4, 0), Point(4, 4), Point(2, 2), Point(0, 4)]
        )
        assert concave.contains(Point(1, 1))
        assert not concave.contains(Point(2, 3.5))
