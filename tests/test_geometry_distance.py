"""Unit tests for distance functions, including Equation 1 of the paper."""

from __future__ import annotations

import pytest

from repro.geometry.distance import (
    closest_point_on_segment,
    euclidean_distance,
    perpendicular_distance,
    point_segment_distance,
    project_point_on_segment,
)
from repro.geometry.primitives import Point, Segment


class TestEuclidean:
    def test_basic_345_triangle(self):
        assert euclidean_distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_zero_distance(self):
        assert euclidean_distance(Point(1, 1), Point(1, 1)) == 0.0


class TestProjection:
    def test_projection_inside_segment(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        projection, t = project_point_on_segment(Point(4, 3), segment)
        assert projection == Point(4, 0)
        assert t == pytest.approx(0.4)

    def test_projection_before_start(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        _, t = project_point_on_segment(Point(-5, 1), segment)
        assert t < 0

    def test_degenerate_segment(self):
        segment = Segment(Point(2, 2), Point(2, 2))
        projection, t = project_point_on_segment(Point(5, 5), segment)
        assert projection == Point(2, 2)
        assert t == 0.0


class TestPointSegmentDistance:
    """Equation 1: perpendicular when the projection falls on the segment,
    distance to the closest crossing otherwise."""

    def test_perpendicular_case(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert point_segment_distance(Point(5, 3), segment) == pytest.approx(3.0)

    def test_endpoint_case_before_start(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert point_segment_distance(Point(-3, 4), segment) == pytest.approx(5.0)

    def test_endpoint_case_after_end(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert point_segment_distance(Point(13, 4), segment) == pytest.approx(5.0)

    def test_point_on_segment_is_zero(self):
        segment = Segment(Point(0, 0), Point(10, 10))
        assert point_segment_distance(Point(5, 5), segment) == pytest.approx(0.0)

    def test_never_smaller_than_perpendicular_only_when_projection_outside(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        point = Point(20, 1)
        assert point_segment_distance(point, segment) > perpendicular_distance(point, segment)

    def test_equals_perpendicular_when_projection_inside(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        point = Point(5, 7)
        assert point_segment_distance(point, segment) == pytest.approx(
            perpendicular_distance(point, segment)
        )

    def test_closest_point_on_segment_clamps(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert closest_point_on_segment(Point(-5, 3), segment) == Point(0, 0)
        assert closest_point_on_segment(Point(15, 3), segment) == Point(10, 0)
        assert closest_point_on_segment(Point(5, 3), segment) == Point(5, 0)
