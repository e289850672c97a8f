"""Unit tests for semantic places (Definition 2)."""

from __future__ import annotations

import pytest

from repro.core.places import (
    LineOfInterest,
    PlaceKind,
    PointOfInterest,
    RegionOfInterest,
)
from repro.geometry.primitives import BoundingBox, Point, Polygon, Segment


class TestRegionOfInterest:
    def test_rectangle_region(self):
        region = RegionOfInterest(
            place_id="r1", name="cell", category="1.2", extent=BoundingBox(0, 0, 100, 100)
        )
        assert region.kind is PlaceKind.REGION
        assert region.contains(Point(50, 50))
        assert not region.contains(Point(150, 50))
        assert region.area == pytest.approx(10_000)
        assert region.center == Point(50, 50)

    def test_polygon_region(self):
        polygon = Polygon([Point(0, 0), Point(4, 0), Point(0, 4)])
        region = RegionOfInterest(place_id="r2", name="tri", category="1.5", extent=polygon)
        assert region.contains(Point(1, 1))
        assert not region.contains(Point(3, 3))
        assert region.bounding_box() == polygon.bounding_box

    def test_region_requires_extent(self):
        with pytest.raises(ValueError):
            RegionOfInterest(place_id="r3", name="none", category="1.1")

    def test_attributes_default_empty(self):
        region = RegionOfInterest(
            place_id="r4", name="cell", category="1.2", extent=BoundingBox(0, 0, 1, 1)
        )
        assert region.attributes == {}


class TestLineOfInterest:
    def test_basic_segment(self):
        line = LineOfInterest(
            place_id="l1",
            name="main street",
            category="road",
            segment=Segment(Point(0, 0), Point(100, 0)),
        )
        assert line.kind is PlaceKind.LINE
        assert line.length == pytest.approx(100.0)
        assert line.bounding_box().contains_point(Point(50, 0))

    def test_line_requires_segment(self):
        with pytest.raises(ValueError):
            LineOfInterest(place_id="l3", name="x", category="road")


class TestPointOfInterest:
    def test_basic_poi(self):
        poi = PointOfInterest(
            place_id="p1", name="cafe", category="feedings", location=Point(3, 4)
        )
        assert poi.kind is PlaceKind.POINT
        assert poi.distance_to(Point(0, 0)) == pytest.approx(5.0)
        box = poi.bounding_box()
        assert box.min_x == box.max_x == 3

    def test_poi_requires_location(self):
        with pytest.raises(ValueError):
            PointOfInterest(place_id="p2", name="x", category="services")

    def test_places_are_frozen(self):
        poi = PointOfInterest(
            place_id="p3", name="shop", category="item sale", location=Point(0, 0)
        )
        with pytest.raises(AttributeError):
            poi.name = "other"  # type: ignore[misc]
