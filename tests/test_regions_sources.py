"""Unit tests for region sources (indexed ROI collections)."""

from __future__ import annotations

import pytest

from repro.core.errors import SourceError
from repro.core.places import RegionOfInterest
from repro.geometry.primitives import BoundingBox, Point, Polygon
from repro.regions.sources import RegionSource


def _cell(place_id: str, x: float, y: float, size: float = 100, category: str = "1.2"):
    return RegionOfInterest(
        place_id=place_id,
        name=place_id,
        category=category,
        extent=BoundingBox(x, y, x + size, y + size),
    )


@pytest.fixture()
def small_source() -> RegionSource:
    regions = [
        _cell("a", 0, 0),
        _cell("b", 100, 0, category="1.3"),
        _cell("c", 0, 100, category="2.7"),
        RegionOfInterest(
            place_id="campus",
            name="campus",
            category="1.4",
            extent=Polygon([Point(20, 20), Point(80, 20), Point(80, 80), Point(20, 80)]),
        ),
    ]
    return RegionSource(regions, name="test")


class TestRegionSource:
    def test_empty_source_rejected(self):
        with pytest.raises(SourceError):
            RegionSource([], name="empty")

    def test_regions_containing_point(self, small_source):
        # (50, 50) lies in cell "a" and in the smaller campus polygon on top of it.
        found = small_source.first_regions_containing_columns(
            [50.0, 10.0, 150.0, 500.0], [50.0, 10.0, 50.0, 500.0]
        )
        assert [region.place_id if region else None for region in found] == [
            "campus",
            "a",
            "b",
            None,
        ]

    def test_first_region_containing_prefers_smallest(self, small_source):
        # The campus polygon is smaller than the landuse cell that covers it.
        region = small_source.first_region_containing(Point(50, 50))
        assert region.place_id == "campus"

    def test_first_region_containing_none_outside(self, small_source):
        assert small_source.first_region_containing(Point(1000, 1000)) is None

    def test_regions_intersecting_box(self, small_source):
        hits = small_source.regions_intersecting(BoundingBox(90, -10, 110, 10))
        assert {region.place_id for region in hits} == {"a", "b"}

    def test_regions_intersecting_polygon_region(self, small_source):
        hits = small_source.regions_intersecting(BoundingBox(75, 75, 85, 85))
        assert "campus" in {region.place_id for region in hits}

    def test_categories_sorted(self, small_source):
        assert small_source.categories() == ["1.2", "1.3", "1.4", "2.7"]

    def test_len_and_regions(self, small_source):
        assert len(small_source) == 4
        assert len(small_source.regions) == 4


class TestWorldRegionSource:
    def test_world_landuse_covers_core(self, world, region_source):
        center = world.config.commercial_center
        region = region_source.first_region_containing(center)
        assert region is not None
        assert region.category == "1.1"

    def test_world_landuse_cell_count(self, world, region_source):
        # The landuse grid is offset by half a cell so roads run through cell
        # interiors; this needs one extra row and column to cover the world.
        cells_per_side = int(world.config.size / world.config.landuse_cell_size) + 1
        assert len(region_source) == cells_per_side ** 2

    def test_all_world_categories_are_valid_codes(self, region_source):
        from repro.regions.landuse import LANDUSE_CATEGORIES

        for category in region_source.categories():
            assert category in LANDUSE_CATEGORIES
