"""Unit tests for POI sources."""

from __future__ import annotations

import pytest

from repro.core.errors import SourceError
from repro.core.places import PointOfInterest
from repro.geometry.primitives import BoundingBox, Point
from repro.points.poi import DEFAULT_POI_CATEGORIES, PoiSource, category_counts


def _poi(place_id: str, x: float, y: float, category: str) -> PointOfInterest:
    return PointOfInterest(
        place_id=place_id, name=place_id, category=category, location=Point(x, y)
    )


@pytest.fixture()
def small_source() -> PoiSource:
    pois = [
        _poi("p0", 0, 0, "feedings"),
        _poi("p1", 10, 0, "feedings"),
        _poi("p2", 100, 100, "item sale"),
        _poi("p3", 110, 100, "item sale"),
        _poi("p4", 120, 100, "item sale"),
        _poi("p5", 500, 500, "services"),
    ]
    return PoiSource(pois, name="small")


class TestPoiSource:
    def test_empty_source_rejected(self):
        with pytest.raises(SourceError):
            PoiSource([], name="empty")

    def test_len_and_pois(self, small_source):
        assert len(small_source) == 6
        assert len(small_source.pois) == 6

    def test_categories_preserve_first_appearance_order(self, small_source):
        assert small_source.categories() == ["feedings", "item sale", "services"]

    def test_category_counts(self, small_source):
        counts = small_source.category_counts()
        assert counts == {"feedings": 2, "item sale": 3, "services": 1}

    def test_initial_probabilities_sum_to_one(self, small_source):
        pi = small_source.initial_probabilities()
        assert sum(pi.values()) == pytest.approx(1.0)
        assert pi["item sale"] == pytest.approx(0.5)

    def test_pois_within_radius(self, small_source):
        nearby = small_source.pois_within(Point(0, 0), radius=20)
        assert [poi.place_id for _, poi in nearby] == ["p0", "p1"]

    def test_pois_in_box(self, small_source):
        inside = small_source.pois_in_box(BoundingBox(90, 90, 130, 110))
        assert {poi.place_id for poi in inside} == {"p2", "p3", "p4"}

    def test_nearest(self, small_source):
        results = small_source.nearest(Point(499, 499), count=1)
        assert results[0][1].place_id == "p5"

    def test_bounds_cover_all_pois(self, small_source):
        bounds = small_source.bounds()
        for poi in small_source.pois:
            assert bounds.contains_point(poi.location)


class TestCategoryCounts:
    def test_plain_sequence(self):
        pois = [_poi("a", 0, 0, "services"), _poi("b", 1, 1, "services")]
        assert category_counts(pois) == {"services": 2}

    def test_default_categories_match_milan(self):
        assert DEFAULT_POI_CATEGORIES == (
            "services",
            "feedings",
            "item sale",
            "person life",
            "unknown",
        )


class TestWorldPoiSource:
    def test_world_pois_have_milan_categories(self, poi_source):
        assert set(poi_source.categories()) <= set(DEFAULT_POI_CATEGORIES)

    def test_world_poi_mix_is_item_sale_and_person_life_heavy(self, poi_source):
        pi = poi_source.initial_probabilities()
        assert pi["person life"] > pi["services"]
        assert pi["item sale"] > pi["feedings"]

    def test_world_pois_inside_world(self, world, poi_source):
        for poi in poi_source.pois[:200]:
            assert world.bounds.contains_point(poi.location)
