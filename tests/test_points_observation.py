"""Unit tests for the POI observation model (Lemma 1 + grid discretisation)."""

from __future__ import annotations

import pytest

from repro.core.config import PointAnnotationConfig
from repro.core.places import PointOfInterest
from repro.geometry.primitives import Point
from repro.points.observation import PoiObservationModel
from repro.points.poi import PoiSource


def _poi(place_id: str, x: float, y: float, category: str) -> PointOfInterest:
    return PointOfInterest(
        place_id=place_id, name=place_id, category=category, location=Point(x, y)
    )


@pytest.fixture()
def two_cluster_source() -> PoiSource:
    """Feedings cluster around (100, 100), item-sale cluster around (900, 900)."""
    pois = []
    for i in range(5):
        pois.append(_poi(f"f{i}", 100 + i * 5, 100, "feedings"))
        pois.append(_poi(f"s{i}", 900 + i * 5, 900, "item sale"))
    return PoiSource(pois, name="clusters")


@pytest.fixture()
def model(two_cluster_source) -> PoiObservationModel:
    config = PointAnnotationConfig(grid_cell_size=50, neighbor_radius=300, default_sigma=50)
    return PoiObservationModel(two_cluster_source, config)


class TestProbabilities:
    def test_probability_higher_near_category_cluster(self, model):
        near_feedings = model.probability("feedings", Point(100, 100))
        far_feedings = model.probability("feedings", Point(900, 900))
        assert near_feedings > far_feedings

    def test_category_scores_normalised(self, model):
        scores = model.category_scores(Point(100, 100))
        assert sum(scores.values()) == pytest.approx(1.0)
        assert scores["feedings"] > scores["item sale"]

    def test_far_from_everything_is_near_uniform(self, model):
        # Outside the neighbour radius of both clusters the scores fall back to
        # the probability floor, hence a uniform normalised distribution.
        scores = model.category_scores(Point(500, 500))
        assert scores["feedings"] == pytest.approx(scores["item sale"], rel=1e-6)

    def test_point_outside_grid_uses_exact_computation(self, model):
        outside = Point(-10_000, -10_000)
        assert model.grid.cell_of(outside) is None
        score = model.probability("feedings", outside)
        assert score == pytest.approx(model.config.min_probability)


class TestDiscretisation:
    def test_cell_probabilities_are_cached(self, model):
        assert model.cache_size() == 0
        model.probability("feedings", Point(100, 100))
        assert model.cache_size() == 1
        model.probability("item sale", Point(101, 101))
        assert model.cache_size() == 1  # same cell, no recomputation

    def test_grid_covers_poi_bounds(self, two_cluster_source, model):
        bounds = two_cluster_source.bounds()
        assert model.grid.bounds.contains_box(bounds)

    def test_discretised_close_to_exact(self, two_cluster_source):
        config = PointAnnotationConfig(grid_cell_size=20, neighbor_radius=300, default_sigma=50)
        model = PoiObservationModel(two_cluster_source, config)
        stop = Point(110, 105)
        discretised = model.probability("feedings", stop)
        exact = model._exact_probability("feedings", stop)
        assert discretised == pytest.approx(exact, rel=0.5)

    def test_category_specific_sigma(self, two_cluster_source):
        config = PointAnnotationConfig(
            grid_cell_size=50,
            neighbor_radius=300,
            default_sigma=50,
            category_sigmas={"feedings": 10.0},
        )
        model = PoiObservationModel(two_cluster_source, config)
        assert model.sigma_for("feedings") == 10.0
        assert model.sigma_for("item sale") == 50.0

    def test_categories_exposed(self, model):
        assert set(model.categories) == {"feedings", "item sale"}
