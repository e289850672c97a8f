"""Unit tests for Algorithm 3: stop annotation with POI categories."""

from __future__ import annotations

import pytest

from repro.core.annotations import AnnotationKind
from repro.core.config import PointAnnotationConfig
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import DataQualityError
from repro.core.places import PointOfInterest
from repro.core.points import build_trajectory
from repro.geometry.primitives import Point
from repro.points.annotator import PointAnnotator
from repro.points.poi import PoiSource


def _poi(place_id: str, x: float, y: float, category: str) -> PointOfInterest:
    return PointOfInterest(
        place_id=place_id, name=place_id, category=category, location=Point(x, y)
    )


@pytest.fixture()
def clustered_source() -> PoiSource:
    """Three spatially separated category clusters."""
    pois = []
    for i in range(6):
        pois.append(_poi(f"feed{i}", 100 + i * 8, 100, "feedings"))
        pois.append(_poi(f"sale{i}", 1000 + i * 8, 1000, "item sale"))
        pois.append(_poi(f"serv{i}", 2000 + i * 8, 100, "services"))
    return PoiSource(pois, name="clusters")


@pytest.fixture()
def annotator(clustered_source) -> PointAnnotator:
    config = PointAnnotationConfig(grid_cell_size=50, neighbor_radius=250, default_sigma=60)
    return PointAnnotator(clustered_source, config)


def _stop_trajectory():
    """A trajectory with three dwells: near feedings, item sale, services."""
    triples = []
    t = 0.0
    for center in ((110, 100), (1010, 1000), (2010, 100)):
        for _ in range(5):
            triples.append((center[0], center[1], t))
            t += 120.0
    return build_trajectory(triples, object_id="o", trajectory_id="stops")


def _stops(trajectory):
    return [
        Episode(EpisodeKind.STOP, trajectory, 0, 5),
        Episode(EpisodeKind.STOP, trajectory, 5, 10),
        Episode(EpisodeKind.STOP, trajectory, 10, 15),
    ]


class TestInference:
    def test_hmm_built_from_source(self, annotator, clustered_source):
        assert set(annotator.hmm.states) == set(clustered_source.categories())
        assert sum(annotator.hmm.initial.values()) == pytest.approx(1.0)

    def test_stop_categories_follow_clusters(self, annotator):
        trajectory = _stop_trajectory()
        categories = annotator.infer_stop_categories(_stops(trajectory))
        assert categories == ["feedings", "item sale", "services"]

    def test_empty_stop_list(self, annotator):
        assert annotator.infer_stop_categories([]) == []

    def test_move_episode_rejected(self, annotator):
        trajectory = _stop_trajectory()
        move = Episode(EpisodeKind.MOVE, trajectory, 0, 5)
        with pytest.raises(DataQualityError):
            annotator.infer_stop_categories([move])


class TestAnnotation:
    def test_annotate_stops_builds_structured_trajectory(self, annotator):
        trajectory = _stop_trajectory()
        stops = _stops(trajectory)
        structured = annotator.annotate_stops(stops)
        assert len(structured) == 3
        assert structured[0].place is not None
        assert structured[0].place.category == "feedings"
        assert structured[0].activity == "eating"
        assert structured[1].activity == "shopping"

    def test_annotations_attached_to_episodes(self, annotator):
        trajectory = _stop_trajectory()
        stops = _stops(trajectory)
        annotator.annotate_stops(stops)
        assert stops[0].annotations_of_kind(AnnotationKind.ACTIVITY)
        assert stops[0].annotations_of_kind(AnnotationKind.POINT)

    def test_annotate_stops_requires_stops(self, annotator):
        with pytest.raises(DataQualityError):
            annotator.annotate_stops([])

    def test_stop_far_from_all_pois_gets_no_place_link(self, annotator):
        triples = [(5000.0, 5000.0, float(i * 120)) for i in range(5)]
        trajectory = build_trajectory(triples)
        stop = Episode(EpisodeKind.STOP, trajectory, 0, 5)
        structured = annotator.annotate_stops([stop])
        assert structured[0].place is None
        # The activity annotation is still present (partial annotation).
        assert structured[0].activity is not None

    def test_records_sorted_by_time(self, annotator):
        trajectory = _stop_trajectory()
        stops = list(reversed(_stops(trajectory)))
        structured = annotator.annotate_stops(stops)
        times = [record.time_in for record in structured]
        assert times == sorted(times)


class TestTrajectoryClassification:
    def test_classify_trajectory_uses_longest_stop_category(self, annotator, clustered_source):
        # One short stop near feedings, one long stop near item sale.
        triples = []
        t = 0.0
        for _ in range(3):
            triples.append((110.0, 100.0, t))
            t += 60.0
        for _ in range(10):
            triples.append((1010.0, 1000.0, t))
            t += 600.0
        trajectory = build_trajectory(triples)
        stops = [
            Episode(EpisodeKind.STOP, trajectory, 0, 3),
            Episode(EpisodeKind.STOP, trajectory, 3, 13),
        ]
        assert annotator.classify_trajectory(stops) == "item sale"

    def test_classify_empty(self, annotator):
        assert annotator.classify_trajectory([]) is None

    def test_custom_transition_matrix(self, clustered_source):
        categories = clustered_source.categories()
        sticky = {
            source: {target: (0.98 if source == target else 0.01) for target in categories}
            for source in categories
        }
        annotator = PointAnnotator(
            clustered_source,
            PointAnnotationConfig(grid_cell_size=50, neighbor_radius=250),
            transitions=sticky,
        )
        assert annotator.hmm.transitions[categories[0]][categories[0]] > 0.9
