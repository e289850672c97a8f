"""Unit tests for frequent-place mining."""

from __future__ import annotations

import pytest

from repro.analytics.places import FrequentPlaceMiner, label_home_and_work
from repro.core.episodes import Episode, EpisodeKind
from repro.core.points import build_trajectory


def _stop_at(x: float, y: float, start: float, duration: float = 600.0) -> Episode:
    """A five-point stop episode dwelling at (x, y) starting at ``start``."""
    step = duration / 4
    triples = [(x, y, start + i * step) for i in range(5)]
    trajectory = build_trajectory(triples, object_id="u", trajectory_id=f"t{start:.0f}")
    return Episode(EpisodeKind.STOP, trajectory, 0, 5)


class TestFrequentPlaceMiner:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FrequentPlaceMiner(radius=0)
        with pytest.raises(ValueError):
            FrequentPlaceMiner(min_visits=0)

    def test_empty_input(self):
        assert FrequentPlaceMiner().mine([]) == []

    def test_clusters_nearby_stops(self):
        stops = [
            _stop_at(0, 0, 0),
            _stop_at(20, 10, 90_000),
            _stop_at(5000, 5000, 10_000),
            _stop_at(5010, 4990, 95_000),
        ]
        places = FrequentPlaceMiner(radius=100, min_visits=2).mine(stops)
        assert len(places) == 2
        assert all(place.visit_count == 2 for place in places)

    def test_one_off_visits_discarded(self):
        stops = [_stop_at(0, 0, 0), _stop_at(0, 0, 90_000), _stop_at(9000, 9000, 10_000)]
        places = FrequentPlaceMiner(radius=100, min_visits=2).mine(stops)
        assert len(places) == 1
        assert places[0].visit_count == 2

    def test_places_ranked_by_visits(self):
        stops = (
            [_stop_at(0, 0, i * 86_400) for i in range(4)]
            + [_stop_at(3000, 3000, i * 86_400 + 40_000) for i in range(2)]
        )
        places = FrequentPlaceMiner(radius=100).mine(stops)
        assert places[0].visit_count == 4
        assert places[0].place_index == 0
        assert places[1].visit_count == 2

    def test_moves_are_ignored(self):
        trajectory = build_trajectory([(float(i * 100), 0, float(i * 10)) for i in range(10)])
        move = Episode(EpisodeKind.MOVE, trajectory, 0, 10)
        assert FrequentPlaceMiner().mine([move]) == []

    def test_center_is_mean_of_member_stops(self):
        stops = [_stop_at(0, 0, 0), _stop_at(40, 0, 90_000)]
        places = FrequentPlaceMiner(radius=100).mine(stops)
        assert places[0].center.x == pytest.approx(20.0)

    def test_dominant_region_category_none_unannotated(self):
        places = FrequentPlaceMiner(radius=100).mine([_stop_at(0, 0, 0), _stop_at(1, 1, 90_000)])
        assert places[0].dominant_region_category() is None

    def test_transitive_chains_form_one_cluster(self):
        # Stops 80 m apart pairwise chain into a single cluster with radius 100.
        stops = [_stop_at(i * 80.0, 0, i * 86_400) for i in range(4)]
        places = FrequentPlaceMiner(radius=100, min_visits=2).mine(stops)
        assert len(places) == 1
        assert places[0].visit_count == 4


class TestHomeWorkLabelling:
    def test_night_place_labelled_home(self):
        # Night-time stops (22:00) at one location, daytime stops at another.
        home_stops = [_stop_at(0, 0, i * 86_400 + 22 * 3600, duration=7 * 3600) for i in range(3)]
        work_stops = [_stop_at(5000, 0, i * 86_400 + 9 * 3600, duration=8 * 3600) for i in range(3)]
        places = FrequentPlaceMiner(radius=100).mine(home_stops + work_stops)
        labels = label_home_and_work(places)
        by_center = {round(place.center.x): labels[place.place_index] for place in places}
        assert by_center[0] == "home"
        assert by_center[5000] == "work"

    def test_empty_input(self):
        assert label_home_and_work([]) == {}

    def test_single_place_is_home(self):
        places = FrequentPlaceMiner(radius=100).mine(
            [_stop_at(0, 0, 22 * 3600), _stop_at(0, 0, 86_400 + 22 * 3600)]
        )
        labels = label_home_and_work(places)
        assert list(labels.values()) == ["home"]
