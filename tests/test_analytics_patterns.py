"""Unit tests for sequential-pattern mining and mobility statistics."""

from __future__ import annotations

import pytest

import repro
from repro.analytics.patterns import (
    category_sequences,
    frequent_sequences,
    mobility_statistics,
    mode_sequences,
    radius_of_gyration,
)
from repro.core.annotations import transport_mode_annotation
from repro.core.episodes import EpisodeKind
from repro.core.places import RegionOfInterest
from repro.core.points import build_trajectory
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory
from repro.geometry.primitives import BoundingBox, Point


def _region(place_id: str, category: str = "1.2") -> RegionOfInterest:
    return RegionOfInterest(
        place_id=place_id, name=place_id, category=category, extent=BoundingBox(0, 0, 1, 1)
    )


def _structured(places, modes=None) -> StructuredSemanticTrajectory:
    structured = StructuredSemanticTrajectory("t", "o")
    time = 0.0
    for index, place in enumerate(places):
        annotations = []
        if modes and index < len(modes) and modes[index]:
            annotations.append(transport_mode_annotation(modes[index]))
        structured.append(
            SemanticEpisodeRecord(
                place=_region(place) if place else None,
                time_in=time,
                time_out=time + 100,
                kind=EpisodeKind.MOVE if modes else EpisodeKind.STOP,
                annotations=annotations,
            )
        )
        time += 100
    return structured


class TestFrequentSequences:
    def test_basic_bigram_mining(self):
        sequences = [["home", "office", "market"], ["home", "office", "gym"]]
        patterns = frequent_sequences(sequences, min_length=2, max_length=2, min_support=2)
        assert patterns[0].items == ("home", "office")
        assert patterns[0].support == 2

    def test_longer_patterns_ranked_after_support(self):
        sequences = [["a", "b", "c"], ["a", "b", "c"], ["a", "b"]]
        patterns = frequent_sequences(sequences, min_length=2, max_length=3, min_support=2)
        supports = {pattern.items: pattern.support for pattern in patterns}
        assert supports[("a", "b")] == 3
        assert supports[("a", "b", "c")] == 2

    def test_min_support_filters(self):
        sequences = [["a", "b"], ["c", "d"]]
        assert frequent_sequences(sequences, min_support=2) == []

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            frequent_sequences([["a"]], min_length=3, max_length=2)

    def test_short_sequences_ignored(self):
        patterns = frequent_sequences([["a"], ["a"]], min_length=2, max_length=2, min_support=1)
        assert patterns == []


class TestSequenceExtraction:

    def test_category_sequences_collapse_duplicates(self):
        structured = StructuredSemanticTrajectory("t", "o")
        for index, category in enumerate(["1.2", "1.2", "1.3", None, "1.2"]):
            structured.append(
                SemanticEpisodeRecord(
                    place=_region(f"r{index}", category) if category else None,
                    time_in=index * 10,
                    time_out=index * 10 + 5,
                    kind=EpisodeKind.STOP,
                )
            )
        assert category_sequences([structured]) == [["1.2", "1.3", "1.2"]]

    def test_mode_sequences_collapse_duplicates(self):
        structured = _structured(["a", "b", "c", "d"], modes=["walk", "walk", "metro", "walk"])
        assert mode_sequences([structured]) == [["walk", "metro", "walk"]]


class TestMobilityStatistics:
    def test_radius_of_gyration_zero_for_single_point(self):
        assert radius_of_gyration([Point(0, 0)]) == 0.0

    def test_radius_of_gyration_symmetric_pair(self):
        assert radius_of_gyration([Point(-10, 0), Point(10, 0)]) == pytest.approx(10.0)

    def test_radius_grows_with_spread(self):
        tight = radius_of_gyration([Point(0, 0), Point(10, 0), Point(0, 10)])
        wide = radius_of_gyration([Point(0, 0), Point(1000, 0), Point(0, 1000)])
        assert wide > tight

    def test_mobility_statistics_basic(self):
        trajectory = build_trajectory(
            [(0, 0, 0), (1000, 0, 600), (1000, 1000, 1200)], object_id="u1"
        )
        structured = _structured(["home", "office"], modes=["walk", "metro"])
        stats = mobility_statistics("u1", [trajectory], [structured])
        assert stats.total_distance == pytest.approx(2000.0)
        assert stats.daily_distance == pytest.approx(2000.0)
        assert stats.distinct_places == 2
        assert stats.mode_time_share["walk"] == pytest.approx(0.5)
        assert stats.radius_of_gyration > 0

    def test_mobility_statistics_without_structured(self):
        trajectory = build_trajectory([(0, 0, 0), (300, 400, 100)], object_id="u2")
        stats = mobility_statistics("u2", [trajectory])
        assert stats.total_distance == pytest.approx(500.0)
        assert stats.distinct_places == 0
        assert stats.mode_time_share == {}

    def test_daily_distance_averages_over_trajectories(self):
        day1 = build_trajectory([(0, 0, 0), (1000, 0, 600)], object_id="u3", trajectory_id="d1")
        day2 = build_trajectory(
            [(0, 0, 86_400), (3000, 0, 87_000)], object_id="u3", trajectory_id="d2"
        )
        stats = mobility_statistics("u3", [day1, day2])
        assert stats.daily_distance == pytest.approx(2000.0)


class TestEndToEndPatterns:
    def test_commuter_pattern_emerges(
        self, world, people_dataset, people_config, annotation_sources
    ):
        """The home->office->home routine shows up as a frequent category sequence."""
        user = people_dataset.user_ids[0]
        trajectories = people_dataset.trajectories_by_user[user]
        results = repro.annotate_many(trajectories, annotation_sources, people_config)
        structured = [r.region_trajectory for r in results if r.region_trajectory is not None]
        sequences = category_sequences(structured)
        patterns = frequent_sequences(sequences, min_length=2, max_length=2, min_support=1)
        assert patterns, "a single user's days should share at least one category bigram"
