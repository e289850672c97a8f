"""Unit tests for Algorithm 1: trajectory annotation with regions."""

from __future__ import annotations

import pytest

from repro.core.annotations import AnnotationKind
from repro.core.config import PipelineConfig, RegionAnnotationConfig
from repro.core.episodes import Episode, EpisodeKind
from repro.core.places import RegionOfInterest
from repro.core.points import build_trajectory
from repro.geometry.primitives import BoundingBox
from repro.preprocessing.stops import StopMoveDetector
from repro.regions.annotator import RegionAnnotator
from repro.regions.sources import RegionSource


def _cell(place_id: str, x: float, category: str) -> RegionOfInterest:
    return RegionOfInterest(
        place_id=place_id,
        name=place_id,
        category=category,
        extent=BoundingBox(x, 0, x + 100, 100),
    )


@pytest.fixture()
def strip_source() -> RegionSource:
    """Three adjacent 100x100 cells along the x axis."""
    return RegionSource(
        [_cell("c0", 0, "1.2"), _cell("c1", 100, "1.3"), _cell("c2", 200, "1.2")],
        name="strip",
    )


@pytest.fixture()
def crossing_trajectory():
    """A trajectory crossing the three cells left to right at 10 m/s."""
    triples = [(float(i * 10), 50.0, float(i * 1)) for i in range(30)]
    return build_trajectory(triples, object_id="o", trajectory_id="cross")


class TestAnnotateTrajectory:
    def test_region_sequence(self, strip_source, crossing_trajectory):
        annotator = RegionAnnotator(strip_source)
        structured = annotator.annotate_trajectory(crossing_trajectory)
        assert structured.place_sequence() == ["c0", "c1", "c2"]

    def test_records_are_time_ordered_and_contiguous(self, strip_source, crossing_trajectory):
        structured = RegionAnnotator(strip_source).annotate_trajectory(crossing_trajectory)
        times = [(record.time_in, record.time_out) for record in structured]
        assert all(t_in <= t_out for t_in, t_out in times)
        assert all(a[1] <= b[0] for a, b in zip(times, times[1:]))

    def test_consecutive_same_region_merged(self, strip_source):
        # A trajectory that stays in one cell produces a single record.
        triples = [(50.0 + i, 50.0, float(i)) for i in range(20)]
        structured = RegionAnnotator(strip_source).annotate_trajectory(build_trajectory(triples))
        assert len(structured) == 1
        assert structured[0].place.place_id == "c0"

    def test_points_outside_all_regions_get_no_place(self, strip_source):
        triples = [(1000.0 + i, 50.0, float(i)) for i in range(10)]
        structured = RegionAnnotator(strip_source).annotate_trajectory(build_trajectory(triples))
        assert len(structured) == 1
        assert structured[0].place is None

    def test_region_annotations_attached(self, strip_source, crossing_trajectory):
        structured = RegionAnnotator(strip_source).annotate_trajectory(crossing_trajectory)
        for record in structured:
            assert any(a.kind is AnnotationKind.REGION for a in record.annotations)


class TestAnnotateEpisodes:
    def test_stop_annotated_by_center(self, strip_source, crossing_trajectory):
        episodes = [
            Episode(EpisodeKind.STOP, crossing_trajectory, 0, 5),
            Episode(EpisodeKind.MOVE, crossing_trajectory, 5, 30),
        ]
        annotator = RegionAnnotator(strip_source)
        structured = annotator.annotate_episodes(episodes)
        assert len(structured) == 2
        assert structured[0].place.place_id == "c0"
        assert structured[0].kind is EpisodeKind.STOP

    def test_move_gets_dominant_region(self, strip_source, crossing_trajectory):
        episodes = [Episode(EpisodeKind.MOVE, crossing_trajectory, 0, 30)]
        structured = RegionAnnotator(strip_source).annotate_episodes(episodes)
        # Points 0..29 at x=0..290: cells c0 (10 pts), c1 (10), c2 (10); ties break by id.
        assert structured[0].place is not None

    def test_episode_annotation_also_attached_to_episode(self, strip_source, crossing_trajectory):
        episode = Episode(EpisodeKind.STOP, crossing_trajectory, 0, 5)
        RegionAnnotator(strip_source).annotate_episodes([episode])
        assert episode.annotations_of_kind(AnnotationKind.REGION)

    def test_intersects_predicate(self, strip_source, crossing_trajectory):
        config = RegionAnnotationConfig(join_predicate="intersects")
        episodes = [Episode(EpisodeKind.MOVE, crossing_trajectory, 0, 30)]
        structured = RegionAnnotator(strip_source, config).annotate_episodes(episodes)
        assert structured[0].place is not None

    def test_intersects_equals_contains_on_a_tiling_source(self, region_source, car_dataset):
        # The landuse grid tiles the world, so the regions a move's bounding box
        # meets hold every region that contains one of its points.
        detector = StopMoveDetector(PipelineConfig.for_vehicles().stop_move)
        episodes = [
            episode
            for trajectory in car_dataset.trajectories
            for episode in detector.segment(trajectory)
        ]
        assert any(episode.is_move for episode in episodes)
        assert any(episode.is_stop for episode in episodes)
        contains = RegionAnnotator(region_source).annotate_episode_group(episodes)
        intersects = RegionAnnotator(
            region_source, RegionAnnotationConfig(join_predicate="intersects")
        ).annotate_episode_group(episodes)
        assert all(record.place is not None for record in contains)
        assert [record.place.place_id for record in intersects] == [
            record.place.place_id for record in contains
        ]

    def test_intersects_move_outside_every_region(self, strip_source):
        triples = [(1000.0 + i * 10, 50.0, float(i)) for i in range(10)]
        episode = Episode(EpisodeKind.MOVE, build_trajectory(triples), 0, 10)
        config = RegionAnnotationConfig(join_predicate="intersects")
        structured = RegionAnnotator(strip_source, config).annotate_episodes([episode])
        assert structured[0].place is None
        assert structured[0].annotations == []
        assert not episode.annotations_of_kind(AnnotationKind.REGION)

    def test_empty_episode_list_raises(self, strip_source):
        with pytest.raises(ValueError):
            RegionAnnotator(strip_source).annotate_episodes([])


class TestDistributions:
    def test_point_category_distribution(self, strip_source, crossing_trajectory):
        counts = RegionAnnotator(strip_source).point_category_distribution([crossing_trajectory])
        assert counts["1.2"] == 20
        assert counts["1.3"] == 10

    def test_episode_category_distribution(self, strip_source, crossing_trajectory):
        episodes = [
            Episode(EpisodeKind.STOP, crossing_trajectory, 0, 5),
            Episode(EpisodeKind.STOP, crossing_trajectory, 25, 30),
        ]
        counts = RegionAnnotator(strip_source).episode_category_distribution(episodes)
        assert counts == {"1.2": 2}
