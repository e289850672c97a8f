"""Unit tests for episodes and episode partitions."""

from __future__ import annotations

import pytest

from repro.core.annotations import AnnotationKind, transport_mode_annotation
from repro.core.episodes import (
    Episode,
    EpisodeKind,
    validate_episode_partition,
)
from repro.core.errors import DataQualityError
from repro.core.points import build_trajectory


@pytest.fixture()
def trajectory():
    triples = [(float(i), 0.0, float(i * 10)) for i in range(10)]
    return build_trajectory(triples, object_id="obj", trajectory_id="traj")


class TestEpisode:
    def test_basic_properties(self, trajectory):
        episode = Episode(EpisodeKind.MOVE, trajectory, 2, 6)
        assert len(episode) == 4
        assert episode.time_in == 20
        assert episode.time_out == 50
        assert episode.duration == 30
        assert episode.is_move and not episode.is_stop

    def test_time_accessors_index_the_trajectory_without_slicing_it(self, trajectory):
        class NoSlice(list):
            def __getitem__(self, index):
                assert not isinstance(index, slice), "time accessors must not copy the episode"
                return super().__getitem__(index)

        trajectory._ts = NoSlice(trajectory.ts)
        trajectory._points = None  # and build no point object either
        episode = Episode(EpisodeKind.STOP, trajectory, 3, 8)
        assert (episode.time_in, episode.time_out, episode.duration) == (30.0, 70.0, 40.0)
        assert trajectory._points is None

    def test_invalid_range_raises(self, trajectory):
        with pytest.raises(DataQualityError):
            Episode(EpisodeKind.STOP, trajectory, 5, 5)
        with pytest.raises(DataQualityError):
            Episode(EpisodeKind.STOP, trajectory, -1, 2)
        with pytest.raises(DataQualityError):
            Episode(EpisodeKind.STOP, trajectory, 0, 99)

    def test_center_and_bbox(self, trajectory):
        episode = Episode(EpisodeKind.STOP, trajectory, 0, 3)
        assert episode.center().x == pytest.approx(1.0)
        assert episode.bounding_box().max_x == pytest.approx(2.0)

    def test_path_length(self, trajectory):
        episode = Episode(EpisodeKind.MOVE, trajectory, 0, 5)
        assert episode.path_length() == pytest.approx(4.0)

    def test_annotations(self, trajectory):
        episode = Episode(EpisodeKind.MOVE, trajectory, 0, 3)
        episode.add_annotation(transport_mode_annotation("bus"))
        assert len(episode.annotations_of_kind(AnnotationKind.TRANSPORT_MODE)) == 1
        assert episode.annotations_of_kind(AnnotationKind.REGION) == []


class TestPartitionValidation:
    def test_valid_partition(self, trajectory):
        episodes = [
            Episode(EpisodeKind.STOP, trajectory, 0, 4),
            Episode(EpisodeKind.MOVE, trajectory, 4, 10),
        ]
        validate_episode_partition(trajectory, episodes)

    def test_partition_must_start_at_zero(self, trajectory):
        episodes = [Episode(EpisodeKind.MOVE, trajectory, 1, 10)]
        with pytest.raises(DataQualityError):
            validate_episode_partition(trajectory, episodes)

    def test_partition_must_cover_end(self, trajectory):
        episodes = [Episode(EpisodeKind.MOVE, trajectory, 0, 9)]
        with pytest.raises(DataQualityError):
            validate_episode_partition(trajectory, episodes)

    def test_partition_must_be_contiguous(self, trajectory):
        episodes = [
            Episode(EpisodeKind.STOP, trajectory, 0, 4),
            Episode(EpisodeKind.MOVE, trajectory, 5, 10),
        ]
        with pytest.raises(DataQualityError):
            validate_episode_partition(trajectory, episodes)

    def test_empty_partition_rejected(self, trajectory):
        with pytest.raises(DataQualityError):
            validate_episode_partition(trajectory, [])
