"""Unit tests for compression, latency, statistics and reporting helpers."""

from __future__ import annotations

import pytest

from repro.analytics.compression import CompressionReport, compression_report
from repro.analytics.latency import FIGURE17_STAGES, LatencyProfile
from repro.analytics.reporting import render_distribution_table, render_series, render_table
from repro.analytics.statistics import dataset_overview, episode_statistics, per_user_summary
from repro.core.episodes import Episode, EpisodeKind
from repro.core.points import build_trajectory
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory


class TestCompression:
    def test_ratio(self):
        report = CompressionReport(raw_records=1000, semantic_tuples=3)
        assert report.compression_ratio == pytest.approx(0.997)
        assert report.as_percentage() == pytest.approx(99.7)

    def test_zero_records(self):
        report = CompressionReport(raw_records=0, semantic_tuples=0)
        assert report.compression_ratio == 0.0

    def test_compression_report_from_structured(self):
        structured = StructuredSemanticTrajectory(
            "t", "o", records=[SemanticEpisodeRecord(None, 0, 10, EpisodeKind.STOP)]
        )
        report = compression_report(500, [structured])
        assert report.semantic_tuples == 1
        assert report.raw_records == 500


class TestLatency:
    def test_add_and_mean(self):
        profile = LatencyProfile()
        profile.add("map_match", 0.2)
        profile.add("map_match", 0.4)
        assert profile.mean("map_match") == pytest.approx(0.3)
        assert profile.count("map_match") == 2
        assert profile.total("map_match") == pytest.approx(0.6)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyProfile().add("x", -1)

    def test_unknown_stage_mean_zero(self):
        assert LatencyProfile().mean("none") == 0.0

    def test_percentile_nearest_rank(self):
        profile = LatencyProfile()
        for value in (0.5, 0.1, 0.3, 0.2, 0.4):  # unsorted on purpose
            profile.add("s", value)
        assert profile.percentile("s", 0.5) == pytest.approx(0.3)
        assert profile.p95("s") == pytest.approx(0.5)  # nearest rank: an actual sample
        assert profile.percentile("s", 1.0) == pytest.approx(0.5)
        assert profile.p95("missing") == 0.0

    def test_percentile_fraction_validated(self):
        profile = LatencyProfile()
        profile.add("s", 1.0)
        with pytest.raises(ValueError):
            profile.percentile("s", 0.0)
        with pytest.raises(ValueError):
            profile.percentile("s", 1.5)

    def test_merge(self):
        a, b = LatencyProfile(), LatencyProfile()
        a.add("s", 1.0)
        b.add("s", 3.0)
        a.merge(b)
        assert a.mean("s") == pytest.approx(2.0)

    def test_figure17_stage_names(self):
        assert "map_match" in FIGURE17_STAGES
        assert "landuse_join" in FIGURE17_STAGES


class TestStatistics:
    def _dataset(self):
        trajectory = build_trajectory([(float(i), 0, float(i * 10)) for i in range(10)])
        episodes = [
            Episode(EpisodeKind.STOP, trajectory, 0, 4),
            Episode(EpisodeKind.MOVE, trajectory, 4, 10),
        ]
        return [trajectory], episodes

    def test_episode_statistics(self):
        trajectories, episodes = self._dataset()
        stats = episode_statistics(trajectories, episodes)
        assert stats.trajectory_count == 1
        assert stats.stop_count == 1
        assert stats.move_count == 1
        assert stats.gps_record_count == 10
        assert stats.stops_per_trajectory == 1.0
        assert stats.stop_lengths == [4]

    def test_empty_statistics(self):
        stats = episode_statistics([], [])
        assert stats.stops_per_trajectory == 0.0

    def test_per_user_summary(self):
        trajectories, episodes = self._dataset()
        summary = per_user_summary({"user1": trajectories}, {"user1": episodes})
        assert summary["user1"]["gps_records_div100"] == pytest.approx(0.1)
        assert summary["user1"]["stops"] == 1.0

    def test_dataset_overview(self):
        trajectories, _ = self._dataset()
        overview = dataset_overview(trajectories)
        assert overview["objects"] == 1.0
        assert overview["gps_records"] == 10.0
        assert overview["mean_sampling_period"] == pytest.approx(10.0)

    def test_dataset_overview_empty(self):
        overview = dataset_overview([])
        assert overview["gps_records"] == 0.0


class TestReporting:
    def test_render_table_alignment(self):
        table = render_table(["name", "value"], [["a", 1], ["longer", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_render_table_validates_row_width(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only one"]])

    def test_render_distribution_table_sorted(self):
        text = render_distribution_table({"b": 0.2, "a": 0.8})
        a_index = text.index("a ")
        b_index = text.index("b ")
        assert a_index < b_index

    def test_render_series(self):
        text = render_series({"sigma=0.5R": [(1, 0.9), (2, 0.95)]}, title="Fig 10")
        assert "Fig 10" in text
        assert "[sigma=0.5R]" in text
        assert "0.9500" in text
