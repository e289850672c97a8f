"""Unit tests for semantic and structured semantic trajectories (Defs 3-4)."""

from __future__ import annotations

import pytest

from repro.core.annotations import activity_annotation, region_annotation, transport_mode_annotation
from repro.core.episodes import EpisodeKind
from repro.core.errors import DataQualityError
from repro.core.places import RegionOfInterest
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory
from repro.geometry.primitives import BoundingBox


def _region(place_id: str, category: str = "1.2") -> RegionOfInterest:
    return RegionOfInterest(
        place_id=place_id, name=place_id, category=category, extent=BoundingBox(0, 0, 1, 1)
    )


class TestSemanticEpisodeRecord:
    def test_inverted_interval_rejected(self):
        with pytest.raises(DataQualityError):
            SemanticEpisodeRecord(place=None, time_in=10, time_out=5, kind=EpisodeKind.STOP)

    def test_value_accessors(self):
        record = SemanticEpisodeRecord(
            place=_region("r1"),
            time_in=0,
            time_out=100,
            kind=EpisodeKind.MOVE,
            annotations=[transport_mode_annotation("bus"), activity_annotation("commute")],
        )
        assert record.duration == 100
        assert record.place_category == "1.2"
        assert record.transport_mode == "bus"
        assert record.activity == "commute"
        assert record.value_of("missing") is None


class TestStructuredSemanticTrajectory:
    def test_records_must_be_time_ordered(self):
        structured = StructuredSemanticTrajectory("t", "o")
        structured.append(SemanticEpisodeRecord(None, 10, 20, EpisodeKind.STOP))
        with pytest.raises(DataQualityError):
            structured.append(SemanticEpisodeRecord(None, 5, 8, EpisodeKind.MOVE))

    def test_merged_combines_same_place_and_kind(self):
        region = _region("r1")
        structured = StructuredSemanticTrajectory(
            "t",
            "o",
            records=[
                SemanticEpisodeRecord(region, 0, 10, EpisodeKind.MOVE, [region_annotation(region)]),
                SemanticEpisodeRecord(
                    region, 10, 20, EpisodeKind.MOVE, [region_annotation(region)]
                ),
                SemanticEpisodeRecord(_region("r2"), 20, 30, EpisodeKind.MOVE),
            ],
        )
        merged = structured.merged()
        assert len(merged) == 2
        assert merged[0].time_in == 0 and merged[0].time_out == 20
        assert len(merged[0].annotations) == 2

    def test_merged_does_not_combine_across_kinds(self):
        region = _region("r1")
        structured = StructuredSemanticTrajectory(
            "t",
            "o",
            records=[
                SemanticEpisodeRecord(region, 0, 10, EpisodeKind.STOP),
                SemanticEpisodeRecord(region, 10, 20, EpisodeKind.MOVE),
            ],
        )
        assert len(structured.merged()) == 2

    def test_merged_combines_consecutive_placeless_records(self):
        structured = StructuredSemanticTrajectory(
            "t",
            "o",
            records=[
                SemanticEpisodeRecord(None, 0, 10, EpisodeKind.MOVE),
                SemanticEpisodeRecord(None, 10, 20, EpisodeKind.MOVE),
            ],
        )
        assert len(structured.merged()) == 1

    def test_stops_moves_and_duration(self):
        structured = StructuredSemanticTrajectory(
            "t",
            "o",
            records=[
                SemanticEpisodeRecord(_region("r1"), 0, 100, EpisodeKind.STOP),
                SemanticEpisodeRecord(None, 100, 200, EpisodeKind.MOVE),
                SemanticEpisodeRecord(_region("r2", "1.3"), 200, 400, EpisodeKind.STOP),
            ],
        )
        assert len(structured.stops()) == 2
        assert len(structured.moves()) == 1
        assert structured.duration == 400

    def test_mode_and_place_sequences(self):
        region = _region("r1")
        structured = StructuredSemanticTrajectory(
            "t",
            "o",
            records=[
                SemanticEpisodeRecord(
                    region, 0, 10, EpisodeKind.MOVE, [transport_mode_annotation("walk")]
                ),
                SemanticEpisodeRecord(
                    _region("r2"), 10, 20, EpisodeKind.MOVE, [transport_mode_annotation("metro")]
                ),
                SemanticEpisodeRecord(None, 20, 30, EpisodeKind.STOP),
            ],
        )
        assert structured.mode_sequence() == ["walk", "metro"]
        assert structured.place_sequence() == ["r1", "r2"]
