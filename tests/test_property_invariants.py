"""Cross-module property-based tests on core invariants.

These complement the per-module property tests: they check invariants that
hold across layer boundaries (map matching, region annotation, structured
trajectory merging, compression reporting) for randomly generated inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.compression import CompressionReport
from repro.core.config import MapMatchingConfig
from repro.core.episodes import EpisodeKind
from repro.core.places import RegionOfInterest
from repro.core.points import SpatioTemporalPoint, build_trajectory
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory
from repro.geometry.distance import point_segment_distance
from repro.geometry.primitives import BoundingBox, Point
from repro.lines.map_matching import GlobalMapMatcher
from repro.lines.road_network import RoadNetwork, make_road_segment
from repro.regions.annotator import RegionAnnotator
from repro.regions.sources import RegionSource


@st.composite
def planar_tracks(draw):
    """A short GPS track with bounded coordinates and increasing timestamps."""
    count = draw(st.integers(min_value=2, max_value=25))
    points = []
    t = 0.0
    for _ in range(count):
        x = draw(st.floats(min_value=0, max_value=400, allow_nan=False))
        y = draw(st.floats(min_value=0, max_value=400, allow_nan=False))
        t += draw(st.floats(min_value=1, max_value=30, allow_nan=False))
        points.append(SpatioTemporalPoint(x, y, t))
    return points


def _small_network() -> RoadNetwork:
    segments = []
    for x in (0, 100, 200, 300, 400):
        for y in (0, 100, 200, 300):
            segments.append(
                make_road_segment(f"v-{x}-{y}", "v", Point(x, y), Point(x, y + 100), "road")
            )
    for y in (0, 100, 200, 300, 400):
        for x in (0, 100, 200, 300):
            segments.append(
                make_road_segment(f"h-{x}-{y}", "h", Point(x, y), Point(x + 100, y), "road")
            )
    return RoadNetwork(segments, name="property-grid")


_NETWORK = _small_network()


def _strip_region_source() -> RegionSource:
    regions = []
    for index in range(5):
        regions.append(
            RegionOfInterest(
                place_id=f"band-{index}",
                name=f"band-{index}",
                category="1.2" if index % 2 == 0 else "1.3",
                extent=BoundingBox(index * 100.0, 0.0, (index + 1) * 100.0, 400.0),
            )
        )
    return RegionSource(regions, name="bands")


_REGIONS = _strip_region_source()


class TestMapMatchingProperties:
    @given(planar_tracks())
    @settings(max_examples=40, deadline=None)
    def test_matched_segment_is_always_a_nearby_candidate(self, points):
        config = MapMatchingConfig(candidate_radius=80.0)
        matcher = GlobalMapMatcher(_NETWORK, config)
        for matched in matcher.match(points):
            if matched.segment is None:
                continue
            distance = point_segment_distance(matched.point.position, matched.segment.segment)
            assert distance <= config.candidate_radius + 1e-6
            # The snapped position lies on (or extremely near) the matched segment.
            snap_distance = point_segment_distance(matched.snapped, matched.segment.segment)
            assert snap_distance < 1e-6

    @given(planar_tracks())
    @settings(max_examples=25, deadline=None)
    def test_matching_is_deterministic(self, points):
        matcher = GlobalMapMatcher(_NETWORK, MapMatchingConfig(candidate_radius=80.0))
        first = [m.segment_id for m in matcher.match(points)]
        second = [m.segment_id for m in matcher.match(points)]
        assert first == second

    @given(planar_tracks())
    @settings(max_examples=25, deadline=None)
    def test_output_length_matches_input(self, points):
        matcher = GlobalMapMatcher(_NETWORK, MapMatchingConfig(candidate_radius=60.0))
        assert len(matcher.match(points)) == len(points)


class TestRegionAnnotationProperties:
    @given(planar_tracks())
    @settings(max_examples=40, deadline=None)
    def test_region_tuples_cover_the_trajectory_time_span(self, points):
        trajectory = build_trajectory(
            [(p.x, p.y, p.t) for p in points], object_id="prop", trajectory_id="prop"
        )
        annotator = RegionAnnotator(_REGIONS)
        structured = annotator.annotate_trajectory(trajectory)
        assert len(structured) >= 1
        assert structured[0].time_in == pytest.approx(trajectory.start_time)
        assert structured.records[-1].time_out == pytest.approx(trajectory.end_time)
        # Records are time-ordered and non-overlapping.
        for previous, current in zip(structured.records, structured.records[1:]):
            assert previous.time_out <= current.time_in + 1e-9

    @given(planar_tracks())
    @settings(max_examples=40, deadline=None)
    def test_merged_never_has_adjacent_equal_places(self, points):
        trajectory = build_trajectory(
            [(p.x, p.y, p.t) for p in points], object_id="prop", trajectory_id="prop"
        )
        structured = RegionAnnotator(_REGIONS).annotate_trajectory(trajectory)
        for previous, current in zip(structured.records, structured.records[1:]):
            previous_id = previous.place.place_id if previous.place else None
            current_id = current.place.place_id if current.place else None
            assert not (previous_id == current_id and previous.kind is current.kind)

    @given(planar_tracks())
    @settings(max_examples=30, deadline=None)
    def test_tuple_count_never_exceeds_point_count(self, points):
        trajectory = build_trajectory(
            [(p.x, p.y, p.t) for p in points], object_id="prop", trajectory_id="prop"
        )
        structured = RegionAnnotator(_REGIONS).annotate_trajectory(trajectory)
        assert len(structured) <= len(trajectory)
        report = CompressionReport(raw_records=len(trajectory), semantic_tuples=len(structured))
        assert 0.0 <= report.compression_ratio < 1.0


class TestStructuredTrajectoryProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", None]), st.floats(min_value=1, max_value=100)
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merging_is_idempotent_and_preserves_duration(self, steps):
        structured = StructuredSemanticTrajectory("t", "o")
        time = 0.0
        for place_id, duration in steps:
            place = (
                RegionOfInterest(
                    place_id=place_id,
                    name=place_id,
                    category="1.2",
                    extent=BoundingBox(0, 0, 1, 1),
                )
                if place_id is not None
                else None
            )
            structured.append(
                SemanticEpisodeRecord(place, time, time + duration, EpisodeKind.STOP)
            )
            time += duration
        merged_once = structured.merged()
        merged_twice = merged_once.merged()
        assert len(merged_twice) == len(merged_once)
        assert merged_once.duration == pytest.approx(structured.duration)
        assert len(merged_once) <= len(structured)
