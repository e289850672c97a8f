"""Unit tests for the road network model."""

from __future__ import annotations

import pytest

from repro.core.errors import SourceError
from repro.geometry.primitives import Point
from repro.lines.road_network import ROAD_TYPE_PROFILES, RoadNetwork, make_road_segment


def _grid_network() -> RoadNetwork:
    """A 2x2 block grid of 100 m streets plus one metro segment."""
    segments = []
    for x in (0, 100, 200):
        for y in (0, 100):
            segments.append(
                make_road_segment(f"v-{x}-{y}", "v", Point(x, y), Point(x, y + 100), "road")
            )
    for y in (0, 100, 200):
        for x in (0, 100):
            segments.append(
                make_road_segment(f"h-{x}-{y}", "h", Point(x, y), Point(x + 100, y), "road")
            )
    segments.append(
        make_road_segment("metro-0", "metro", Point(0, 250), Point(200, 250), "metro_line")
    )
    return RoadNetwork(segments, name="grid")


class TestConstruction:
    def test_empty_network_rejected(self):
        with pytest.raises(SourceError):
            RoadNetwork([], name="empty")

    def test_duplicate_segment_ids_rejected(self):
        seg = make_road_segment("dup", "a", Point(0, 0), Point(1, 0))
        with pytest.raises(SourceError):
            RoadNetwork([seg, seg])

    def test_make_road_segment_applies_type_profile(self):
        metro = make_road_segment("m", "metro", Point(0, 0), Point(10, 0), "metro_line")
        assert metro.allowed_modes == tuple(ROAD_TYPE_PROFILES["metro_line"]["allowed_modes"])
        assert metro.speed_limit == ROAD_TYPE_PROFILES["metro_line"]["speed_limit"]

    def test_unknown_type_falls_back_to_road_profile(self):
        other = make_road_segment("x", "x", Point(0, 0), Point(10, 0), "dirt_track")
        assert other.allowed_modes == tuple(ROAD_TYPE_PROFILES["road"]["allowed_modes"])

    def test_basic_accessors(self):
        network = _grid_network()
        assert len(network) == 13
        assert set(network.road_types()) == {"metro_line", "road"}
        assert network.segment("metro-0").road_type == "metro_line"

    def test_unknown_segment_raises(self):
        with pytest.raises(SourceError):
            _grid_network().segment("nope")


class TestCandidateSelection:
    def test_candidates_sorted_by_distance(self):
        network = _grid_network()
        candidates = network.candidate_segments(Point(50, 10), radius=60)
        distances = [distance for distance, _ in candidates]
        assert distances == sorted(distances)
        assert candidates[0][1].place_id == "h-0-0"

    def test_candidate_radius_limits_results(self):
        network = _grid_network()
        nearby = network.candidate_segments(Point(50, 10), radius=15)
        assert {segment.place_id for _, segment in nearby} == {"h-0-0"}

    def test_max_candidates(self):
        network = _grid_network()
        limited = network.candidate_segments(Point(100, 100), radius=200, max_candidates=3)
        assert len(limited) == 3

    def test_nearest_segment(self):
        network = _grid_network()
        distance, segment = network.nearest_segment(Point(50, -30))
        assert segment.place_id == "h-0-0"
        assert distance == pytest.approx(30.0)


class TestConnectivity:
    def test_segments_sharing_endpoint_are_connected(self):
        network = _grid_network()
        assert network.are_connected("h-0-0", "v-100-0")
        assert network.are_connected("h-0-0", "h-0-0")

    def test_disconnected_segments(self):
        network = _grid_network()
        assert not network.are_connected("h-0-0", "metro-0")

    def test_neighbors(self):
        network = _grid_network()
        neighbors = network.neighbors("h-0-0")
        assert "v-0-0" in neighbors and "v-100-0" in neighbors
        assert "metro-0" not in neighbors

    def test_connectivity_distance(self):
        network = _grid_network()
        assert network.connectivity_distance("h-0-0", "h-0-0") == 0
        assert network.connectivity_distance("h-0-0", "v-100-0") == 1
        assert network.connectivity_distance("h-0-0", "metro-0", max_hops=4) is None

    def test_connectivity_distance_two_hops(self):
        network = _grid_network()
        hops = network.connectivity_distance("h-0-0", "h-100-100", max_hops=4)
        assert hops is not None and hops >= 2


class TestWorldNetwork:
    def test_world_network_has_expected_road_types(self, road_network):
        types = set(road_network.road_types())
        assert {"road", "highway", "metro_line", "path_way"} <= types

    def test_world_network_bounds_inside_world(self, world, road_network):
        assert world.bounds.contains_box(road_network.bounds())

    def test_world_streets_are_connected(self, road_network):
        streets = [s for s in road_network.segments if s.road_type == "road"]
        sample = streets[0]
        assert road_network.neighbors(sample.place_id)
