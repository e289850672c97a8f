"""Unit tests for routing and the movement-sampling helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import SourceError
from repro.datasets.movement import concatenate, sample_dwell, sample_path
from repro.datasets.routing import RoadRouter
from repro.geometry.primitives import Point
from repro.lines.road_network import RoadNetwork, make_road_segment


@pytest.fixture()
def small_network() -> RoadNetwork:
    """A 3x3 grid of 100 m streets plus a disconnected island segment."""
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
        make_road_segment("island", "island", Point(1000, 1000), Point(1100, 1000), "road")
    )
    return RoadNetwork(segments)


class TestRoadRouter:
    def test_requires_allowed_segments(self, small_network):
        with pytest.raises(SourceError):
            RoadRouter(small_network, allowed_types=("metro_line",))

    def test_same_node_path(self, small_network):
        router = RoadRouter(small_network)
        waypoints, segments = router.shortest_path(Point(0, 0), Point(1, 1))
        assert len(waypoints) == 1
        assert segments == []

    def test_shortest_path_length(self, small_network):
        router = RoadRouter(small_network)
        waypoints, segments = router.shortest_path(Point(0, 0), Point(200, 200))
        assert waypoints[0] == Point(0, 0)
        assert waypoints[-1] == Point(200, 200)
        assert router.path_length(waypoints) == pytest.approx(400.0)
        assert len(segments) == len(waypoints) - 1

    def test_segment_ids_are_traversed_segments(self, small_network):
        router = RoadRouter(small_network)
        _, segments = router.shortest_path(Point(0, 0), Point(200, 0))
        assert segments == ["h-0-0", "h-100-0"]

    def test_disconnected_destination_raises(self, small_network):
        router = RoadRouter(small_network)
        with pytest.raises(SourceError):
            router.shortest_path(Point(0, 0), Point(1050, 1000))

    def test_time_weight_prefers_fast_segments(self):
        # Two routes from A to B: a direct slow path and a longer fast one.
        segments = [
            make_road_segment("slow", "slow", Point(0, 0), Point(200, 0), "path_way"),
            make_road_segment("fast-1", "fast", Point(0, 0), Point(0, 100), "metro_line"),
            make_road_segment("fast-2", "fast", Point(0, 100), Point(200, 100), "metro_line"),
            make_road_segment("fast-3", "fast", Point(200, 100), Point(200, 0), "metro_line"),
        ]
        network = RoadNetwork(segments)
        by_distance = RoadRouter(network)
        by_time = RoadRouter(network, weight="time")
        _, distance_route = by_distance.shortest_path(Point(0, 0), Point(200, 0))
        _, time_route = by_time.shortest_path(Point(0, 0), Point(200, 0))
        assert distance_route == ["slow"]
        assert time_route == ["fast-1", "fast-2", "fast-3"]

    def test_type_speed_override(self):
        segments = [
            make_road_segment("walkway", "walkway", Point(0, 0), Point(200, 0), "road"),
            make_road_segment("m1", "m", Point(0, 0), Point(0, 100), "metro_line"),
            make_road_segment("m2", "m", Point(0, 100), Point(200, 100), "metro_line"),
            make_road_segment("m3", "m", Point(200, 100), Point(200, 0), "metro_line"),
        ]
        network = RoadNetwork(segments)
        walker = RoadRouter(network, weight="time", type_speeds={"road": 1.4, "metro_line": 22.0})
        _, route = walker.shortest_path(Point(0, 0), Point(200, 0))
        assert route[0].startswith("m")

    def test_invalid_weight(self, small_network):
        with pytest.raises(ValueError):
            RoadRouter(small_network, weight="hops")

    def test_node_count(self, small_network):
        router = RoadRouter(small_network, allowed_types=("road",))
        assert router.node_count == 11  # 9 grid crossings + 2 island endpoints


class TestSamplePath:
    def test_constant_speed_and_sampling(self):
        rng = np.random.default_rng(0)
        waypoints = [Point(0, 0), Point(100, 0)]
        sample = sample_path(
            waypoints,
            ["seg"],
            speed=10.0,
            sample_interval=1.0,
            noise_sigma=0.0,
            rng=rng,
            start_time=0.0,
        )
        assert len(sample.points) == 11
        assert sample.points[0].t == 0.0
        assert sample.points[-1].t == 10.0
        assert sample.truth_segment_ids == ["seg"] * 11

    def test_noise_perturbs_positions(self):
        rng = np.random.default_rng(1)
        waypoints = [Point(0, 0), Point(100, 0)]
        sample = sample_path(
            waypoints, ["seg"], 10.0, 1.0, noise_sigma=5.0, rng=rng, start_time=0.0
        )
        assert any(abs(point.y) > 0.1 for point in sample.points)

    def test_timestamps_monotone(self):
        rng = np.random.default_rng(2)
        waypoints = [Point(0, 0), Point(50, 0), Point(50, 80)]
        sample = sample_path(waypoints, ["a", "b"], 7.0, 2.0, 1.0, rng, start_time=100.0)
        times = [point.t for point in sample.points]
        assert times == sorted(times)
        assert times[0] == 100.0

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_path(
                [Point(0, 0), Point(1, 0)],
                ["s"],
                speed=0,
                sample_interval=1,
                noise_sigma=0,
                rng=rng,
                start_time=0,
            )
        with pytest.raises(ValueError):
            sample_path(
                [Point(0, 0), Point(1, 0)],
                [],
                speed=1,
                sample_interval=1,
                noise_sigma=0,
                rng=rng,
                start_time=0,
            )

    def test_single_waypoint(self):
        rng = np.random.default_rng(0)
        sample = sample_path([Point(5, 5)], [], 1.0, 1.0, 0.0, rng, start_time=3.0)
        assert len(sample.points) == 1
        assert sample.truth_segment_ids == [None]


class TestSampleDwell:
    def test_dwell_emits_points_near_location(self):
        rng = np.random.default_rng(0)
        sample = sample_dwell(
            Point(10, 10),
            duration=60,
            sample_interval=10,
            noise_sigma=1.0,
            rng=rng,
            start_time=0.0,
        )
        assert len(sample.points) == 7
        for point in sample.points:
            assert abs(point.x - 10) < 10

    def test_indoor_drop_removes_points_but_advances_time(self):
        rng = np.random.default_rng(0)
        sample = sample_dwell(
            Point(0, 0), 100, 10, 0.0, rng, start_time=0.0, indoor_drop_probability=1.0
        )
        assert sample.points == []
        assert sample.end_time >= 100.0

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_dwell(Point(0, 0), -1, 1, 0, rng, 0)
        with pytest.raises(ValueError):
            sample_dwell(Point(0, 0), 1, 0, 0, rng, 0)


class TestConcatenate:
    def test_concatenate_preserves_order_and_truth(self):
        rng = np.random.default_rng(0)
        a = sample_path([Point(0, 0), Point(10, 0)], ["a"], 1.0, 5.0, 0.0, rng, start_time=0.0)
        b = sample_dwell(Point(10, 0), 20, 5.0, 0.0, rng, start_time=a.end_time)
        combined = concatenate([a, b])
        assert len(combined.points) == len(a.points) + len(b.points)
        assert combined.truth_segment_ids[: len(a.points)] == a.truth_segment_ids
        times = [p.t for p in combined.points]
        assert times == sorted(times)
