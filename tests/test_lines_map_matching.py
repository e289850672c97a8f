"""Unit tests for the global map-matching algorithm (Algorithm 2)."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MapMatchingConfig
from repro.core.points import SpatioTemporalPoint
from repro.geometry.primitives import Point
from repro.lines.map_matching import GlobalMapMatcher, matching_accuracy
from repro.lines.road_network import RoadNetwork, make_road_segment
from repro.reference import ScalarMapMatcher


@pytest.fixture()
def parallel_roads() -> RoadNetwork:
    """Two long parallel roads 40 m apart plus a connecting cross street."""
    segments = [
        make_road_segment("north", "north road", Point(0, 40), Point(400, 40), "road"),
        make_road_segment("south", "south road", Point(0, 0), Point(400, 0), "road"),
        make_road_segment("cross", "cross street", Point(200, 0), Point(200, 40), "road"),
    ]
    return RoadNetwork(segments, name="parallel")


def _track_along(y: float, jitter: float = 0.0, count: int = 20):
    points = []
    for i in range(count):
        offset = jitter if i % 2 else -jitter
        points.append(SpatioTemporalPoint(i * 20.0, y + offset, float(i)))
    return points


class TestLocalScores:
    def test_closest_segment_scores_one(self, parallel_roads):
        matcher = ScalarMapMatcher(parallel_roads, MapMatchingConfig(candidate_radius=100))
        scores = matcher.local_scores(SpatioTemporalPoint(100, 5, 0))
        assert scores["south"][0] == pytest.approx(1.0)
        assert scores["north"][0] < 1.0

    def test_no_candidates_outside_radius(self, parallel_roads):
        matcher = ScalarMapMatcher(parallel_roads, MapMatchingConfig(candidate_radius=30))
        scores = matcher.local_scores(SpatioTemporalPoint(100, 500, 0))
        assert scores == {}

    def test_point_on_segment_scores_one(self, parallel_roads):
        matcher = ScalarMapMatcher(parallel_roads, MapMatchingConfig(candidate_radius=100))
        scores = matcher.local_scores(SpatioTemporalPoint(100, 0, 0))
        assert scores["south"][0] == pytest.approx(1.0)


class TestMatching:
    def test_track_on_south_road_matches_south(self, parallel_roads):
        matcher = GlobalMapMatcher(parallel_roads, MapMatchingConfig(candidate_radius=60))
        matched = matcher.match(_track_along(2.0))
        assert all(m.segment_id == "south" for m in matched)

    def test_track_on_north_road_matches_north(self, parallel_roads):
        matcher = GlobalMapMatcher(parallel_roads, MapMatchingConfig(candidate_radius=60))
        matched = matcher.match(_track_along(38.0))
        assert all(m.segment_id == "north" for m in matched)

    def test_global_score_smooths_jittery_track(self, parallel_roads):
        """A noisy track near the south road: individual fixes may be closer to
        the north road, but the context window keeps the match on the south."""
        points = []
        for i in range(20):
            # Mostly near y=5 (south), with one wild fix at y=35 (north).
            y = 35.0 if i == 10 else 5.0
            points.append(SpatioTemporalPoint(i * 10.0, y, float(i)))
        config = MapMatchingConfig(candidate_radius=60, view_radius=2.0, kernel_width_factor=1.0)
        global_matcher = GlobalMapMatcher(parallel_roads, config)
        local_only = GlobalMapMatcher(
            parallel_roads,
            MapMatchingConfig(
                candidate_radius=60, view_radius=2.0, kernel_width_factor=1.0, use_global_score=False
            ),
        )
        global_ids = [m.segment_id for m in global_matcher.match(points)]
        local_ids = [m.segment_id for m in local_only.match(points)]
        assert local_ids[10] == "north"
        assert global_ids[10] == "south"

    def test_unmatched_point_far_from_network(self, parallel_roads):
        matcher = GlobalMapMatcher(parallel_roads, MapMatchingConfig(candidate_radius=50))
        matched = matcher.match([SpatioTemporalPoint(100, 5000, 0)])
        assert matched[0].segment is None
        assert not matched[0].is_matched
        assert matched[0].snapped == Point(100, 5000)

    def test_snapped_position_lies_on_segment(self, parallel_roads):
        matcher = GlobalMapMatcher(parallel_roads, MapMatchingConfig(candidate_radius=60))
        matched = matcher.match([SpatioTemporalPoint(100, 7, 0)])
        assert matched[0].snapped.y == pytest.approx(0.0)
        assert matched[0].snapped.x == pytest.approx(100.0)

    def test_empty_input(self, parallel_roads):
        matcher = GlobalMapMatcher(parallel_roads)
        assert matcher.match([]) == []

    def test_matched_segment_sequence_deduplicates(self, parallel_roads):
        matcher = GlobalMapMatcher(parallel_roads, MapMatchingConfig(candidate_radius=60))
        sequence = matcher.matched_segment_sequence(_track_along(2.0))
        assert sequence == ["south"]

    def test_perpendicular_metric_option(self, parallel_roads):
        config = MapMatchingConfig(candidate_radius=60, distance_metric="perpendicular")
        matcher = GlobalMapMatcher(parallel_roads, config)
        matched = matcher.match(_track_along(2.0))
        assert all(m.segment_id == "south" for m in matched)


class TestMatchingAccuracy:
    def test_perfect_match(self):
        assert matching_accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_partial_match(self):
        assert matching_accuracy(["a", "x", "b", "y"], ["a", "b", "b", "b"]) == pytest.approx(0.5)

    def test_none_truth_entries_skipped(self):
        assert matching_accuracy(["a", "x"], ["a", None]) == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            matching_accuracy(["a"], ["a", "b"])

    def test_all_none_truth(self):
        assert matching_accuracy(["a"], [None]) == 0.0


class TestGroundTruthDriveAccuracy:
    def test_accuracy_on_synthetic_drive_is_high(self, road_network, ground_truth_drive):
        matcher = GlobalMapMatcher(
            road_network, MapMatchingConfig(candidate_radius=50, view_radius=2.0)
        )
        matched = matcher.match(ground_truth_drive.trajectory.points)
        accuracy = matching_accuracy(
            [m.segment_id for m in matched], ground_truth_drive.truth_segment_ids
        )
        assert accuracy > 0.85

    def test_global_score_not_worse_than_local_only(self, road_network, ground_truth_drive):
        base = MapMatchingConfig(candidate_radius=50, view_radius=2.0)
        local = MapMatchingConfig(candidate_radius=50, view_radius=2.0, use_global_score=False)
        points = ground_truth_drive.trajectory.points
        truth = ground_truth_drive.truth_segment_ids
        global_acc = matching_accuracy(
            [m.segment_id for m in GlobalMapMatcher(road_network, base).match(points)], truth
        )
        local_acc = matching_accuracy(
            [m.segment_id for m in GlobalMapMatcher(road_network, local).match(points)], truth
        )
        assert global_acc >= local_acc - 0.02


# ------------------------------------------------- columnar kernel vs oracle
#: The kernel's weights come from ``np.exp``, the oracle's from ``math.exp``
#: (1 ulp apart at most); a score is a ratio of two sums of such weights.
SCORE_ULPS = 4


def _lattice_roads() -> RoadNetwork:
    """Three east-west and three north-south roads, 40 m apart, cut every 100 m.

    Ids are deliberately not in insertion order, so the "largest id wins a
    tie" rule is told apart from "last inserted wins".
    """
    segments = []
    for row, y in enumerate((0.0, 40.0, 80.0)):
        for cut, x in enumerate((0.0, 100.0)):
            segments.append(
                make_road_segment(
                    f"h{2 - row}-{cut}", "east-west", Point(x, y), Point(x + 100.0, y), "road"
                )
            )
    for column, x in enumerate((0.0, 100.0, 200.0)):
        segments.append(
            make_road_segment(
                f"v{column}", "north-south", Point(x, 0.0), Point(x, 80.0), "path_way"
            )
        )
    return RoadNetwork(segments, name="lattice")


LATTICE = _lattice_roads()


def _matchers(config: MapMatchingConfig, network: RoadNetwork = LATTICE):
    columnar = GlobalMapMatcher(network, config)
    oracle = ScalarMapMatcher(network, config)
    return columnar, oracle


def _track(coordinates):
    return [SpatioTemporalPoint(x, y, float(t)) for t, (x, y) in enumerate(coordinates)]


def _assert_matches_agree(got, expected):
    assert [m.segment_id for m in got] == [m.segment_id for m in expected]
    for mine, theirs in zip(got, expected):
        assert mine.point is theirs.point
        assert mine.snapped == theirs.snapped
        assert abs(mine.score - theirs.score) <= SCORE_ULPS * math.ulp(theirs.score)


def _assert_kernel_agrees(config, coordinates, network: RoadNetwork = LATTICE):
    columnar, oracle = _matchers(config, network)
    points = _track(coordinates)
    expected = oracle.match(points)
    _assert_matches_agree(columnar.match(points), expected)
    return expected


#: Mostly coordinates the lattice makes special (on a road, midway between
#: two, repeated fixes), some anywhere around it.
_coordinate = st.one_of(
    st.sampled_from([0.0, 20.0, 40.0, 50.0, 60.0, 80.0, 100.0, 150.0, 200.0]),
    st.floats(min_value=-150.0, max_value=350.0, allow_nan=False),
)
_configs = st.builds(
    MapMatchingConfig,
    view_radius=st.sampled_from([0.5, 1.0, 2.0, 40.0]),
    kernel_width_factor=st.sampled_from([0.25, 0.5, 2.0]),
    candidate_radius=st.sampled_from([15.0, 30.0, 60.0]),
    max_candidates=st.sampled_from([1, 2, 3, 8]),
    use_global_score=st.booleans(),
    distance_metric=st.sampled_from(["point_segment", "perpendicular"]),
)
_episodes = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=30)


class TestColumnarKernel:
    @given(_configs, _episodes)
    @settings(max_examples=150, deadline=None)
    def test_same_segment_and_score_as_the_scalar_oracle(self, config, coordinates):
        _assert_kernel_agrees(config, coordinates)

    @given(_configs, st.lists(_episodes, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_several_episodes_in_one_call_equal_one_call_each(self, config, episodes):
        columnar, _ = _matchers(config)
        tracks = [_track(coordinates) for coordinates in episodes]
        rows, scores = columnar.match_rows(tracks)
        together = columnar.match_runs(tracks)
        start = 0
        for track, runs in zip(tracks, together):
            own_rows, own_scores = columnar.match_rows([track])
            span = slice(start, start + len(track))
            assert rows[span].tolist() == own_rows.tolist()
            for mine, theirs in zip(scores[span].tolist(), own_scores.tolist()):
                assert abs(mine - theirs) <= SCORE_ULPS * math.ulp(theirs)
            assert runs == columnar.match_runs([track])[0]
            start += len(track)

    @given(_configs, _episodes, st.sampled_from([3, 1 << 16]))
    @settings(max_examples=100, deadline=None)
    def test_scores_are_bit_identical_once_both_use_the_same_exp(
        self, config, coordinates, join_budget
    ):
        """Pins the float accumulation order: only ``exp`` may differ between the paths.

        Also with the join cut into blocks of (nearly) one point each, as a
        long dense episode's is (at ``_JOIN_BUDGET`` rows).
        """

        def numpy_exp_weight(distance: float, bandwidth: float, radius: float) -> float:
            if distance >= radius:
                return 0.0
            return float(np.exp(-(distance * distance) / (2.0 * bandwidth * bandwidth)))

        columnar, oracle = _matchers(config)
        points = _track(coordinates)
        with mock.patch("repro.reference.map_matching.gaussian_kernel_weight", numpy_exp_weight):
            expected = oracle.match(points)
        with mock.patch("repro.lines.map_matching._JOIN_BUDGET", join_budget):
            got = columnar.match(points)
        assert [(m.segment_id, m.score) for m in got] == [
            (m.segment_id, m.score) for m in expected
        ]

    def test_single_point_episode(self):
        matched = _assert_kernel_agrees(MapMatchingConfig(candidate_radius=30), [(50.0, 5.0)])
        assert matched[0].segment_id == "h2-0"
        assert matched[0].score == 1.0

    def test_no_candidate_anywhere(self):
        matched = _assert_kernel_agrees(
            MapMatchingConfig(candidate_radius=15), [(1000.0, 1000.0), (1010.0, 1000.0)]
        )
        assert [m.segment for m in matched] == [None, None]
        assert [m.score for m in matched] == [0.0, 0.0]
        columnar, _ = _matchers(MapMatchingConfig(candidate_radius=15))
        assert columnar.match_runs([_track([(1000.0, 1000.0), (1010.0, 1000.0)])]) == [
            [(0, 2, None)]
        ]

    def test_off_network_gap_in_the_middle(self):
        """Unmatched fixes stay in their neighbours' windows (weight, no score)."""
        coordinates = [(20.0, 3.0), (40.0, 3.0), (60.0, 20.0), (80.0, 3.0), (100.0, 3.0)]
        matched = _assert_kernel_agrees(
            MapMatchingConfig(candidate_radius=15, view_radius=10.0), coordinates
        )
        assert [m.is_matched for m in matched] == [True, True, False, True, True]
        assert matched[1].score < 1.0  # the gap's weight counts in the denominator

    def test_repeated_identical_fixes(self):
        """Distance 0 between neighbours: weight exactly 1 in both paths."""
        matched = _assert_kernel_agrees(
            MapMatchingConfig(candidate_radius=60, view_radius=1.0), [(50.0, 10.0)] * 6
        )
        assert {m.segment_id for m in matched} == {"h2-0"}

    def test_fix_exactly_on_a_segment(self):
        """d = 0 scores 1; the other candidates score 0 / d = 0."""
        matched = _assert_kernel_agrees(
            MapMatchingConfig(candidate_radius=60, use_global_score=False), [(50.0, 40.0)]
        )
        assert matched[0].segment_id == "h1-0"
        assert matched[0].score == 1.0
        _, oracle = _matchers(MapMatchingConfig(candidate_radius=60))
        others = oracle.local_scores(SpatioTemporalPoint(50.0, 40.0, 0.0))
        assert {score for seg_id, (score, _) in others.items() if seg_id != "h1-0"} == {0.0}

    def test_neighbour_at_exactly_the_context_radius_ends_the_walk(self):
        """The window comparison is strict: a neighbour at distance R closes the window."""
        config = MapMatchingConfig(candidate_radius=30, view_radius=1.0, kernel_width_factor=2.0)
        # Alone, the middle fix is nearer to h1 (15 m) than to h2 (25 m).  The
        # fixes next to it lie along h2 exactly R = 30 m away (a 18-24-30
        # triangle): they end its walk, so the fixes after them, 23 m from it
        # and also on h2, never pull it over.  One metre closer, all four do.
        at_radius = [(50.0, 2.0), (32.0, 1.0), (50.0, 25.0), (68.0, 1.0), (50.0, 2.0)]
        assert _assert_kernel_agrees(config, at_radius)[2].segment_id == "h1-0"
        inside = [(50.0, 2.0), (33.0, 2.0), (50.0, 25.0), (67.0, 2.0), (50.0, 2.0)]
        assert _assert_kernel_agrees(config, inside)[2].segment_id == "h2-0"

    def test_window_spanning_the_whole_episode(self):
        coordinates = [(10.0 + 9.0 * i, 3.0 + (7.0 if i % 3 == 0 else 0.0)) for i in range(20)]
        _assert_kernel_agrees(MapMatchingConfig(candidate_radius=60, view_radius=40.0), coordinates)

    def test_dense_track_is_matched_in_bounded_memory(self):
        """A near-stationary track's windows are as long as the track: N^2 members.

        The kernel holds one ``_JOIN_BUDGET`` block of them at a time, so its
        peak stays flat (8 MB here, 9 MB at twice the length) where listing
        every member at once took 310 MB, and four times that at twice the length.
        """
        config = MapMatchingConfig(candidate_radius=30)
        columnar, _ = _matchers(config)
        dense = _track([(50.0 + 0.01 * i, 5.0 + 0.002 * i) for i in range(2000)])
        tracemalloc.start()
        rows, _ = columnar.match_rows([dense])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 24 * 2**20
        segments = LATTICE.flat_index().payloads
        assert {segments[row].place_id for row in rows.tolist()} == {"h2-0"}
        # The same regime against the oracle, cut into many blocks.
        with mock.patch("repro.lines.map_matching._JOIN_BUDGET", 500):
            _assert_kernel_agrees(config, [(p.x, p.y) for p in dense[:150]])

    def test_max_candidates_truncation(self):
        """Near a crossing five segments are in reach; only the closest two count."""
        coordinates = [(96.0, 37.0), (98.0, 39.0), (103.0, 42.0)]
        for limit in (1, 2, 8):
            config = MapMatchingConfig(candidate_radius=60, max_candidates=limit)
            _assert_kernel_agrees(config, coordinates)
        _, oracle = _matchers(MapMatchingConfig(candidate_radius=60, max_candidates=2))
        assert len(oracle.local_scores(SpatioTemporalPoint(96.0, 37.0, 0.0))) == 2

    def test_exact_global_score_tie_goes_to_the_largest_id(self):
        """Midway between two parallel roads every score ties; ids decide."""
        coordinates = [(20.0 + 15.0 * i, 20.0) for i in range(5)]  # between h2 (y=0), h1 (y=40)
        matched = _assert_kernel_agrees(
            MapMatchingConfig(candidate_radius=25, view_radius=2.0), coordinates
        )
        assert [m.segment_id for m in matched] == ["h2-0"] * 5
        assert "h2-0" > "h1-0"  # inserted first, yet it wins
