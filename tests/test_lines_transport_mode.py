"""Unit tests for transportation-mode inference."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotations import AnnotationKind
from repro.core.config import TransportModeConfig
from repro.core.episodes import Episode, EpisodeKind
from repro.core.points import RawTrajectory, SpatioTemporalPoint, point_columns
from repro.geometry.primitives import Point
from repro.lines.annotator import LineAnnotator
from repro.lines.road_network import RoadNetwork, make_road_segment
from repro.lines.transport_mode import (
    TRANSPORT_MODES,
    ModeSegment,
    TransportModeClassifier,
    dominant_mode_of,
    pair_motion,
    run_means,
)
from repro.preprocessing.features import motion_features


def _uniform_track(speed: float, count: int = 20, interval: float = 10.0):
    return [SpatioTemporalPoint(i * speed * interval, 0.0, i * interval) for i in range(count)]


def _fold(classifier, xs, ys, ts, runs):
    """The product's modes of one episode: :func:`pair_motion` of its columns, then the fold."""
    speeds, accelerations = pair_motion(*(np.array(c, dtype=np.float64) for c in (xs, ys, ts)))
    return classifier.fold_modes(ts, runs, speeds, accelerations)


def _classify(classifier, points, road_type=None):
    """The mode of ``points`` folded as one run on a segment of ``road_type`` (or unmatched)."""
    segment = None
    if road_type is not None:
        segment = make_road_segment("s", "s", Point(0, 0), Point(1, 0), road_type)
    xs, ys, ts = point_columns(points)
    (mode_segment,) = _fold(classifier, xs, ys, ts, [(0, len(ts), segment)])
    return mode_segment.mode


class TestClassifySingleRun:
    def test_walking_speed_on_road(self):
        classifier = TransportModeClassifier()
        assert _classify(classifier, _uniform_track(1.2), road_type="road") == "walk"

    def test_cycling_speed_on_road(self):
        classifier = TransportModeClassifier()
        assert _classify(classifier, _uniform_track(4.5), road_type="road") == "bicycle"

    def test_bus_speed_on_road(self):
        classifier = TransportModeClassifier()
        assert _classify(classifier, _uniform_track(9.5), road_type="road") == "bus"

    def test_car_speed_on_road(self):
        classifier = TransportModeClassifier()
        assert _classify(classifier, _uniform_track(20.0), road_type="road") == "car"

    def test_metro_line_forces_metro(self):
        classifier = TransportModeClassifier()
        assert _classify(classifier, _uniform_track(16.0), road_type="metro_line") == "metro"
        assert _classify(classifier, _uniform_track(1.0), road_type="metro_line") == "metro"

    def test_rail_forces_train(self):
        classifier = TransportModeClassifier()
        assert _classify(classifier, _uniform_track(30.0), road_type="rail") == "train"

    def test_pathway_is_walk_or_bicycle(self):
        classifier = TransportModeClassifier()
        assert _classify(classifier, _uniform_track(1.2), road_type="path_way") == "walk"
        assert _classify(classifier, _uniform_track(5.0), road_type="path_way") == "bicycle"

    def test_highway_is_bus_or_car(self):
        classifier = TransportModeClassifier()
        assert _classify(classifier, _uniform_track(10.0), road_type="highway") == "bus"
        assert _classify(classifier, _uniform_track(25.0), road_type="highway") == "car"

    def test_unmatched_run_uses_speed_only(self):
        classifier = TransportModeClassifier()
        assert _classify(classifier, _uniform_track(1.0), road_type=None) == "walk"

    def test_all_outputs_are_known_modes(self):
        classifier = TransportModeClassifier()
        for speed in (0.5, 2.0, 4.0, 8.0, 15.0, 30.0):
            for road_type in (None, "road", "path_way", "metro_line", "highway", "rail"):
                assert _classify(classifier, _uniform_track(speed), road_type) in TRANSPORT_MODES


class TestSegmentModes:
    def test_groups_by_segment(self):
        classifier = TransportModeClassifier()
        road = make_road_segment("r1", "road", Point(0, 0), Point(1000, 0), "road")
        metro = make_road_segment("m1", "metro", Point(1000, 0), Point(3000, 0), "metro_line")
        walk_points = _uniform_track(1.3, count=10)
        metro_points = [
            SpatioTemporalPoint(1000 + i * 160.0, 0.0, 100 + i * 10.0) for i in range(10)
        ]
        xs, ys, ts = point_columns(walk_points + metro_points)
        segments = _fold(classifier, xs, ys, ts, [(0, 10, road), (10, 20, metro)])
        assert len(segments) == 2
        assert segments[0].mode == "walk"
        assert segments[1].mode == "metro"

    def test_empty_input(self):
        assert _fold(TransportModeClassifier(), [], [], [], []) == []

    def test_dominant_mode_by_duration(self):
        classifier = TransportModeClassifier()
        road = make_road_segment("r1", "road", Point(0, 0), Point(100, 0), "road")
        metro = make_road_segment("m1", "metro", Point(100, 0), Point(3000, 0), "metro_line")
        short_walk = _uniform_track(1.3, count=3)
        long_metro = [SpatioTemporalPoint(100 + i * 160.0, 0.0, 30 + i * 10.0) for i in range(30)]
        xs, ys, ts = point_columns(short_walk + long_metro)
        segments = _fold(classifier, xs, ys, ts, [(0, 3, road), (3, 33, metro)])
        assert dominant_mode_of(segments) == "metro"

    def test_dominant_mode_empty(self):
        assert dominant_mode_of([]) is None

    def test_mode_flicker_smoothing(self):
        classifier = TransportModeClassifier()
        segments = [
            ModeSegment("a", "road", "bus", 0, 100, 10, 9.0),
            ModeSegment("b", "road", "bicycle", 100, 110, 2, 6.0),
            ModeSegment("c", "road", "bus", 110, 200, 10, 9.0),
        ]
        smoothed = classifier._smooth_modes(segments)
        assert [s.mode for s in smoothed] == ["bus", "bus", "bus"]

    def test_forced_modes_not_smoothed_away(self):
        classifier = TransportModeClassifier()
        segments = [
            ModeSegment("a", "road", "walk", 0, 100, 10, 1.0),
            ModeSegment("b", "metro_line", "metro", 100, 400, 10, 16.0),
            ModeSegment("c", "road", "walk", 400, 500, 10, 1.0),
        ]
        smoothed = classifier._smooth_modes(segments)
        assert [s.mode for s in smoothed] == ["walk", "metro", "walk"]


class TestEpisodeDominantMode:
    """An episode's transport-mode annotation is ``dominant_mode_of`` its folded runs."""

    @staticmethod
    def _annotate(runs):
        """A move over three road segments, ``runs`` of ``(segment, speed, fixes)``."""
        segments = [
            make_road_segment(
                f"r{index}", "road", Point(2000.0 * index, 0), Point(2000.0 * (index + 1), 0)
            )
            for index in range(3)
        ]
        annotator = LineAnnotator(RoadNetwork(segments))
        points, t = [], 0.0
        for index, speed, fixes in runs:
            x = 2000.0 * index + 500.0
            for _ in range(fixes):
                points.append(SpatioTemporalPoint(x, 0.0, t))
                x += speed * 10.0
                t += 10.0
        trajectory = RawTrajectory(points, object_id="o", trajectory_id="o-t0")
        episode = Episode(EpisodeKind.MOVE, trajectory, 0, len(points))
        annotator.annotate_episodes([episode])
        (annotation,) = episode.annotations_of_kind(AnnotationKind.TRANSPORT_MODE)
        (matched_runs,) = annotator.matcher.match_runs_columns(
            np.array([len(points)], dtype=np.intp), np.array(episode.xs), np.array(episode.ys)
        )
        return getattr(annotation, "value"), annotator.classifier, episode, matched_runs

    def test_a_tie_goes_to_the_greater_mode_name(self):
        # 90 s of cycling, then 90 s of walking: equal weights, bicycle first.
        mode, classifier, episode, runs = self._annotate([(0, 4.5, 10), (1, 1.3, 10)])
        segments = _fold(classifier, episode.xs, episode.ys, episode.ts, runs)
        assert [(s.segment_id, s.mode, s.duration) for s in segments] == [
            ("r0", "bicycle", 90.0),
            ("r1", "walk", 90.0),
        ]
        assert mode == dominant_mode_of(segments) == "walk"

    def test_a_smoothed_flicker_counts_as_its_neighbours_mode(self):
        # Bus, a long cycled segment, bus: unsmoothed, bicycle would dominate.
        mode, classifier, episode, runs = self._annotate([(0, 9.5, 5), (1, 4.5, 20), (2, 9.5, 5)])
        segments = _fold(classifier, episode.xs, episode.ys, episode.ts, runs)
        assert [s.segment_id for s in segments] == ["r0", "r1", "r2"]
        assert [s.mode for s in segments] == ["bus", "bus", "bus"]
        ((start, end, _),) = [run for run in runs if run[2] is not None and run[2].place_id == "r1"]
        assert _classify(classifier, episode.points[start:end], road_type="road") == "bicycle"
        assert mode == dominant_mode_of(segments) == "bus"


class TestConfig:
    def test_custom_thresholds_change_decision(self):
        strict = TransportModeClassifier(
            TransportModeConfig(walk_speed_max=0.5, bicycle_speed_max=1.0, bus_speed_max=2.0)
        )
        assert _classify(strict, _uniform_track(1.5), road_type="road") in ("bus", "car")


# ---------------------------------------------------------------- the mode fold
_ROADS = [
    None,
    make_road_segment("r1", "road", Point(0, 0), Point(100, 0), "road"),
    make_road_segment("p1", "path", Point(0, 0), Point(0, 100), "path_way"),
    make_road_segment("m1", "metro", Point(0, 0), Point(100, 100), "metro_line"),
]
# Zero and tiny time steps, huge and hostile coordinates: zero-dt pairs, and
# speeds of inf or NaN whose ``last - last`` is NaN.
_ADVANCE = st.sampled_from([0.0, 0.0, 1.0, 2.5, 10.0, 5e-324, math.nan])
_COORDINATE = st.one_of(
    st.sampled_from([0.0, -0.0, 3.0, 1e200, -1e200, math.inf, math.nan]),
    st.floats(-500.0, 500.0),
)


@st.composite
def _episode(draw):
    """One episode: its columns and a partition into runs of 1-4 fixes."""
    size = draw(st.integers(1, 9))
    t, ts = 100.0, []
    for _ in range(size):
        t += draw(_ADVANCE)
        ts.append(t)
    xs = draw(st.lists(_COORDINATE, min_size=size, max_size=size))
    ys = draw(st.lists(_COORDINATE, min_size=size, max_size=size))
    runs, start = [], 0
    while start < size:
        end = min(size, start + draw(st.integers(1, 4)))
        runs.append((start, end, draw(st.sampled_from(_ROADS))))
        start = end
    return xs, ys, ts, runs


def _reprs(values):
    return [repr(value) for value in values]


def _run_modes_by_features(classifier, xs, ys, ts, runs):
    """The mode of each run from ``motion_features`` of its slices (the loop the fold replaced)."""
    result = []
    for start, end, segment in runs:
        features = motion_features(xs[start:end], ys[start:end], ts[start:end])
        road_type = segment.road_type if segment is not None else None
        mean_speed = features.mean_speed()
        result.append(
            ModeSegment(
                segment_id=segment.place_id if segment is not None else None,
                road_type=road_type,
                mode=classifier._classify_from_features(
                    mean_speed, features.mean_absolute_acceleration(), road_type
                ),
                time_in=ts[start],
                time_out=ts[end - 1],
                point_count=end - start,
                mean_speed=mean_speed,
            )
        )
    return classifier._smooth_modes(result)


class TestModeFold:
    """Each run's motion read off one group's speed column is ``motion_features``'s."""

    @given(episodes=st.lists(_episode(), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_group_fold_equals_motion_features_of_every_run(self, episodes):
        columns = [np.array([v for episode in episodes for v in episode[k]]) for k in range(3)]
        speeds, accelerations = pair_motion(*columns)
        classifier = TransportModeClassifier()
        base = 0
        for xs, ys, ts, runs in episodes:
            means = run_means(ts, runs, speeds, accelerations, base)
            for (start, end, _), (mean_speed, mean_acceleration) in zip(runs, means):
                features = motion_features(xs[start:end], ys[start:end], ts[start:end])
                assert _reprs([mean_speed, mean_acceleration]) == _reprs(
                    [features.mean_speed(), features.mean_absolute_acceleration()]
                )
            # ModeSegment reprs: NaN speeds compare equal, -0.0 differs from 0.0.
            folded = repr(classifier.fold_modes(ts, runs, speeds, accelerations, base))
            assert folded == repr(_run_modes_by_features(classifier, xs, ys, ts, runs))
            assert folded == repr(_fold(classifier, xs, ys, ts, runs))
            base += len(ts)

    def test_runs_of_one_and_two_fixes_at_episode_boundaries(self):
        # Two episodes back to back; the pair between them (a 50 s, 1 km jump)
        # is computed and must not leak into either episode's runs.
        first = ([0.0, 10.0, 10.0, 30.0], [0.0] * 4, [0.0, 10.0, 10.0, 20.0])
        second = ([1000.0, 1001.0, 1003.0], [0.0] * 3, [70.0, 71.0, 72.0])
        road = _ROADS[1]
        first_runs = [(0, 1, road), (1, 3, road), (3, 4, None)]  # 1, 2 (zero dt), 1
        second_runs = [(0, 2, road), (2, 3, road)]  # 2, 1
        columns = [np.array(first[k] + second[k]) for k in range(3)]
        speeds, accelerations = pair_motion(*columns)
        assert run_means(first[2], first_runs, speeds, accelerations, 0) == [
            (0.0, 0.0),
            (0.0, 0.0),  # zero dt: speed 0, acceleration 0
            (0.0, 0.0),
        ]
        assert run_means(second[2], second_runs, speeds, accelerations, 4) == [
            (1.0, 0.0),
            (0.0, 0.0),
        ]

    def test_segment_modes_is_unchanged(self):
        classifier = TransportModeClassifier()
        road, metro = _ROADS[1], _ROADS[3]
        points = [
            SpatioTemporalPoint(i * 7.5 + (i % 3), 0.5 * (i % 2), i * 5.0 - (i % 4 == 0))
            for i in range(40)
        ]
        xs, ys, ts = point_columns(points)
        runs = [(0, 13, road), (13, 14, metro), (14, 16, None), (16, 40, road)]
        assert repr(_fold(classifier, xs, ys, ts, runs)) == repr(
            _run_modes_by_features(classifier, xs, ys, ts, runs)
        )
