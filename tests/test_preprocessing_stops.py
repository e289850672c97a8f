"""Unit and property-based tests for stop/move episode detection."""

from __future__ import annotations

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StopMoveConfig
from repro.core.episodes import EpisodeKind, validate_episode_partition
from repro.core.points import RawTrajectory, build_trajectory
from repro.preprocessing.stops import StopMoveDetector, segment_many
from repro.reference import ScalarStopMoveDetector


def _commute_trajectory() -> RawTrajectory:
    """Stop (300 s at origin), move (fast), stop (300 s at destination)."""
    triples = []
    t = 0.0
    for _ in range(31):  # 300 s dwell, 10 s sampling
        triples.append((0.0, 0.0, t))
        t += 10.0
    x = 0.0
    for _ in range(30):  # move at 10 m/s
        x += 100.0
        triples.append((x, 0.0, t))
        t += 10.0
    for _ in range(31):
        triples.append((x, 0.0, t))
        t += 10.0
    return build_trajectory(triples, object_id="commuter", trajectory_id="commute")


class TestVelocityPolicy:
    def test_detects_stop_move_stop(self):
        detector = StopMoveDetector(StopMoveConfig(policy="velocity", speed_threshold=1.0))
        episodes = detector.segment(_commute_trajectory())
        kinds = [episode.kind for episode in episodes]
        assert kinds == [EpisodeKind.STOP, EpisodeKind.MOVE, EpisodeKind.STOP]

    def test_partition_is_valid(self):
        trajectory = _commute_trajectory()
        episodes = StopMoveDetector().segment(trajectory)
        validate_episode_partition(trajectory, episodes)

    def test_short_dwell_not_a_stop(self):
        # Only 30 s of dwell: below the default min_stop_duration.
        triples = [(0.0, 0.0, float(t)) for t in range(0, 40, 10)]
        triples += [(float(i * 100), 0.0, 40.0 + i * 10) for i in range(1, 20)]
        trajectory = build_trajectory(triples)
        detector = StopMoveDetector(StopMoveConfig(policy="velocity", min_stop_duration=120))
        episodes = detector.segment(trajectory)
        assert all(episode.is_move for episode in episodes)

    def test_all_stationary_single_stop(self):
        triples = [(0.0, 0.0, float(t * 10)) for t in range(100)]
        episodes = StopMoveDetector().segment(build_trajectory(triples))
        assert len(episodes) == 1
        assert episodes[0].is_stop

    def test_all_moving_single_move(self):
        triples = [(float(t * 100), 0.0, float(t * 10)) for t in range(100)]
        episodes = StopMoveDetector().segment(build_trajectory(triples))
        assert len(episodes) == 1
        assert episodes[0].is_move


class TestDensityPolicy:
    def test_density_detects_noisy_stop(self):
        # Jittery dwell where instantaneous speeds exceed the velocity threshold.
        triples = []
        t = 0.0
        for i in range(60):
            jitter = 20.0 if i % 2 else -20.0
            triples.append((jitter, 0.0, t))
            t += 10.0
        for i in range(30):
            triples.append((100.0 + i * 150.0, 0.0, t))
            t += 10.0
        trajectory = build_trajectory(triples)
        velocity_only = StopMoveDetector(
            StopMoveConfig(policy="velocity", speed_threshold=1.0, min_stop_duration=120)
        ).segment(trajectory)
        density = StopMoveDetector(
            StopMoveConfig(policy="density", density_radius=60, min_stop_duration=120)
        ).segment(trajectory)
        assert not any(e.is_stop for e in velocity_only)
        assert any(e.is_stop for e in density)

    def test_density_ignores_continuous_movement(self):
        triples = [(float(i * 200), 0.0, float(i * 10)) for i in range(50)]
        detector = StopMoveDetector(StopMoveConfig(policy="density", density_radius=50))
        episodes = detector.segment(build_trajectory(triples))
        assert all(episode.is_move for episode in episodes)

    def test_hybrid_flags_union(self):
        trajectory = _commute_trajectory()
        hybrid = StopMoveDetector(StopMoveConfig(policy="hybrid")).segment(trajectory)
        assert any(e.is_stop for e in hybrid)
        validate_episode_partition(trajectory, hybrid)


class TestEdgeCases:
    def test_single_point_trajectory(self):
        trajectory = build_trajectory([(0, 0, 0)])
        episodes = StopMoveDetector().segment(trajectory)
        assert len(episodes) == 1
        assert episodes[0].is_stop

    def test_two_point_trajectory(self):
        trajectory = build_trajectory([(0, 0, 0), (1000, 0, 10)])
        episodes = StopMoveDetector().segment(trajectory)
        validate_episode_partition(trajectory, episodes)

    def test_stops_and_moves_helpers(self):
        trajectory = _commute_trajectory()
        detector = StopMoveDetector()
        assert len(detector.stops(trajectory)) == 2

    def test_segment_many(self):
        trajectories = [_commute_trajectory(), _commute_trajectory()]
        episodes = segment_many(trajectories)
        assert len(episodes) == 6


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1000, max_value=1000, allow_nan=False),
                st.floats(min_value=-1000, max_value=1000, allow_nan=False),
                st.floats(min_value=1, max_value=60, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        ),
        st.sampled_from(["velocity", "density", "hybrid"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_segmentation_always_partitions_trajectory(self, steps, policy):
        """Whatever the input, the episodes form a contiguous partition."""
        triples = []
        t = 0.0
        for x, y, dt in steps:
            triples.append((x, y, t))
            t += dt
        trajectory = build_trajectory(triples)
        detector = StopMoveDetector(StopMoveConfig(policy=policy))
        episodes = detector.segment(trajectory)
        validate_episode_partition(trajectory, episodes)
        # Kinds must alternate after merging.
        for previous, current in zip(episodes, episodes[1:]):
            assert previous.kind is not current.kind

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_point_count_is_preserved(self, n_points):
        triples = [(float(i), 0.0, float(i * 5)) for i in range(n_points)]
        trajectory = build_trajectory(triples)
        episodes = StopMoveDetector().segment(trajectory)
        assert sum(len(episode) for episode in episodes) == n_points

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 1.0, 10.0, 40.0, 200.0]),
                st.one_of(st.sampled_from([0.0, 5.0, 5.0, 60.0]), st.floats(-500.0, 500.0)),
                st.one_of(st.sampled_from([0.0, -0.0, 5.0]), st.floats(-500.0, 500.0)),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from(["velocity", "density", "hybrid"]),
        st.sampled_from([1, 3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_short_and_degenerate_trajectories_segment_like_the_reference(
        self, steps, policy, min_move_points
    ):
        """1-40 fixes, duplicate timestamps, zero-length steps: the speed-column
        flags run at every length and segment like the per-point flags."""
        triples = []
        t = 0.0
        for dt, x, y in steps:
            t += dt
            triples.append((x, y, t))
        trajectory = build_trajectory(triples)
        config = StopMoveConfig(
            policy=policy, min_stop_duration=60.0, min_move_points=min_move_points
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on any input
            episodes = StopMoveDetector(config).segment(trajectory)
        assert [(e.kind, e.start_index, e.end_index) for e in episodes] == [
            (e.kind, e.start_index, e.end_index)
            for e in ScalarStopMoveDetector(config).segment(trajectory)
        ]
