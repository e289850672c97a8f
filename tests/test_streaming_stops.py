"""Incremental stop/move detector: sealed episodes match the batch segmentation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.streaming.stops as streaming_stops
from repro.core.config import StopMoveConfig
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.preprocessing.stops import (
    StopMoveDetector,
    absorb_short_moves,
    density_stop_flags,
    enforce_min_duration,
    flags_to_episodes,
)
from repro.reference import velocity_stop_flags
from repro.streaming import IncrementalStopMoveDetector, OpenTrajectory


def _walk_with_stops(seed: int, n: int):
    """A random walk alternating dwell phases (stops) and travel phases."""
    rng = np.random.default_rng(seed)
    points = []
    t = 0.0
    x, y = 0.0, 0.0
    moving = True
    phase_left = int(rng.integers(10, 40))
    for _ in range(n):
        t += float(rng.uniform(5.0, 20.0))
        if moving:
            x += float(rng.normal(25.0, 10.0))
            y += float(rng.normal(5.0, 10.0))
        else:
            x += float(rng.normal(0.0, 2.0))
            y += float(rng.normal(0.0, 2.0))
        points.append(SpatioTemporalPoint(x, y, t))
        phase_left -= 1
        if phase_left <= 0:
            moving = not moving
            phase_left = int(rng.integers(10, 40))
    return points


def _open(point):
    """An open trajectory whose first fix is ``point``."""
    return OpenTrajectory(point.x, point.y, point.t, object_id="o", trajectory_id="o-t0")


def _stream_detect(points, config, chunk: int):
    """Feed ``points`` in chunks; return (all emitted episodes, early count)."""
    trajectory = _open(points[0])
    detector = IncrementalStopMoveDetector(trajectory, config)
    emitted = []
    since_advance = 0
    for point in points[1:]:
        trajectory.append(point.x, point.y, point.t)
        since_advance += 1
        if since_advance >= chunk:
            emitted.extend(detector.advance())
            since_advance = 0
    early = len(emitted)
    emitted.extend(detector.finalize())
    return emitted, early


@pytest.mark.parametrize("policy", ["velocity", "density", "hybrid"])
@pytest.mark.parametrize("chunk", [1, 7])
def test_incremental_matches_batch(policy, chunk):
    config = StopMoveConfig(policy=policy, min_stop_duration=90.0, density_radius=40.0)
    points = _walk_with_stops(seed=11, n=400)
    trajectory = _open(points[0])
    for point in points[1:]:
        trajectory.append(point.x, point.y, point.t)
    batch = StopMoveDetector(config).segment(trajectory)

    emitted, early = _stream_detect(points, config, chunk)
    assert [(e.kind, e.start_index, e.end_index) for e in emitted] == [
        (e.kind, e.start_index, e.end_index) for e in batch
    ]
    # A long alternating trajectory must seal episodes before the end arrives.
    assert early > 0


@pytest.mark.parametrize("policy", ["velocity", "density", "hybrid"])
def test_incremental_property_random_walks(policy):
    """Property-style sweep over many random walks and chunk sizes."""
    for seed in range(12):
        config = StopMoveConfig(
            policy=policy,
            speed_threshold=1.2,
            min_stop_duration=60.0,
            density_radius=30.0,
        )
        points = _walk_with_stops(seed=seed, n=120)
        trajectory = _open(points[0])
        for point in points[1:]:
            trajectory.append(point.x, point.y, point.t)
        batch = StopMoveDetector(config).segment(trajectory)
        emitted, _ = _stream_detect(points, config, chunk=1 + seed % 5)
        assert [(e.kind, e.start_index, e.end_index) for e in emitted] == [
            (e.kind, e.start_index, e.end_index) for e in batch
        ]


def _triples(episodes):
    return [(e.kind, e.start_index, e.end_index) for e in episodes]


@st.composite
def _hostile_cases(draw):
    """Walks and thresholds at the edges: ``dt == 0``, no minimum stop
    duration, every ``min_move_points`` regime, a density radius below every
    step and above the whole walk, trajectories down to two points."""
    points = _walk_with_stops(draw(st.integers(0, 10_000)), draw(st.integers(2, 70)))
    repeats = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    for index in range(1, len(points)):
        if repeats[index]:  # duplicate GPS record time: speed 0, duration 0
            points[index] = SpatioTemporalPoint(
                points[index].x, points[index].y, points[index - 1].t
            )
    config = StopMoveConfig(
        policy=draw(st.sampled_from(["velocity", "density", "hybrid"])),
        speed_threshold=draw(st.sampled_from([0.5, 1.2, 3.0])),
        min_stop_duration=draw(st.sampled_from([0.0, 10.0, 60.0, 300.0])),
        density_radius=draw(st.sampled_from([1e-6, 1.0, 30.0, 500.0, 1e9])),
        min_move_points=draw(st.sampled_from([1, 2, 3, 5])),
    )
    return points, config, draw(st.integers(1, 7))


@given(_hostile_cases())
@settings(max_examples=150, deadline=None)
def test_incremental_property_hostile_parameters(case):
    """Incremental == batch, and nothing emitted is ever retracted: at every
    later buffer size the batch segmentation still starts with it."""
    points, config, chunk = case
    batch = StopMoveDetector(config)
    trajectory = _open(points[0])
    detector = IncrementalStopMoveDetector(trajectory, config)
    emitted = []
    for size, point in enumerate(points[1:], start=2):
        trajectory.append(point.x, point.y, point.t)
        if (size - 1) % chunk == 0:
            emitted.extend(detector.advance())
        so_far = _triples(batch.segment(RawTrajectory(points[:size])))
        assert so_far[: len(emitted)] == _triples(emitted)
    emitted.extend(detector.finalize())
    assert _triples(emitted) == _triples(batch.segment(trajectory))


def test_single_point_trajectory_matches_batch_special_case():
    config = StopMoveConfig()
    trajectory = OpenTrajectory(0.0, 0.0, 0.0, object_id="o")
    detector = IncrementalStopMoveDetector(trajectory, config)
    assert detector.advance() == []
    tail = detector.finalize()
    assert len(tail) == 1 and tail[0].is_stop and len(tail[0]) == 1


def test_finalize_twice_raises():
    trajectory = OpenTrajectory(0.0, 0.0, 0.0, object_id="o")
    detector = IncrementalStopMoveDetector(trajectory)
    detector.finalize()
    with pytest.raises(DataQualityError):
        detector.finalize()
    with pytest.raises(DataQualityError):
        detector.advance()


def test_sealed_episodes_reference_growing_trajectory():
    """Sealed episodes stay valid while the buffer keeps growing."""
    config = StopMoveConfig(policy="velocity", min_stop_duration=60.0)
    points = _walk_with_stops(seed=3, n=300)
    trajectory = _open(points[0])
    detector = IncrementalStopMoveDetector(trajectory, config)
    snapshots = []
    for point in points[1:]:
        trajectory.append(point.x, point.y, point.t)
        for episode in detector.advance():
            snapshots.append((episode, [p.as_tuple() for p in episode.points]))
    detector.finalize()
    for episode, snapshot in snapshots:
        assert [p.as_tuple() for p in episode.points] == snapshot


# --------------------------------------------------------- emission schedule
class _RecomputeEverythingDetector:
    """Test oracle: ``advance()`` as it was before the flag scans became resumable.

    Every call re-derives all raw flags of the buffer with the batch passes,
    finds the density frontier with a scan of its own, backs the volatile
    start off to the start of its run and re-refines the whole unsealed
    suffix.  It shares no state-keeping code with the shipped detector, so
    equal ``(call, kind, start, end)`` lists mean equal emission schedules.
    """

    def __init__(self, trajectory, config):
        self.trajectory, self.config, self.sealed = trajectory, config, []

    def advance(self):
        trajectory, config = self.trajectory, self.config
        points = trajectory.points
        n = len(points)
        if n < 2:
            return []
        volatile = n - 1
        if config.policy == "velocity":
            flags = velocity_stop_flags(points, config.speed_threshold)
        else:
            flags = density_stop_flags(
                trajectory.xs,
                trajectory.ys,
                trajectory.ts,
                config.density_radius,
                config.min_stop_duration,
            )
            volatile = self._density_frontier(points)
            if config.policy == "hybrid":
                velocity = velocity_stop_flags(points, config.speed_threshold)
                flags = [v or d for v, d in zip(velocity, flags)]
        if volatile > 0:
            volatile -= 1
            while volatile > 0 and flags[volatile - 1] == flags[volatile]:
                volatile -= 1
        restart = self.sealed[-1].end_index if self.sealed else 0
        assert volatile >= restart
        enforced = enforce_min_duration(
            trajectory.ts[restart:], flags[restart:], config.min_stop_duration
        )
        episodes = [
            Episode(e.kind, trajectory, restart + e.start_index, restart + e.end_index)
            for e in flags_to_episodes(trajectory, enforced)
        ]
        suffix = absorb_short_moves(
            trajectory,
            episodes,
            config.min_move_points,
            previous_kind=self.sealed[-1].kind if self.sealed else None,
        )
        keep = next((i for i, e in enumerate(suffix) if e.end_index > volatile), len(suffix))
        new_episodes = suffix[: max(0, keep - 1)]
        self.sealed.extend(new_episodes)
        return new_episodes

    def _density_frontier(self, points):
        """First tried seed whose expansion the end of the buffer cut short."""
        config, n, seed = self.config, len(points), 0
        while True:
            end = seed
            while end + 1 < n and points[seed].distance_to(points[end + 1]) <= config.density_radius:
                end += 1
            if end + 1 == n:
                return seed
            stop = end > seed and points[end].t - points[seed].t >= config.min_stop_duration
            seed = end + 1 if stop else seed + 1


def _schedule(detector_type, points, config, chunk):
    """``(advance() call index, kind, start, end)`` of every episode sealed early."""
    trajectory = _open(points[0])
    detector = detector_type(trajectory, config)
    schedule = []
    for index, point in enumerate(points[1:], start=1):
        trajectory.append(point.x, point.y, point.t)
        if index % chunk == 0:
            schedule.extend((index // chunk, *triple) for triple in _triples(detector.advance()))
    return schedule


@pytest.mark.parametrize("policy", ["velocity", "density", "hybrid"])
@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_emission_schedule_matches_recompute_everything_reference(policy, chunk):
    """Skipping refinements never delays a seal: same episode, same ``advance()`` call."""
    sealed_early = 0
    for seed in range(12):
        for min_move_points in (2, 4):
            config = StopMoveConfig(
                policy=policy,
                speed_threshold=1.2,
                min_stop_duration=60.0,
                density_radius=30.0,
                min_move_points=min_move_points,
            )
            points = _walk_with_stops(seed=seed, n=160)
            expected = _schedule(_RecomputeEverythingDetector, points, config, chunk)
            assert _schedule(IncrementalStopMoveDetector, points, config, chunk) == expected
            sealed_early += len(expected)
    assert sealed_early > 50


# ---------------------------------------------------------------- work bound
def _count_refinements(monkeypatch, points, config):
    """Refinement passes (``enforce_min_duration`` calls) of a ``chunk=1`` feed."""
    calls = []

    def counting(*args):
        calls.append(1)
        return enforce_min_duration(*args)

    monkeypatch.setattr(streaming_stops, "enforce_min_duration", counting)
    trajectory = _open(points[0])
    detector = IncrementalStopMoveDetector(trajectory, config)
    for point in points[1:]:
        trajectory.append(point.x, point.y, point.t)
        detector.advance()
    return len(calls)


def test_pure_move_refines_a_constant_number_of_times(monkeypatch):
    """Work per fix is bounded by count, not by clock: one open move episode
    never moves the sealing boundary, so 2,000 fixes cost at most the
    ``1 + min_move_points`` refinements it takes to settle it (1,999 before)."""
    config = StopMoveConfig(policy="velocity", min_move_points=3)
    points = [SpatioTemporalPoint(30.0 * i, 0.0, 10.0 * i) for i in range(2000)]
    assert _count_refinements(monkeypatch, points, config) <= 1 + config.min_move_points


def test_refinements_bounded_by_flag_boundaries_plus_unsettled_fixes(monkeypatch):
    """A raw-flag run is refined once per fix until it is settled, once more
    on the fix that settles it, and never again: a move run is unsettled for
    ``min_move_points - 1`` fixes, a stop-candidate run for the fixes of its
    first ``min_stop_duration`` seconds."""
    config = StopMoveConfig(policy="velocity", speed_threshold=1.2, min_stop_duration=60.0)
    points = _walk_with_stops(seed=5, n=1500)
    fixed = velocity_stop_flags(points, config.speed_threshold)[:-1]
    bound, start = 0, 0
    for index in range(1, len(fixed) + 1):
        if index == len(fixed) or fixed[index] != fixed[start]:
            if fixed[start]:
                unsettled = sum(
                    points[i].t - points[start].t < config.min_stop_duration
                    for i in range(start, index)
                )
            else:
                unsettled = config.min_move_points - 1
            bound += 1 + unsettled
            start = index
    refinements = _count_refinements(monkeypatch, points, config)
    assert 0 < refinements <= bound
    assert bound < len(points) // 2  # the bound is far below one refinement per fix


def test_refinement_visits_flags_linearly_in_the_open_region(monkeypatch):
    """A refinement re-enforces the boundary run, not the open region.

    An alternating slow walk — three slow fixes, three fast ones, every slow
    run far shorter than ``min_stop_duration`` — is one move episode that
    never seals, so the unsealed region is the whole trajectory, and most
    fixes refine (the runs are too short to settle).  The runs before the
    boundary run were enforced when they closed: the flags handed to
    ``enforce_min_duration`` over the whole feed stay within a small multiple
    of the fixes (re-enforcing the open region visited ~n^2 / 2 of them:
    2.0 million here).
    """
    config = StopMoveConfig(policy="velocity", min_stop_duration=120.0, min_move_points=4)
    points, x = [], 0.0
    for index in range(2000):
        x += 0.5 if (index // 3) % 2 == 0 else 30.0  # 0.05 vs 3.0 units/s
        points.append(SpatioTemporalPoint(x, 0.0, 10.0 * index))
    visited = []

    def counting(ts, flags, min_duration):
        visited.append(len(flags))
        return enforce_min_duration(ts, flags, min_duration)

    monkeypatch.setattr(streaming_stops, "enforce_min_duration", counting)
    emitted, early = _stream_detect(points, config, chunk=1)
    assert early == 0 and [e.kind for e in emitted] == [EpisodeKind.MOVE]
    assert len(visited) > len(points) // 2  # it does refine on most fixes...
    assert sum(visited) <= 4 * len(points)  # ...over a run's worth of flags each
