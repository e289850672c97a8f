"""Session management: gap close-out, discard rules and LRU eviction."""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest

from repro.core import PipelineConfig
from repro.core.config import StreamingConfig, TrajectoryIdentificationConfig
from repro.core.errors import DataQualityError
from repro.core.points import SpatioTemporalPoint, point_columns
from repro.geometry.primitives import Point
from repro.preprocessing.identification import TrajectoryIdentifier
from repro.api import stream
from repro.streaming import Session, SessionManager
from repro.core.pipeline import AnnotationSources


def _config(**streaming_kwargs) -> PipelineConfig:
    return dataclasses.replace(
        PipelineConfig(),
        identification=TrajectoryIdentificationConfig(
            max_time_gap=600.0, max_distance_gap=1000.0, min_points=3
        ),
        streaming=StreamingConfig(apply_cleaning=False, **streaming_kwargs),
    )


def _stream_with_gaps():
    """A stream with one time gap, one distance gap and a short tail fragment."""
    points = []
    t = 0.0
    for i in range(6):  # fragment 0
        points.append(SpatioTemporalPoint(10.0 * i, 0.0, t))
        t += 60.0
    t += 3600.0  # time gap
    for i in range(5):  # fragment 1
        points.append(SpatioTemporalPoint(100.0 + 10.0 * i, 50.0, t))
        t += 60.0
    points.append(SpatioTemporalPoint(9000.0, 9000.0, t + 60.0))  # distance gap, fragment 2
    points.append(SpatioTemporalPoint(9010.0, 9000.0, t + 120.0))  # too short -> discarded
    return points


def test_session_splits_exactly_like_identifier():
    config = _config()
    points = _stream_with_gaps()
    expected = TrajectoryIdentifier(config.identification).split_columns(
        *point_columns(points), object_id="u1"
    )

    session = Session("u1", config, apply_cleaning=False)
    sealed = []
    for point in points:
        sealed.extend(session.push(point.x, point.y, point.t) or [])
    sealed.extend(session.close())

    kept = [s for s in sealed if not s.discarded]
    assert [s.trajectory.trajectory_id for s in kept] == [t.trajectory_id for t in expected]
    for got, want in zip(kept, expected):
        assert [p.as_tuple() for p in got.trajectory.points] == [
            p.as_tuple() for p in want.points
        ]
    assert sum(1 for s in sealed if s.discarded) == 1


def test_short_fragments_emit_no_episodes():
    config = _config()
    session = Session("u1", config, apply_cleaning=False)
    session.push(0, 0, 0.0)
    session.push(1, 0, 60.0)
    assert session.advance() == []  # below min_points: withheld
    sealed = session.close()
    assert len(sealed) == 1 and sealed[0].discarded
    assert sealed[0].final_episodes == []


def test_closed_session_rejects_points():
    session = Session("u1", _config(), apply_cleaning=False)
    session.close()
    with pytest.raises(DataQualityError):
        session.push(0, 0, 0.0)


def test_manager_lru_eviction_order():
    manager = SessionManager(_config(max_sessions=2))
    s1, evicted = manager.acquire("a")
    assert evicted == []
    manager.acquire("b")
    manager.acquire("a")  # refresh a; b is now LRU
    _, evicted = manager.acquire("c")
    assert [s.object_id for s in evicted] == ["b"]
    assert set(manager.object_ids) == {"a", "c"}
    assert manager.evicted_total == 1
    assert manager.get("b") is None
    assert manager.pop("a") is s1
    assert len(manager) == 1


def test_returning_object_gets_fresh_trajectory_ids():
    """Numbering continues across session recreations, so ids stay unique."""
    config = dataclasses.replace(
        _config(micro_batch_size=1),
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e9, max_distance_gap=1e9, min_points=3
        ),
    )
    from repro.store.store import SemanticTrajectoryStore

    store = SemanticTrajectoryStore()
    engine = stream(
        AnnotationSources(), config=config, store=store, persist=True
    )
    ids = []
    for round_index in range(3):
        base = 10_000.0 * round_index
        for i in range(5):
            engine.ingest("u1", SpatioTemporalPoint(10.0 * i, 0.0, base + 60.0 * i))
        for result in engine.close_object("u1") + engine.flush():
            ids.append(result.trajectory.trajectory_id)
    assert ids == ["u1-t0", "u1-t1", "u1-t2"]
    assert store.trajectory_count() == 3
    store.close()


def test_failed_processing_pass_does_not_replay_absorbed_events():
    """Events consumed before a mid-pass error must not be re-pushed later."""
    config = _config(micro_batch_size=5)
    engine = stream(AnnotationSources(), config=config)
    engine.ingest("a", SpatioTemporalPoint(0.0, 0.0, 0.0))
    engine.ingest("a", SpatioTemporalPoint(1.0, 0.0, 60.0))
    engine.ingest("b", SpatioTemporalPoint(0.0, 0.0, 100.0))
    engine.ingest("b", SpatioTemporalPoint(0.0, 0.0, 160.0))
    with pytest.raises(DataQualityError):
        # Out-of-order timestamp for b, in a fragment it would bring to
        # min_points (3), blows up mid-pass.
        engine.ingest("b", SpatioTemporalPoint(0.0, 1.0, 50.0))
    assert engine.pending_event_count == 0
    # The engine stays usable and a's session kept exactly its two points.
    results = engine.close_all()
    assert engine.stats.events == 5
    assert [len(r.trajectory) for r in results] == []  # both fragments too short


def test_failed_processing_pass_keeps_the_events_behind_the_bad_one():
    """One object's bad fix must not cost its neighbours their accepted events."""
    config = dataclasses.replace(
        _config(micro_batch_size=32),
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e9, max_distance_gap=1e9, min_points=3
        ),
    )
    engine = stream(AnnotationSources(), config=config)

    def fix(lane: int, step: int) -> SpatioTemporalPoint:
        return SpatioTemporalPoint(10.0 * step, 100.0 * lane, 60.0 * step)

    for step in range(30):
        for lane, car in enumerate("abc"):
            engine.ingest(car, fix(lane, step))
    engine.flush()
    # One micro-batch: a's fixes, then b's fix 100 s back in time, then c's.
    for step in range(30, 40):
        engine.ingest("a", fix(0, step))
    engine.ingest("b", SpatioTemporalPoint(300.0, 100.0, 60.0 * 29 - 100.0))
    for step in range(30, 40):
        engine.ingest("c", fix(2, step))
    with pytest.raises(DataQualityError):
        engine.flush()
    assert engine.pending_event_count == 10  # c's fixes wait for the next pass
    points = {r.trajectory.object_id: len(r.trajectory) for r in engine.close_all()}
    assert points == {"a": 40, "b": 30, "c": 40}


def test_engine_eviction_seals_trajectories():
    """Evicted sessions get closed and still produce results."""
    config = dataclasses.replace(
        _config(max_sessions=1, micro_batch_size=1),
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e9, max_distance_gap=1e9, min_points=3
        ),
    )
    engine = stream(AnnotationSources(), config=config)
    results = []
    for i in range(5):
        results.extend(engine.ingest("a", SpatioTemporalPoint(10.0 * i, 0.0, 60.0 * i)))
    assert results == []
    # A second object forces the eviction of "a".
    for i in range(5):
        results.extend(engine.ingest("b", SpatioTemporalPoint(0.0, 10.0 * i, 60.0 * i)))
    results.extend(engine.flush())
    assert [r.trajectory.object_id for r in results] == ["a"]
    results.extend(engine.close_all())
    assert [r.trajectory.object_id for r in results] == ["a", "b"]
    assert engine.sessions_evicted == 1
    assert engine.stats.results == 2


def test_eviction_mid_episode_matches_batch_segmentation():
    """LRU eviction while a stop is mid-episode still yields batch-identical episodes.

    Object "a" dwells long enough to open a stop episode and is evicted while
    that stop is still open (no later point has ended it); the sealed result
    must carry exactly the episodes the batch detector computes for the same
    points.
    """
    from repro.preprocessing.stops import StopMoveDetector

    config = dataclasses.replace(
        _config(max_sessions=1, micro_batch_size=1),
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e9, max_distance_gap=1e9, min_points=3
        ),
    )
    engine = stream(AnnotationSources(), config=config)
    points = []
    t = 0.0
    for i in range(4):  # moving
        points.append(SpatioTemporalPoint(40.0 * i, 0.0, t))
        t += 20.0
    for i in range(6):  # dwelling: stop candidate run, still open at eviction
        points.append(SpatioTemporalPoint(160.0 + 0.2 * i, 0.0, t))
        t += 60.0
    results = []
    for point in points:
        results.extend(engine.ingest("a", point))
    assert results == []  # trajectory still open, stop not yet sealed
    results.extend(engine.ingest("b", SpatioTemporalPoint(5000.0, 5000.0, t)))
    results.extend(engine.flush())
    assert [r.trajectory.object_id for r in results] == ["a"]
    sealed = results[0]
    expected = StopMoveDetector(config.stop_move).segment(sealed.trajectory)
    assert [
        (e.kind.value, e.start_index, e.end_index) for e in sealed.episodes
    ] == [(e.kind.value, e.start_index, e.end_index) for e in expected]
    assert any(e.is_stop for e in sealed.episodes)
    engine.close_all()


def test_gap_exactly_at_threshold_does_not_split():
    """Close-out thresholds are strict: a gap of exactly max_* keeps growing."""
    config = _config()  # max_time_gap=600, max_distance_gap=1000
    session = Session("u1", config, apply_cleaning=False)
    assert session.push(0.0, 0.0, 0.0) is None
    # Exactly the temporal threshold: same trajectory.
    assert session.push(10.0, 0.0, 600.0) is None
    # Exactly the spatial threshold from (10, 0): same trajectory.
    assert session.push(1010.0, 0.0, 660.0) is None
    assert session.open_point_count == 3
    # One epsilon beyond the temporal threshold: split.
    sealed = session.push(1010.0, 0.0, 660.0 + 600.0 + 1e-6)
    assert sealed is not None and len(sealed) == 1
    assert len(sealed[0].trajectory) == 3
    # One unit beyond the spatial threshold: split again (fragment of 1).
    sealed = session.push(1010.0 + 1001.0, 0.0, 1400.0)
    assert sealed is not None and len(sealed) == 1 and sealed[0].discarded
    session.close()


def test_numbering_unique_across_eviction_recreations():
    """Objects evicted and re-acquired keep globally unique trajectory ids."""
    config = dataclasses.replace(
        _config(max_sessions=1, micro_batch_size=1),
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e9, max_distance_gap=1e9, min_points=3
        ),
    )
    engine = stream(AnnotationSources(), config=config)
    results = []
    t = 0.0
    for _ in range(3):  # a and b alternate; each acquisition evicts the other
        for object_id in ("a", "b"):
            for i in range(4):
                results.extend(engine.ingest(object_id, SpatioTemporalPoint(10.0 * i, 0.0, t)))
                t += 30.0
    results.extend(engine.close_all())
    ids = [r.trajectory.trajectory_id for r in results]
    assert len(ids) == len(set(ids)) == 6
    assert sorted(ids) == ["a-t0", "a-t1", "a-t2", "b-t0", "b-t1", "b-t2"]
    assert engine.sessions_evicted == 5


def test_manager_counters_survive_pop_and_reacquire():
    """SessionManager hands recreated sessions the shared segment counters."""
    manager = SessionManager(_config())
    session, _ = manager.acquire("u9")
    for i in range(4):
        session.push(5.0 * i, 0.0, 30.0 * i)
    assert session.segment_index == 1  # first trajectory opened -> counter advanced
    manager.pop("u9")
    recreated, _ = manager.acquire("u9")
    assert recreated is not session
    assert recreated.segment_index == 1  # numbering resumes, not reset
    assert recreated.push(0.0, 0.0, 1_000.0) is None
    assert recreated.trajectory is not None
    assert recreated.trajectory.trajectory_id == "u9-t1"


def test_per_fix_path_builds_no_geometry_objects():
    """Cleaning, gap detection and the append read floats: no ``Point`` per fix."""
    session = Session("u1", _config(), apply_cleaning=True)
    fixes = [
        SpatioTemporalPoint(12.0 * i + (i % 3), float(i % 5), 30.0 * i) for i in range(300)
    ]

    def forbidden(self, *args, **kwargs):
        raise AssertionError("a geometry Point was built on the per-fix path")

    with mock.patch.object(Point, "__init__", forbidden):
        for fix in fixes:
            assert session.push(fix.x, fix.y, fix.t) is None
    assert session.open_point_count == 299  # one fix of smoothing lookahead pending
