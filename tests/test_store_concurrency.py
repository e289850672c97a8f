"""Store concurrency: an out-of-order sharded batch commits like a single writer.

Shard outcomes reach :func:`repro.engine.merge_shard_results` in arbitrary
completion order; its deferred commit must produce exactly the row set, row
order and autoincrement identifiers of a sequential single-writer run, must
be atomic when any row is rejected, and a retried commit must re-send the
identical batch.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.core.annotations import activity_annotation
from repro.core.config import PipelineConfig, StopMoveConfig
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import StoreError
from repro.core.pipeline import AnnotationSources, PipelineResult
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine import Plan, merge_shard_results
from repro.faults import FailureEvent, TrajectoryFailure
from repro.preprocessing.stops import StopMoveDetector
from repro.store.store import SemanticTrajectoryStore


def _make_workload(count: int = 8) -> List[Tuple[RawTrajectory, List[Episode]]]:
    """Trajectories with real segmented episodes and an annotation each."""
    detector = StopMoveDetector(StopMoveConfig())
    workload = []
    for index in range(count):
        points = []
        t = 0.0
        for i in range(6):  # move
            points.append(SpatioTemporalPoint(50.0 * i, 10.0 * index, t))
            t += 10.0
        for i in range(5):  # dwell
            points.append(SpatioTemporalPoint(300.0 + 0.1 * i, 10.0 * index, t))
            t += 90.0
        trajectory = RawTrajectory(
            points, object_id=f"obj{index % 3}", trajectory_id=f"obj{index % 3}-t{index}"
        )
        episodes = detector.segment(trajectory)
        assert episodes
        episodes[0].annotations.append(
            activity_annotation("errand", category=f"cat-{index}")
        )
        workload.append((trajectory, episodes))
    return workload


def _single_writer_store(workload) -> SemanticTrajectoryStore:
    store = SemanticTrajectoryStore()
    for trajectory, episodes in workload:
        store.save_trajectory(trajectory)
        store.save_episodes(episodes)
    return store


def _assert_stores_identical(got: SemanticTrajectoryStore, want: SemanticTrajectoryStore):
    assert got.stop_move_summary() == want.stop_move_summary()
    assert got.annotation_count() == want.annotation_count()
    assert got.trajectory_ids() == want.trajectory_ids()
    for trajectory_id in want.trajectory_ids():
        want_rows = want.episodes_for(trajectory_id)
        got_rows = got.episodes_for(trajectory_id)
        assert got_rows == want_rows  # includes autoincrement episode ids
        for row in want_rows:
            assert got.annotations_for(row["episode_id"]) == want.annotations_for(
                row["episode_id"]
            )


def _commit(store, workload, orders, config=None) -> Plan:
    """Merge the given input positions, in that arrival order, and commit."""
    plan = Plan.compile(AnnotationSources(), config=config, store=store, persist=True)
    outputs = [(order, PipelineResult(*workload[order])) for order in orders]
    merged = merge_shard_results(plan, outputs, commit=True)
    assert [result.trajectory for result in merged] == [
        workload[order][0] for order in sorted(orders)
    ]
    return plan


def test_interleaved_shard_commits_match_single_writer():
    """Shards finishing out of order still commit single-writer rows."""
    workload = _make_workload()
    reference = _single_writer_store(workload)

    store = SemanticTrajectoryStore()
    # Completion order scrambled across 3 shards: last shard reports first.
    _commit(store, workload, (7, 4, 1, 2, 5, 0, 3, 6))

    _assert_stores_identical(store, reference)
    reference.close()
    store.close()


def test_commit_is_atomic_on_rejected_row():
    """A duplicate trajectory in the batch rolls the whole commit back."""
    workload = _make_workload(count=4)
    store = SemanticTrajectoryStore()
    # The first trajectory is already stored -> the batch must be rejected.
    store.save_trajectory(workload[0][0])
    with pytest.raises(StoreError):
        _commit(store, workload, (3, 1, 0, 2))
    # Nothing from the batch landed.
    assert store.trajectory_count() == 1
    assert store.episode_count() == 0
    assert store.annotation_count() == 0
    store.close()


def test_multiple_commits_append_in_order():
    """Successive commits extend the store exactly like continued sequential writes."""
    workload = _make_workload()
    reference = _single_writer_store(workload)

    store = SemanticTrajectoryStore()
    _commit(store, workload, (1, 0, 2))
    _commit(store, workload, (5, 7, 3, 4, 6))

    _assert_stores_identical(store, reference)
    reference.close()
    store.close()


def test_merge_collects_in_input_order_and_only_commits_when_asked():
    """Quarantine and retry history are walked by input position, not arrival."""
    workload = _make_workload(count=6)
    store = SemanticTrajectoryStore()
    config = PipelineConfig().with_overrides({"failure.mode": "skip"})
    plan = Plan.compile(AnnotationSources(), config=config, store=store, persist=True)
    retried = FailureEvent(stage="landuse_join", kind="Transient", attempt=1)
    outputs = {}
    for order, (trajectory, episodes) in enumerate(workload):
        if order in (1, 4):
            outputs[order] = TrajectoryFailure(
                trajectory, stage="map_match", error="boom", attempts=1,
                events=[FailureEvent(stage="map_match", kind="Boom", attempt=1)],
            )
        else:
            outputs[order] = PipelineResult(trajectory, episodes)
    outputs[3].fault_events = [retried]
    arrival = [(order, outputs[order]) for order in (4, 5, 0, 3, 1, 2)]

    merged = merge_shard_results(plan, arrival, commit=False)

    assert [r.trajectory for r in merged] == [workload[i][0] for i in (0, 2, 3, 5)]
    log = plan.failure_log
    assert (log.failures, log.retries, log.quarantined) == (3, 1, 2)
    assert [row["trajectory_id"] for row in store.quarantined()] == [
        workload[1][0].trajectory_id,
        workload[4][0].trajectory_id,
    ]
    assert store.trajectory_count() == 0  # inline write-back already happened elsewhere
    store.close()


def test_retried_commit_resends_the_identical_batch():
    """A commit that fails once is retried with the same rows in the same order."""

    class FlakyStore(SemanticTrajectoryStore):
        def __init__(self):
            super().__init__()
            self.batches = []

        def save_annotated_trajectories(self, items, store_points=True):
            batch = list(items)
            self.batches.append(batch)
            if len(self.batches) == 1:
                raise StoreError("injected: first commit fails before writing")
            return super().save_annotated_trajectories(batch, store_points)

    workload = _make_workload()
    reference = _single_writer_store(workload)
    store = FlakyStore()
    config = PipelineConfig().with_overrides(
        {"failure.mode": "retry", "failure.backoff_base": 0.0}
    )
    plan = _commit(store, workload, (6, 0, 3, 5, 1, 7, 2, 4), config)

    assert len(store.batches) == 2
    assert store.batches[0] == store.batches[1] == list(workload)
    log = plan.failure_log
    assert (log.failures, log.retries, log.quarantined) == (1, 1, 0)
    _assert_stores_identical(store, reference)
    reference.close()
    store.close()
