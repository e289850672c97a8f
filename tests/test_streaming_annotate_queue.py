"""The streaming executor's annotate queue: sealing and annotating are apart.

Sealed episodes and closed trajectories wait in seal order inside
:class:`~repro.engine.executors.MicroBatchExecutor`; a flush annotates every
queued episode as one group and then delivers in seal order.  What must hold:

* waiting changes *when* a result arrives, never what it is or in which order
  (``on_episode`` / ``on_result`` sequences and canonical bytes are those of an
  executor that flushes at every pass);
* the flush rules — age in passes, queued GPS points, and the calls that
  always flush (``flush`` / ``close_all`` / ``evict_sessions``);
* nothing waits while fault injection is armed;
* a failing group poisons, quarantines or raises exactly as a pass's group
  did, and an interrupted flush loses no queued entry;
* a process-transport worker killed with trajectories queued is recovered
  from the WAL like its open sessions.
"""

from __future__ import annotations

import asyncio
import os
import signal
from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

import pytest

from repro.api import stream
from repro.core import AnnotationSources, PipelineConfig, SeMiTriPipeline
from repro.core.points import SpatioTemporalPoint
from repro.datasets import PrivateCarSimulator
from repro.engine import executors
from repro.engine.executors import MicroBatchExecutor
from repro.engine.plan import Plan
from repro.faults.inject import FaultInjector, FaultPlan
from repro.lines.annotator import LineAnnotator
from repro.parallel.canonical import canonical_bytes
from repro.parallel.context import GeoContext
from repro.service import AnnotationService
from repro.store.store import SemanticTrajectoryStore

from test_service_process import _assert_stores_identical, _object_streams, _service_config

Op = Tuple[str, Optional[SpatioTemporalPoint]]

LANES = 64
NEVER = 10**9


def _config(**overrides: object) -> PipelineConfig:
    merged: Dict[str, object] = {
        "streaming.micro_batch_size": 64,
        "streaming.apply_cleaning": True,
        "failure.backoff_base": 0.0,
    }
    merged.update(overrides)
    return PipelineConfig.for_vehicles().with_overrides(merged)


@pytest.fixture(scope="module")
def fleet_streams(world) -> Dict[str, List[SpatioTemporalPoint]]:
    """72 cars, one trip each: more objects than lanes, so lanes take a second car."""
    dataset = PrivateCarSimulator(world, car_count=72, trips_per_car=1, seed=5).generate()
    return _object_streams(dataset.trajectories)


def _interleaved(streams: Dict[str, List[SpatioTemporalPoint]]) -> List[Op]:
    """Round-robin over 64 lanes; a lane replays one object, closes it, takes the next."""
    lanes: List[List[Op]] = [[] for _ in range(LANES)]
    for index, (object_id, points) in enumerate(sorted(streams.items())):
        lane = lanes[index % LANES]
        lane.extend((object_id, point) for point in points)
        lane.append((object_id, None))
    return [op for turn in zip_longest(*lanes) for op in turn if op is not None]


def _sequential(ops: Dict[str, List[SpatioTemporalPoint]], sources, config):
    pipeline = SeMiTriPipeline(config)
    raw = [
        trajectory
        for object_id in sorted(ops)
        for trajectory in pipeline.ingest_stream(ops[object_id], object_id=object_id)
    ]
    return pipeline.annotate_many(raw, sources)


def _by_id(results):
    return sorted(results, key=lambda result: result.trajectory.trajectory_id)


def _feed(engine: MicroBatchExecutor, ops: List[Op]) -> List[object]:
    results: List[object] = []
    for object_id, point in ops:
        if point is None:
            results.extend(engine.close_object(object_id))
        else:
            results.extend(engine.ingest(object_id, point))
    return results


# ------------------------------------------------------------ same output, later
def test_interleaved_feed_equals_batch_and_keeps_callback_order(
    annotation_sources, fleet_streams, monkeypatch
):
    config = _config()
    ops = _interleaved(fleet_streams)

    def run() -> Tuple[List[object], List[Tuple[str, str, int]], int]:
        log: List[Tuple[str, str, int]] = []
        engine = stream(
            annotation_sources,
            config=config,
            on_episode=lambda e: log.append(
                ("episode", e.trajectory.trajectory_id, e.start_index)
            ),
            on_result=lambda r: log.append(("result", r.trajectory.trajectory_id, -1)),
        )
        deepest = 0
        results: List[object] = []
        for object_id, point in ops:
            if point is None:
                results.extend(engine.close_object(object_id))
            else:
                results.extend(engine.ingest(object_id, point))
            deepest = max(deepest, engine.annotate_queue_depth)
        results.extend(engine.close_all())
        assert engine.annotate_queue_depth == 0
        assert engine.stats.episodes_sealed == sum(1 for kind, _, _ in log if kind == "episode")
        return results, log, deepest

    results, log, deepest = run()
    assert deepest > 1  # groups were actually held across passes
    reference = _sequential(fleet_streams, annotation_sources, config)
    assert canonical_bytes(_by_id(results)) == canonical_bytes(_by_id(reference))
    # Results come back in the order on_result saw them.
    assert [r.trajectory.trajectory_id for r in results] == [
        trajectory_id for kind, trajectory_id, _ in log if kind == "result"
    ]

    monkeypatch.setattr(executors, "_QUEUE_MAX_PASSES", 1)
    every_pass_results, every_pass_log, _ = run()
    assert log == every_pass_log
    assert canonical_bytes(results) == canonical_bytes(every_pass_results)


# -------------------------------------------------------------------- flush rules
def test_close_object_then_flush_returns_exactly_that_trajectory(
    annotation_sources, fleet_streams
):
    engine = stream(annotation_sources, config=_config())
    (first, first_points), (second, second_points) = sorted(fleet_streams.items())[:2]
    for point in first_points[:40]:
        engine.ingest(first, point)
    for point in second_points[:40]:
        engine.ingest(second, point)
    assert engine.close_object(first) == []  # sealed and queued, not delivered
    assert engine.annotate_queue_depth > 0
    flushed = engine.flush()
    assert [r.trajectory.object_id for r in flushed] == [first]
    assert len(flushed[0].trajectory) == 40
    assert engine.flush() == []
    assert engine.open_session_count == 1  # the other object is still open
    engine.close_all()


def test_age_rule_delivers_within_the_pass_bound(annotation_sources, fleet_streams):
    """A closed trajectory waits at most ``_QUEUE_MAX_PASSES`` passes."""
    config = _config(**{"streaming.micro_batch_size": 4})
    engine = stream(annotation_sources, config=config)
    (first, first_points), (second, second_points) = sorted(fleet_streams.items())[:2]
    for point in first_points[:40]:
        engine.ingest(first, point)
    engine.flush()  # the queue is empty when the close arrives
    assert engine.close_object(first) == []
    closed_at = engine.stats.processing_passes
    delivered: List[object] = []
    for point in second_points:
        delivered = engine.ingest(second, point)
        if delivered:
            break
    assert [r.trajectory.object_id for r in delivered] == [first]
    assert engine.stats.processing_passes - closed_at == executors._QUEUE_MAX_PASSES
    engine.close_all()


def test_point_rule_flushes_inside_ingest(annotation_sources, fleet_streams, monkeypatch):
    monkeypatch.setattr(executors, "_QUEUE_MAX_PASSES", NEVER)
    monkeypatch.setattr(executors, "_CHUNK_POINTS", 8)
    config = _config(**{"streaming.micro_batch_size": 4})
    engine = stream(annotation_sources, config=config)
    object_id, points = sorted(fleet_streams.items())[0]
    returned: List[object] = []
    for point in points[:30]:
        returned.extend(engine.ingest(object_id, point))
    # A fix far beyond the gap thresholds seals the open trajectory inside a
    # pass; its episodes hold more than the patched point limit.
    last = points[29]
    for step in range(4):
        returned.extend(
            engine.ingest(
                object_id, SpatioTemporalPoint(last.x, last.y, last.t + 1e6 + 40.0 * step)
            )
        )
    assert [len(r.trajectory) for r in returned] == [30]
    assert engine.annotate_queue_depth == 0
    engine.close_all()


def test_discarded_fragment_yields_nothing_and_leaves_no_work_item():
    config = _config(**{"identification.min_points": 5, "streaming.apply_cleaning": False})
    engine = stream(AnnotationSources(), config=config)
    for step in range(3):
        engine.ingest("a", SpatioTemporalPoint(10.0 * step, 0.0, 60.0 * step))
    assert engine.close_object("a") == []
    assert engine.annotate_queue_depth == 1  # the discard waits its turn like any close
    assert engine.flush() == []
    assert engine.stats.trajectories_discarded == 1
    assert engine.stats.results == 0
    assert engine._items == {} and engine.annotate_queue_depth == 0


def test_evict_sessions_and_close_all_leave_the_queue_empty(
    annotation_sources, fleet_streams, monkeypatch
):
    monkeypatch.setattr(executors, "_QUEUE_MAX_PASSES", NEVER)
    engine = stream(annotation_sources, config=_config())
    ops = _interleaved(fleet_streams)
    half = len(ops) // 2
    assert _feed(engine, ops[:half]) == []  # nothing flushes on its own here
    assert engine.annotate_queue_depth > 0
    open_before = engine.open_session_count
    evicted = engine.evict_sessions(open_before - 3)
    assert engine.annotate_queue_depth == 0
    assert engine.open_session_count == open_before - 3
    assert len(evicted) >= 3  # the three evicted sessions plus everything queued before
    rest = _feed(engine, ops[half:])
    rest.extend(engine.close_all())
    assert engine.annotate_queue_depth == 0 and engine.open_session_count == 0
    assert engine.stats.results == len(evicted) + len(rest)


# ------------------------------------------------------------------------ faults
def test_nothing_waits_while_fault_injection_is_armed(annotation_sources, fleet_streams):
    config = _config()
    streams = dict(sorted(fleet_streams.items())[:6])
    episodes: Dict[bool, List[Tuple[str, int]]] = {True: [], False: []}

    def engine_for(armed: bool) -> MicroBatchExecutor:
        faults = FaultInjector(FaultPlan.parse("raise@map_match:n=1000000000" if armed else ""))
        plan = Plan.compile(sources=annotation_sources, config=config, faults=faults)
        return MicroBatchExecutor(
            plan,
            on_episode=lambda e: episodes[armed].append(
                (e.trajectory.trajectory_id, e.start_index)
            ),
        )

    armed = engine_for(True)
    results: List[object] = []
    for object_id, points in streams.items():
        for point in points:
            assert armed.ingest(object_id, point) == []
            assert armed.annotate_queue_depth == 0
        closed = armed.close_object(object_id)
        assert [r.trajectory.object_id for r in closed] == [object_id]
        assert armed.annotate_queue_depth == 0
        results.extend(closed)
    assert armed.flush() == []

    plain = engine_for(False)
    reference: List[object] = []
    for object_id, points in streams.items():
        for point in points:
            reference.extend(plain.ingest(object_id, point))
        reference.extend(plain.close_object(object_id))
    reference.extend(plain.flush())
    assert canonical_bytes(results) == canonical_bytes(reference)
    assert episodes[True] == episodes[False]


def _failing_for(culprit: str, monkeypatch) -> None:
    """The line annotator raises a real error whenever ``culprit`` is in its group."""
    annotate_episodes = LineAnnotator.annotate_episodes

    def flaky(self, episodes):
        if any(episode.trajectory.object_id == culprit for episode in episodes):
            raise RuntimeError(f"cannot match {culprit}")
        return annotate_episodes(self, episodes)

    monkeypatch.setattr(LineAnnotator, "annotate_episodes", flaky)


def test_real_error_in_a_flushed_group_quarantines_only_the_culprit(
    annotation_sources, fleet_streams, monkeypatch
):
    monkeypatch.setattr(executors, "_QUEUE_MAX_PASSES", NEVER)
    config = _config(**{"failure.mode": "skip"})
    streams = dict(sorted(fleet_streams.items())[:8])
    ops = _interleaved(streams)
    culprit = sorted(streams)[3]

    clean = stream(annotation_sources, config=config)
    reference = _feed(clean, ops) + clean.close_all()
    assert len(reference) == len(streams)

    _failing_for(culprit, monkeypatch)
    engine = stream(annotation_sources, config=config)
    assert _feed(engine, ops) == []  # one group: every episode of all eight objects
    results = engine.close_all()
    survivors = [r for r in reference if r.trajectory.object_id != culprit]
    assert canonical_bytes(results) == canonical_bytes(survivors)
    log = engine.plan.failure_log
    assert log.quarantined == 1
    assert [f.trajectory.object_id for f in log.pending_quarantines] == [culprit]
    assert all(not result.fault_events for result in results)  # innocents charged nothing
    assert engine._items == {} and engine._poisoned == {}


def test_fail_fast_raise_out_of_a_flush_keeps_the_remaining_entries_queued(
    annotation_sources, fleet_streams, monkeypatch
):
    monkeypatch.setattr(executors, "_QUEUE_MAX_PASSES", NEVER)
    streams = dict(sorted(fleet_streams.items())[:8])
    ops = _interleaved(streams)
    _failing_for(sorted(streams)[3], monkeypatch)
    delivered: List[str] = []
    engine = stream(
        annotation_sources,
        config=_config(),
        on_result=lambda r: delivered.append(r.trajectory.object_id),
    )
    _feed(engine, ops)
    queued = engine.annotate_queue_depth
    assert queued >= len(streams)
    with pytest.raises(RuntimeError, match="cannot match"):
        engine.flush()
    assert engine.annotate_queue_depth == queued and delivered == []
    # The group was consumed by the failed attempt (as a pass's group always
    # was); the next flush delivers every queued entry, in seal order.
    results = engine.flush()
    assert sorted(delivered) == sorted(streams)
    assert [r.trajectory.object_id for r in results] == delivered
    assert engine.annotate_queue_depth == 0


# ------------------------------------------------------------- process transport
def test_sigkilled_worker_with_queued_trajectories_is_recovered_from_the_wal(
    annotation_sources, car_dataset, tmp_path, monkeypatch
):
    """Kill a shard worker whose closed trajectories still wait in its queue.

    Forked workers inherit the patched age bound, so nothing a worker seals is
    delivered before the drain — every closed trajectory is queued, unacked,
    when the kill lands.  The WAL prefix replay regenerates them.
    """
    monkeypatch.setattr(executors, "_QUEUE_MAX_PASSES", NEVER)
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(
        shards=2,
        transport="process",
        journal_dir=str(tmp_path / "wal"),
        journal_fsync_batch=1,
    )
    context = GeoContext.build(annotation_sources, config)
    store = SemanticTrajectoryStore()
    service = AnnotationService(context, store=store, persist=True)
    object_ids = sorted(streams)

    async def run() -> None:
        async with service:
            for position, object_id in enumerate(object_ids):
                for point in streams[object_id]:
                    await service.ingest(object_id, point)
                await service.close_object(object_id)
                if position == len(object_ids) // 2:
                    assert service.results == []  # closed, sealed, still queued
                    for pid in service.worker_pids:
                        assert pid is not None
                        os.kill(pid, signal.SIGKILL)
            await service.drain()

    asyncio.run(run())
    assert service.failure_log.worker_losses >= 1
    assert service.stats.wal_replayed > 0
    assert service.dropped_events == 0 and service.quarantined_count == 0

    pipeline = SeMiTriPipeline(config)
    reference_store = SemanticTrajectoryStore()
    for object_id in object_ids:
        raw = pipeline.ingest_stream(streams[object_id], object_id=object_id)
        results = pipeline.annotate_many(raw, annotation_sources, annotators=context.annotators)
        reference_store.save_annotated_trajectories(
            [(result.trajectory, result.episodes) for result in results]
        )
    _assert_stores_identical(store, reference_store)
    store.close()
    reference_store.close()
