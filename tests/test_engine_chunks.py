"""Stage-major execution: chunk boundaries and episode groups are invisible.

The batch loop runs every stage once per chunk of trajectories and the
micro-batch executor once per group of sealed episodes.  Neither grouping may
show: output bytes, per-stage latency sample counts, ``on_episode`` order,
failure isolation and store rows are those of one trajectory (one episode) at
a time.  The per-unit reference is the same code with the chunk limits patched
to one trajectory — or with an armed fault plan that never fires, which makes
every chunk one trajectory and every group one episode.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import pytest

from repro import api
from repro.core.config import PipelineConfig, StreamingConfig
from repro.core.pipeline import SeMiTriPipeline
from repro.core.points import RawTrajectory
from repro.engine import (
    MapMatchStage,
    MicroBatchExecutor,
    Plan,
    SequentialExecutor,
    WorkItem,
    executors,
)
from repro.faults import FaultInjector, FaultPlan, failure_stage
from repro.lines.annotator import LineAnnotator
from repro.parallel import GeoContext, canonical_bytes
from repro.store.store import SemanticTrajectoryStore

#: Armed (so every chunk and group is one unit) but never firing.
_INERT_FAULTS = "raise@map_match:n=1000000000"

_EVERYTHING = 10**9


@pytest.fixture(scope="module")
def mixed_batch(people_dataset, car_dataset):
    """People's day-long trajectories between short car trips."""
    people, cars = people_dataset.all_trajectories, car_dataset.trajectories
    batch = list(cars[:5]) + list(people[:2]) + list(cars[5:]) + list(people[2:])
    assert len({trajectory.object_id for trajectory in batch}) >= 10
    return batch


def _set_chunks(monkeypatch, trajectories: int, points: int) -> None:
    monkeypatch.setattr(executors, "_CHUNK_TRAJECTORIES", trajectories)
    monkeypatch.setattr(executors, "_CHUNK_POINTS", points)


def _stage_counts(results) -> List[Tuple[str, dict]]:
    return [
        (
            result.trajectory.trajectory_id,
            {stage: result.latency.count(stage) for stage in result.latency.stages()},
        )
        for result in results
    ]


def _config(**failure: object) -> PipelineConfig:
    overrides = {"failure.backoff_base": 0.0}
    overrides.update({f"failure.{key}": value for key, value in failure.items()})
    return PipelineConfig.for_vehicles().with_overrides(overrides)


# ----------------------------------------------------------- chunk boundaries
def test_chunk_rule(annotation_sources, mixed_batch, monkeypatch):
    numbered = list(enumerate(mixed_batch))
    plan = Plan.compile(sources=annotation_sources, config=_config())

    def sizes(plan, include_writeback=True):
        chunks = list(executors._chunks(plan, numbered, include_writeback))
        assert [entry for chunk in chunks for entry in chunk] == numbered
        return [len(chunk) for chunk in chunks]

    _set_chunks(monkeypatch, 3, _EVERYTHING)
    threes = sizes(plan)
    assert threes[:-1] == [3] * (len(threes) - 1) and 1 <= threes[-1] <= 3
    _set_chunks(monkeypatch, _EVERYTHING, 1)  # a limit smaller than any trajectory
    assert sizes(plan) == [1] * len(numbered)
    _set_chunks(monkeypatch, _EVERYTHING, 400)
    for chunk in executors._chunks(plan, numbered, True):
        points = [len(trajectory) for _, trajectory in chunk]
        assert sum(points) >= 400 or chunk[-1] == numbered[-1]
        assert sum(points[:-1]) < 400  # closed by the trajectory that crossed the limit
    _set_chunks(monkeypatch, _EVERYTHING, _EVERYTHING)
    assert sizes(plan) == [len(numbered)]

    # Per-trajectory grain is part of the contract: inline write-back, armed faults.
    store = SemanticTrajectoryStore()
    persisting = Plan.compile(
        sources=annotation_sources, config=_config(), store=store, persist=True
    )
    assert sizes(persisting) == [1] * len(numbered)
    assert sizes(persisting, include_writeback=False) == [len(numbered)]
    armed = Plan.compile(
        sources=annotation_sources,
        config=_config(),
        faults=FaultInjector(FaultPlan.parse(_INERT_FAULTS)),
    )
    assert sizes(armed) == [1] * len(numbered)
    store.close()


@pytest.mark.parametrize(
    "trajectories, points",
    [
        (2, _EVERYTHING),
        (3, _EVERYTHING),
        (_EVERYTHING, 1),
        (_EVERYTHING, _EVERYTHING),
        (None, None),
    ],
    ids=["2", "3", "point-limit", "one-chunk", "defaults"],
)
def test_chunking_is_invisible_in_output_and_latency_counts(
    trajectories, points, annotation_sources, mixed_batch, monkeypatch
):
    config = _config()
    with monkeypatch.context() as patch:
        _set_chunks(patch, 1, _EVERYTHING)
        reference = api.annotate_many(mixed_batch, annotation_sources, config=config)
    if trajectories is not None:
        _set_chunks(monkeypatch, trajectories, points)
    results = api.annotate_many(mixed_batch, annotation_sources, config=config)
    assert canonical_bytes(results) == canonical_bytes(reference)
    assert _stage_counts(results) == _stage_counts(reference)
    for result in results:
        for stage in result.latency.stages():
            assert result.latency.count(stage) == 1
            assert result.latency.total(stage) >= 0.0
    # Forked pool workers inherit the patched limits and chunk their shards.
    pooled = api.annotate_many(mixed_batch, annotation_sources, config=config, workers=2)
    assert canonical_bytes(pooled) == canonical_bytes(reference)
    assert _stage_counts(pooled) == _stage_counts(reference)


def test_run_of_one_item_is_the_grouped_body(annotation_sources, mixed_batch):
    """``stage.run(item)`` (what ``bench/layers.py`` walks) equals the chunked run."""
    plan = Plan.compile(sources=annotation_sources, config=_config())
    walked = []
    for trajectory in mixed_batch[:6]:
        item = WorkItem.start(trajectory, plan.telemetry)
        for stage in plan.stages:
            if stage.ready(item):
                stage.run(item)
        walked.append(item.result)
    assert canonical_bytes(walked) == canonical_bytes(
        SequentialExecutor().run(plan, mixed_batch[:6])
    )


# ------------------------------------------------------------ episode groups
def _interleaved_events(trajectories):
    """All fixes round-robin across the objects: many sessions per pass."""
    cursors = [iter(trajectory.points) for trajectory in trajectories]
    ids = [trajectory.object_id for trajectory in trajectories]
    events = []
    while cursors:
        for index in reversed(range(len(cursors))):
            point = next(cursors[index], None)
            if point is None:
                del cursors[index], ids[index]
            else:
                events.append((ids[index], point))
    return events


def _streaming_config(**failure: object) -> PipelineConfig:
    return dataclasses.replace(
        _config(**failure), streaming=StreamingConfig(micro_batch_size=96, apply_cleaning=False)
    )


def _stream(plan: Plan, events):
    seen: List[Tuple[str, int]] = []
    engine = MicroBatchExecutor(
        plan,
        on_episode=lambda episode: seen.append(
            (episode.trajectory.trajectory_id, episode.start_index)
        ),
    )
    results = engine.ingest_many(events)
    results.extend(engine.close_all())
    return results, seen


def _as_first_session(trajectory: RawTrajectory) -> RawTrajectory:
    """The trajectory under the id its object's first streaming session gives it."""
    return RawTrajectory(
        trajectory.points,
        object_id=trajectory.object_id,
        trajectory_id=f"{trajectory.object_id}-t0",
    )


def _by_id(results):
    return sorted(results, key=lambda result: result.trajectory.trajectory_id)


def test_many_sessions_sealing_in_one_pass(annotation_sources, car_dataset, monkeypatch):
    config = _streaming_config()
    # One trip per car, so session ids are the batch reference's ids.
    trips = {trajectory.object_id: trajectory for trajectory in car_dataset.trajectories}
    trajectories = list(trips.values())
    events = _interleaved_events(trajectories)
    group_sizes = []
    original = MapMatchStage.absorb_episodes

    def spy(self, sealed):
        group_sizes.append(len({item.trajectory.trajectory_id for item, _ in sealed}))
        return original(self, sealed)

    monkeypatch.setattr(MapMatchStage, "absorb_episodes", spy)
    grouped, grouped_order = _stream(
        Plan.compile(sources=annotation_sources, config=config), events
    )
    assert max(group_sizes) > 1  # several trajectories' moves went through one call

    group_sizes.clear()
    armed = Plan.compile(
        sources=annotation_sources,
        config=config,
        faults=FaultInjector(FaultPlan.parse(_INERT_FAULTS)),
    )
    single, single_order = _stream(armed, events)
    assert set(group_sizes) == {1}

    assert grouped_order == single_order
    assert canonical_bytes(grouped) == canonical_bytes(single)
    assert _stage_counts(grouped) == _stage_counts(single)
    sequential = SeMiTriPipeline(config).annotate_many(
        [_as_first_session(trajectory) for trajectory in trajectories], annotation_sources
    )
    assert canonical_bytes(_by_id(grouped)) == canonical_bytes(_by_id(sequential))


# ------------------------------------------------------- failures in a chunk
@pytest.fixture()
def bad_road(monkeypatch, mixed_batch):
    """A real exception from the line annotator for one object mid-batch."""
    culprit = mixed_batch[len(mixed_batch) // 2].object_id
    original = LineAnnotator.annotate_episodes

    def annotate_episodes(self, episodes):
        for episode in episodes:
            if episode.is_move and episode.trajectory.object_id == culprit:
                raise RuntimeError(f"bad road under {episode.trajectory.trajectory_id}")
        return original(self, episodes)

    monkeypatch.setattr(LineAnnotator, "annotate_episodes", annotate_episodes)
    return culprit


def _failure_summary(plan: Plan):
    log = plan.failure_log
    return (
        (log.failures, log.retries, log.quarantined),
        [
            (
                failure.trajectory.trajectory_id,
                failure.stage,
                failure.attempts,
                [(event.stage, event.kind, event.attempt) for event in failure.events],
            )
            for failure in log.pending_quarantines
        ],
    )


def test_fail_fast_raises_the_same_tagged_exception(
    annotation_sources, mixed_batch, bad_road, monkeypatch
):
    raised = []
    for limit in (1, _EVERYTHING):
        _set_chunks(monkeypatch, limit, _EVERYTHING)
        plan = Plan.compile(sources=annotation_sources, config=_config())
        with pytest.raises(RuntimeError) as caught:
            SequentialExecutor().run(plan, mixed_batch)
        raised.append((str(caught.value), failure_stage(caught.value)))
    assert raised[0] == raised[1]
    assert raised[0][1] == "map_match"


@pytest.mark.parametrize("mode, attempts", [("skip", 1), ("retry", 3)])
def test_isolating_policies_blame_exactly_the_culprit(
    mode, attempts, annotation_sources, mixed_batch, bad_road, monkeypatch
):
    config = _config(mode=mode, max_retries=2)
    clean = api.annotate_many(
        [t for t in mixed_batch if t.object_id != bad_road], annotation_sources, config=config
    )
    outcomes = []
    for limit in (1, _EVERYTHING):
        _set_chunks(monkeypatch, limit, _EVERYTHING)
        plan = Plan.compile(sources=annotation_sources, config=config)
        results = SequentialExecutor().run(plan, mixed_batch)
        assert canonical_bytes(results) == canonical_bytes(clean)
        assert not any(result.fault_events for result in results)
        outcomes.append(_failure_summary(plan))
    assert outcomes[0] == outcomes[1]
    counters, quarantined = outcomes[1]
    culprits = [t.trajectory_id for t in mixed_batch if t.object_id == bad_road]
    assert counters == (attempts * len(culprits), (attempts - 1) * len(culprits), len(culprits))
    assert [(entry[0], entry[1], entry[2]) for entry in quarantined] == [
        (trajectory_id, "map_match", attempts) for trajectory_id in culprits
    ]


def test_deferred_writeback_commits_the_same_rows(annotation_sources, mixed_batch, monkeypatch):
    stores = []
    for limit in (1, _EVERYTHING):
        _set_chunks(monkeypatch, limit, _EVERYTHING)
        store = SemanticTrajectoryStore()
        context = GeoContext.build(annotation_sources, _config())
        plan = api.compile_plan(context=context, store=store, persist=True)
        SequentialExecutor(deferred_writeback=True).run(plan, mixed_batch)
        stores.append(store)
    one, chunked = stores
    assert chunked.trajectory_ids() == one.trajectory_ids()
    assert chunked.annotation_count() == one.annotation_count()
    for trajectory_id in one.trajectory_ids():
        rows = one.episodes_for(trajectory_id)
        assert chunked.episodes_for(trajectory_id) == rows  # episode ids included
        for row in rows:
            assert chunked.annotations_for(row["episode_id"]) == one.annotations_for(
                row["episode_id"]
            )
    for store in stores:
        store.close()


def test_failing_group_under_skip_quarantines_only_the_culprit(
    annotation_sources, car_dataset, monkeypatch
):
    trips = {trajectory.object_id: trajectory for trajectory in car_dataset.trajectories}
    trajectories = list(trips.values())
    culprit = trajectories[len(trajectories) // 2].object_id
    events = _interleaved_events(trajectories)
    config = _streaming_config(mode="skip")
    clean, _ = _stream(Plan.compile(sources=annotation_sources, config=config), events)

    original = LineAnnotator.annotate_episodes
    failed_groups = []

    def annotate_episodes(self, episodes):
        owners = {episode.trajectory.object_id for episode in episodes}
        if culprit in owners:
            failed_groups.append(owners)
            raise RuntimeError("bad road")
        return original(self, episodes)

    monkeypatch.setattr(LineAnnotator, "annotate_episodes", annotate_episodes)
    plan = Plan.compile(sources=annotation_sources, config=config)
    results, _ = _stream(plan, events)

    assert any(len(owners) > 1 for owners in failed_groups)  # innocents shared its group
    survivors = [result for result in clean if result.trajectory.object_id != culprit]
    assert canonical_bytes(_by_id(results)) == canonical_bytes(_by_id(survivors))
    assert not any(result.fault_events for result in results)
    counters, quarantined = _failure_summary(plan)
    assert counters == (1, 0, 1)
    assert [(entry[0], entry[1], entry[2]) for entry in quarantined] == [
        (f"{culprit}-t0", "map_match", 1)
    ]
