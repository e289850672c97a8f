"""Unit coverage for the batch runtime: sharding, snapshot reuse, freezing."""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro import api
from repro.core import PipelineConfig
from repro.core.errors import ConfigurationError
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine import ProcessPoolExecutor, SequentialExecutor, executors, shard_by_object
from repro.index import FlatSpatialIndex
from repro.parallel import GeoContext, canonical_bytes
from repro.parallel.process import WorkerProcess
from repro.store.store import SemanticTrajectoryStore


def _trajectories(objects: int = 5, per_object: int = 3, length: int = 6, skew: int = 1):
    trajectories = []
    for obj in range(objects):
        for segment in range(per_object):
            points = [
                SpatioTemporalPoint(100.0 * obj + 5.0 * i, 40.0 * segment, 30.0 * i)
                for i in range(length + skew * obj)  # skewed: later objects are heavier
            ]
            trajectories.append(
                RawTrajectory(points, object_id=f"o{obj}", trajectory_id=f"o{obj}-t{segment}")
            )
    return trajectories


def test_sharding_groups_by_object_and_is_deterministic():
    trajectories = _trajectories()
    shards = shard_by_object(trajectories, 4)
    again = shard_by_object(trajectories, 4)
    assert [(i, [t.trajectory_id for _, t in items]) for i, items in shards] == [
        (i, [t.trajectory_id for _, t in items]) for i, items in again
    ]
    # All trajectories of one object land in the same shard.
    placement = {}
    seen_orders = set()
    for shard_index, items in shards:
        for order, trajectory in items:
            assert order not in seen_orders
            seen_orders.add(order)
            placement.setdefault(trajectory.object_id, set()).add(shard_index)
    assert seen_orders == set(range(len(trajectories)))
    assert all(len(shard_set) == 1 for shard_set in placement.values())
    # Requested parallelism is actually used.
    assert len(shards) > 1


def test_shard_count_never_exceeds_object_count():
    assert len(shard_by_object(_trajectories(objects=2), 16)) <= 2


def test_equal_load_sharding_is_round_robin():
    """On unskewed input the size-balanced split is the fixed object-id split."""
    shards = shard_by_object(_trajectories(objects=7, per_object=2, skew=0), 3)
    assert [sorted({t.object_id for _, t in items}) for _, items in shards] == [
        ["o0", "o3", "o6"],
        ["o1", "o4"],
        ["o2", "o5"],
    ]


def test_annotate_many_requires_sources_or_context():
    for workers in (1, 2):
        with pytest.raises(ConfigurationError):
            api.annotate_many(_trajectories(objects=1), workers=workers)


def test_worker_count_comes_from_config_unless_overridden(
    monkeypatch, annotation_sources, car_dataset
):
    """No config carries a worker count (there is no ``parallel`` section), so
    a batch runs in process whatever the context's config; ``workers=`` is
    the override and the one spelling."""
    pools = []
    real_init = ProcessPoolExecutor.__init__

    def spy(self, workers=2):
        pools.append(workers)
        real_init(self, workers)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", spy)
    batch = car_dataset.trajectories[:4]
    config = PipelineConfig.for_vehicles().with_overrides({"service.shards": 3})
    with pytest.raises(ConfigurationError, match="parallel"):
        config.with_overrides({"parallel.workers": 3})
    context = GeoContext.build(annotation_sources, config)
    reference = canonical_bytes(api.annotate_many(batch, context=context))
    assert pools == []
    assert canonical_bytes(api.annotate_many(batch, context=context, workers=3)) == reference
    assert pools == [3]


def test_empty_batch_returns_empty(annotation_sources):
    context = GeoContext.build(annotation_sources, PipelineConfig())
    plan = api.compile_plan(context=context)
    assert SequentialExecutor().run(plan, []) == []
    with ProcessPoolExecutor(workers=2) as executor:
        assert executor.run(plan, []) == []
        assert executor._workers == []  # nothing to do, nothing started
    assert api.annotate_many([], context=context, workers=2) == []


def test_single_object_batch_runs_in_process(annotation_sources, car_dataset):
    """One shard gains nothing from a pool, so none is started for it."""
    config = PipelineConfig.for_vehicles()
    first = car_dataset.trajectories[0].object_id
    batch = [t for t in car_dataset.trajectories if t.object_id == first]
    plan = api.compile_plan(context=GeoContext.build(annotation_sources, config))
    with ProcessPoolExecutor(workers=2) as executor:
        results = executor.run(plan, batch)
        assert executor._workers == []
    assert canonical_bytes(results) == canonical_bytes(SequentialExecutor().run(plan, batch))


def test_context_freezes_indexes_and_plans_keep_it(annotation_sources):
    config = PipelineConfig.for_vehicles()
    context = GeoContext.build(annotation_sources, config)
    # Nothing is left to freeze: a source packs its one index when it is
    # constructed and has no way to change it afterwards.
    for source in (
        annotation_sources.road_network,
        annotation_sources.regions,
        annotation_sources.pois,
    ):
        assert isinstance(source.flat_index(), FlatSpatialIndex)
        assert source.flat_index() is source.flat_index()
        assert not hasattr(source, "freeze") and not hasattr(source, "insert")
    assert context.available_layers() == ["region", "line", "point"]
    # Every plan compiled from the snapshot hands the pool the same object,
    # which is what keeps a held executor's workers warm across plans.
    assert api.compile_plan(context=context).context is context
    assert api.compile_plan(context=context, persist=True).context is context


def test_context_with_another_config_is_executor_independent(annotation_sources, car_dataset):
    """One plan carries one config, so workers cannot segment differently."""
    batch = car_dataset.trajectories[:6]
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    other = PipelineConfig.for_vehicles().with_overrides({"stop_move.min_stop_duration": 1200.0})
    in_process = api.annotate_many(batch, context=context, config=other, workers=1)
    pooled = api.annotate_many(batch, context=context, config=other, workers=2)
    assert canonical_bytes(pooled) == canonical_bytes(in_process)
    vehicles = api.annotate_many(batch, context=context, workers=1)
    assert canonical_bytes(vehicles) != canonical_bytes(in_process)


def test_dropped_executor_releases_pool_and_snapshot(annotation_sources):
    """GC of a never-closed executor stops its workers and lets go of the snapshot."""
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    snapshot = weakref.ref(context)
    executor = ProcessPoolExecutor(workers=2)
    executor.run(api.compile_plan(context=context), _trajectories(objects=4, per_object=1))
    pool = list(executor._workers)
    assert pool and all(worker.process.is_alive() for worker in pool)
    del executor
    gc.collect()
    # The finalizer stopped the workers.
    assert not any(worker.process.is_alive() for worker in pool)
    del pool, context
    gc.collect()
    assert snapshot() is None


def test_two_live_pools_keep_their_own_snapshots(annotation_sources, car_dataset):
    """Interleaved runs of two warm pools never see each other's snapshot."""
    batch = car_dataset.trajectories[:6]
    plans = [
        api.compile_plan(context=GeoContext.build(annotation_sources, config))
        for config in (PipelineConfig.for_vehicles(), PipelineConfig.for_people())
    ]
    expected = [canonical_bytes(SequentialExecutor().run(plan, batch)) for plan in plans]
    assert expected[0] != expected[1]
    with ProcessPoolExecutor(workers=2) as first, ProcessPoolExecutor(workers=2) as second:
        for _ in range(2):  # the second round finds both pools warm
            for executor, plan, reference in zip((first, second), plans, expected):
                assert canonical_bytes(executor.run(plan, batch)) == reference


def _describe_shard(items):
    """What the shard's pairs look like, here or in a worker."""
    return [
        (order, type(t), t.object_id, t.trajectory_id, [(p.x, p.y, p.t) for p in t.points])
        for order, t in items
    ]


def _describing_worker():
    """A worker's handler that describes the shard it is sent."""
    return lambda request: pickle.dumps(_describe_shard(pickle.loads(request)))


def test_pooled_shard_crosses_as_trajectory_columns(
    annotation_sources, car_dataset, monkeypatch
):
    """A request is the pickle of a shard's ``(input order, trajectory)`` pairs."""
    batch = car_dataset.trajectories[:6]
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    shards, requests = [], []
    points, send = executors._points, WorkerProcess.send
    monkeypatch.setattr(executors, "_points", lambda items: shards.append(items) or points(items))
    monkeypatch.setattr(
        WorkerProcess, "send", lambda self, data: requests.append(data) or send(self, data)
    )
    with ProcessPoolExecutor(workers=2) as executor:
        executor.run(api.compile_plan(context=context), batch)
    monkeypatch.undo()
    # The parent queues the caller's own trajectory objects, not copies.
    assert shards and all(
        trajectory is batch[order] for items in shards for order, trajectory in items
    )
    # On the wire: coordinate columns (``RawTrajectory.__reduce__``), not a
    # point object per fix.
    assert requests
    for request in requests:
        assert b"_trajectory_from_columns" in request and b"SpatioTemporalPoint" not in request
    pairs = sorted(pair for request in requests for pair in pickle.loads(request))
    assert [order for order, _ in pairs] == list(range(len(batch)))
    # In a worker: the parent's exact numbers and ids.
    worker = WorkerProcess(_describing_worker, (), name="describe")
    try:
        received = []
        for request in requests:
            worker.send(request)
            received.extend(pickle.loads(worker.responses.recv_bytes()))
    finally:
        worker.stop()
    assert sorted(received) == _describe_shard(list(enumerate(batch)))


def test_stream_rejects_config_conflicting_with_snapshot(annotation_sources):
    """A GeoContext carries its own config; one its annotators disagree with is an error."""
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    engine = api.stream(context)  # snapshot config adopted
    assert engine.plan.config == PipelineConfig.for_vehicles()
    assert engine.plan.annotators is context.annotators
    assert api.stream(context, config=PipelineConfig.for_vehicles()) is not None
    with pytest.raises(ConfigurationError):
        api.stream(context, config=PipelineConfig.for_people())
    with pytest.raises(ConfigurationError):
        # An explicitly requested default config is also a conflict here.
        api.stream(context, config=PipelineConfig())
    # One rule (GeoContext.with_config): sections the annotators do not read
    # may differ, and the snapshot's annotators are reused.
    engine = api.stream(
        context, config=context.config.with_overrides({"streaming.micro_batch_size": 3})
    )
    assert engine.plan.config.streaming.micro_batch_size == 3
    assert engine.plan.annotators is context.annotators
    with pytest.raises(ConfigurationError, match="map_matching"):
        api.stream(
            context,
            config=context.config.with_overrides({"map_matching.candidate_radius": 10.0}),
        )


def test_serve_follows_the_snapshot_pairing_rule(annotation_sources):
    """``serve`` pairs a snapshot with a config by the same rule as ``stream``."""
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    assert api.serve(context).context is context
    with pytest.raises(ConfigurationError):
        api.serve(context, config=PipelineConfig.for_people())
    service = api.serve(
        context, config=context.config.with_overrides({"streaming.micro_batch_size": 3})
    )
    assert service.config.streaming.micro_batch_size == 3
    assert service.context.annotators is context.annotators
    with pytest.raises(ConfigurationError, match="map_matching"):
        api.serve(
            context,
            config=context.config.with_overrides({"map_matching.candidate_radius": 10.0}),
        )


def test_deferred_writeback_executor_matches_sequential_pipeline(
    annotation_sources, car_dataset
):
    """The pool's one-shard shortcut runs in process on the plan without its
    write-back, then commits through the merge: the inline pipeline's bytes
    and rows."""
    config = PipelineConfig.for_vehicles()
    one_car = [
        trajectory
        for trajectory in car_dataset.trajectories
        if trajectory.object_id == car_dataset.trajectories[0].object_id
    ]
    inline_store, deferred_store = SemanticTrajectoryStore(), SemanticTrajectoryStore()
    sequential = api.annotate_many(
        one_car, annotation_sources, config, store=inline_store, persist=True
    )
    plan = api.compile_plan(
        context=GeoContext.build(annotation_sources, config), store=deferred_store, persist=True
    )
    with ProcessPoolExecutor(workers=2) as executor:
        deferred = executor.run(plan, one_car)
        assert executor._workers == []  # one shard: no worker was started
    assert canonical_bytes(deferred) == canonical_bytes(sequential)
    assert deferred_store.trajectory_ids() == inline_store.trajectory_ids()
    assert deferred_store.annotation_count() == inline_store.annotation_count() > 0
    for trajectory_id in inline_store.trajectory_ids():
        assert deferred_store.episodes_for(trajectory_id) == inline_store.episodes_for(
            trajectory_id
        )
    inline_store.close()
    deferred_store.close()
