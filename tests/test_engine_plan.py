"""Stage-graph engine: plan compilation and executor parity.

The engine's promise is that one compiled :class:`Plan` means one behaviour:
the sequential, process-pool and micro-batch executors must produce
canonically byte-identical results for the same plan — including plans with
skipped layers (missing sources) and custom layer selections — and the
store contents must not depend on whether write-back ran inline or was
deferred to a merged transaction.
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest

from repro import api
from repro.core import AnnotationSources, PipelineConfig
from repro.core.config import StreamingConfig
from repro.core.errors import ConfigurationError
from repro.core.pipeline import PipelineResult
from repro.core.points import RawTrajectory
from repro.engine import stages as engine_stages
from repro.engine import (
    MicroBatchExecutor,
    Plan,
    ProcessPoolExecutor,
    SequentialExecutor,
)
from repro.parallel import GeoContext, canonical_bytes
from repro.store.store import SemanticTrajectoryStore

from test_parallel_parity import _random_multi_user_stream


def _stream_config(apply_cleaning: bool = False, micro_batch_size: int = 5) -> PipelineConfig:
    return dataclasses.replace(
        PipelineConfig.for_people(),
        streaming=StreamingConfig(
            micro_batch_size=micro_batch_size, apply_cleaning=apply_cleaning
        ),
    )


def _ingested(plan: Plan, seed: int, users: int = 2, points: int = 110) -> List[RawTrajectory]:
    streams = _random_multi_user_stream(seed, users=users, points_per_user=points)
    pipeline = api.open_pipeline(plan.config)
    trajectories: List[RawTrajectory] = []
    for object_id, stream in streams.items():
        trajectories.extend(pipeline.ingest_stream(stream, object_id=object_id))
    return trajectories


# ------------------------------------------------------------------ compiling
def test_plan_compiles_every_available_layer(annotation_sources):
    plan = Plan.compile(GeoContext(annotation_sources, PipelineConfig()))
    assert plan.stage_names() == [
        "compute_episode",
        "landuse_join",
        "map_match",
        "poi_annotation",
    ]
    assert [stage.name for stage in plan.preprocessing] == ["clean", "identify"]
    assert plan.annotation_layers() == ["region", "line", "point"]
    assert not plan.persist


def test_compiling_a_plan_builds_no_preprocessing_stage(annotation_sources, monkeypatch):
    """The raw-stream pair is built when ``plan.preprocessing`` is read, not per compile."""
    built = []
    monkeypatch.setattr(
        engine_stages.GpsCleaner, "__init__", lambda self, config: built.append(config)
    )
    plan = Plan.compile(GeoContext(annotation_sources, PipelineConfig()))
    assert built == []
    clean, identify = plan.preprocessing
    assert built == [plan.config.cleaning]
    assert (clean.name, identify.name) == ("clean", "identify")


def test_plan_with_persistence_compiles_store_stages(annotation_sources):
    store = SemanticTrajectoryStore()
    plan = Plan.compile(GeoContext(annotation_sources, PipelineConfig()), store=store, persist=True)
    assert plan.stage_names() == [
        "compute_episode",
        "store_episode",
        "landuse_join",
        "map_match",
        "poi_annotation",
        "store_match_result",
    ]
    assert plan.persist
    assert [stage.name for stage in plan.stages if stage.writes_back] == [
        "store_episode",
        "store_match_result",
    ]
    # persist without a store compiles no write-back at all
    bare = Plan.compile(GeoContext(annotation_sources, PipelineConfig()), persist=True)
    assert not bare.persist and "store_episode" not in bare.stage_names()
    store.close()


def test_plan_skips_layers_with_missing_sources(region_source):
    sources = AnnotationSources(regions=region_source)
    plan = Plan.compile(GeoContext(sources, PipelineConfig()))
    assert plan.stage_names() == ["compute_episode", "landuse_join"]
    assert plan.annotation_layers() == ["region"]


def test_plan_layer_selection(annotation_sources):
    plan = Plan.compile(GeoContext(annotation_sources, PipelineConfig()), layers=("region",))
    assert plan.stage_names() == ["compute_episode", "landuse_join"]
    with pytest.raises(ConfigurationError):
        Plan.compile(GeoContext(annotation_sources, PipelineConfig()), layers=("region", "lines"))


def test_compile_plan_requires_sources_or_a_context():
    with pytest.raises(ConfigurationError, match="needs geographic data"):
        api.compile_plan()


def test_plan_validate_rejects_unproduced_inputs(annotation_sources):
    plan = Plan.compile(GeoContext(annotation_sources, PipelineConfig()))
    # Move the episode producer behind its consumers: wiring check must fail.
    broken = dataclasses.replace(plan, stages=tuple(reversed(plan.stages)))
    with pytest.raises(ConfigurationError):
        broken.validate()


def test_plan_describe_renders_dataflow(annotation_sources):
    store = SemanticTrajectoryStore()
    plan = Plan.compile(GeoContext(annotation_sources, PipelineConfig()), store=store, persist=True)
    text = plan.describe()
    for name in plan.stage_names() + ["clean", "identify", "episodes", "[write-back]"]:
        assert name in text
    store.close()


def test_plan_holds_its_snapshot(annotation_sources):
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    plan = Plan.compile(context)
    assert plan.context is context
    assert plan.annotators is context.annotators
    assert plan.sources is annotation_sources
    assert plan.config == PipelineConfig.for_vehicles()
    assert context.with_config(context.config) is context


# ----------------------------------------------------------- executor parity
def _sorted_canonical(results) -> bytes:
    return canonical_bytes(sorted(results, key=lambda r: r.trajectory.trajectory_id))


def _run_all_three(plan: Plan, seed: int):
    """One random raw stream through all three executors of the same plan.

    The micro-batch executor consumes the *raw* interleaved event stream
    (its production contract) while the batch executors consume the
    ingested trajectories, so trajectory numbering — including fragments the
    identification step discards — lines up across all three.
    """
    streams = _random_multi_user_stream(seed, users=2, points_per_user=110)
    pipeline = api.open_pipeline(plan.config)
    trajectories: List[RawTrajectory] = []
    for object_id, stream in streams.items():
        trajectories.extend(pipeline.ingest_stream(stream, object_id=object_id))
    assert trajectories

    sequential = SequentialExecutor().run(plan, trajectories)
    with ProcessPoolExecutor(workers=2) as pool:
        parallel = pool.run(plan, trajectories)
    assert canonical_bytes(parallel) == canonical_bytes(sequential)

    events = sorted(
        ((point.t, object_id, point) for object_id, points in streams.items() for point in points),
        key=lambda event: (event[0], event[1]),
    )
    micro = MicroBatchExecutor(plan)
    streamed = micro.ingest_many((object_id, point) for _, object_id, point in events)
    streamed.extend(micro.close_all())
    assert _sorted_canonical(streamed) == _sorted_canonical(sequential)
    return sequential, parallel, streamed


@pytest.mark.parametrize("seed", [17, 29])
def test_three_executors_byte_identical(seed, annotation_sources):
    """Sequential, process-pool and micro-batch agree byte-for-byte."""
    plan = Plan.compile(GeoContext(annotation_sources, _stream_config(apply_cleaning=True)))
    _run_all_three(plan, seed)


@pytest.mark.parametrize("missing", ["regions", "road_network", "pois"])
def test_executors_agree_with_skipped_layers(missing, annotation_sources):
    """Parity holds for partial plans: each layer missing in turn."""
    sources = AnnotationSources(
        regions=None if missing == "regions" else annotation_sources.regions,
        road_network=None if missing == "road_network" else annotation_sources.road_network,
        pois=None if missing == "pois" else annotation_sources.pois,
    )
    plan = Plan.compile(GeoContext(sources, _stream_config(apply_cleaning=True)))
    assert len(plan.annotation_layers()) == 2
    _run_all_three(plan, seed=41)


def _replay(executor: MicroBatchExecutor, trajectories) -> List[PipelineResult]:
    """Each trajectory's points as events of its object, then the object closed."""
    results: List[PipelineResult] = []
    for trajectory in trajectories:
        object_id = trajectory.object_id
        results.extend(executor.ingest_many((object_id, point) for point in trajectory.points))
        results.extend(executor.close_object(object_id))
    results.extend(executor.flush())
    return results


def test_every_executor_emits_the_same_latency_vocabulary(annotation_sources):
    """Per-stage timing is emitted by the engine once, for every runtime."""
    from repro.core import SeMiTriPipeline

    store = SemanticTrajectoryStore()
    plan = Plan.compile(GeoContext(annotation_sources, _stream_config()), store=store, persist=True)
    trajectories = _ingested(plan, seed=53, users=1, points=90)
    expected_stages = {
        "compute_episode",
        "store_episode",
        "landuse_join",
        "map_match",
        "store_match_result",
    }

    sequential = SequentialExecutor().run(plan, trajectories)
    merged = SeMiTriPipeline.merge_latencies(sequential)
    assert expected_stages <= set(merged.stages())
    store_rows = store.trajectory_count()
    assert store_rows == len(trajectories)

    micro_store = SemanticTrajectoryStore()
    micro_plan = Plan.compile(
        GeoContext(annotation_sources, _stream_config()), store=micro_store, persist=True
    )
    micro = _replay(MicroBatchExecutor(micro_plan), trajectories)
    micro_merged = SeMiTriPipeline.merge_latencies(micro)
    assert expected_stages <= set(micro_merged.stages())
    assert micro_store.trajectory_count() == store_rows
    store.close()
    micro_store.close()


# ------------------------------------------------------------- store parity
def test_deferred_writeback_matches_inline_rows(annotation_sources):
    """Inline per-chunk commits and the pool's merged deferred transaction
    leave the store byte-for-byte identical (ids included)."""
    config = _stream_config()
    inline_store = SemanticTrajectoryStore()
    inline_plan = Plan.compile(
        GeoContext(annotation_sources, config), store=inline_store, persist=True
    )
    trajectories = _ingested(inline_plan, seed=67)
    SequentialExecutor().run(inline_plan, trajectories)

    deferred_store = SemanticTrajectoryStore()
    deferred_plan = Plan.compile(
        GeoContext(annotation_sources, config), store=deferred_store, persist=True
    )
    with ProcessPoolExecutor(workers=2) as pool:
        pool.run(deferred_plan, trajectories)

    assert deferred_store.trajectory_ids() == inline_store.trajectory_ids()
    assert deferred_store.stop_move_summary() == inline_store.stop_move_summary()
    assert deferred_store.annotation_count() == inline_store.annotation_count()
    for trajectory_id in inline_store.trajectory_ids():
        assert deferred_store.episodes_for(trajectory_id) == inline_store.episodes_for(
            trajectory_id
        )
    inline_store.close()
    deferred_store.close()


def test_inline_writeback_rolls_back_a_failed_trajectory(annotation_sources):
    """A mid-trajectory store failure persists nothing for that trajectory."""
    config = _stream_config()
    store = SemanticTrajectoryStore()
    plan = Plan.compile(GeoContext(annotation_sources, config), store=store, persist=True)
    trajectories = _ingested(plan, seed=79, users=1, points=80)
    executor = SequentialExecutor()
    executor.run(plan, trajectories[:1])
    count_after_first = store.trajectory_count()
    episodes_after_first = store.episode_count()
    assert count_after_first == 1
    # Re-persisting the same trajectory fails on the duplicate id; the whole
    # per-trajectory transaction must roll back, leaving the store unchanged.
    from repro.core.errors import StoreError

    with pytest.raises(StoreError):
        executor.run(plan, trajectories[:1])
    assert store.trajectory_count() == count_after_first
    assert store.episode_count() == episodes_after_first
    store.close()


def test_swallowed_per_trajectory_failure_undoes_only_its_own_scope(annotation_sources):
    """A failed write-back scope inside a caller's scope undoes only its own rows.

    The engine wraps each chunk's write-back in its own store scope, a
    savepoint; when a caller additionally wraps the batch in ``with store:``
    and swallows a per-trajectory error, the failed chunk's rows are gone (its
    innocent trajectory, re-run alone, is stored once) and the caller's other
    writes commit with the outer scope.
    """
    from repro.core.errors import StoreError

    config = _stream_config()
    store = SemanticTrajectoryStore()
    plan = Plan.compile(GeoContext(annotation_sources, config), store=store, persist=True)
    trajectories = _ingested(plan, seed=79, users=1, points=80)
    assert len(trajectories) >= 2
    executor = SequentialExecutor()
    executor.run(plan, trajectories[:1])
    episodes_after_first = store.episode_count()
    with store:
        with pytest.raises(StoreError, match="already stored"):
            # One chunk: the second trajectory's rows go in, then the
            # duplicate fails the chunk's scope.
            executor.run(plan, [trajectories[1], trajectories[0]])
    assert store.trajectory_ids() == sorted(t.trajectory_id for t in trajectories[:2])
    assert len(store.episodes_for(trajectories[0].trajectory_id)) == episodes_after_first
    assert store.episodes_for(trajectories[1].trajectory_id)
    assert store.check_invariants() == []
    store.close()


def test_pipeline_pairs_a_snapshot_with_its_config(annotation_sources, car_dataset):
    """The batch pipeline runs a snapshot under another config, by the one rule."""
    batch = car_dataset.trajectories[:4]
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    other = context.config.with_overrides({"stop_move.min_stop_duration": 1200.0})
    assert canonical_bytes(api.annotate_many(batch, config=other, context=context)) == (
        canonical_bytes(api.annotate_many(batch, annotation_sources, other))
    )
    with pytest.raises(ConfigurationError, match="map_matching"):
        api.annotate_many(batch, config=PipelineConfig.for_people(), context=context)
