"""Online/batch parity: the streaming engine reproduces ``annotate_many`` exactly.

Every seed dataset is fed point-by-point through the streaming engine; the
sealed results must carry identical episode boundaries, matched segments and
annotations to the batch pipeline run on the same trajectories.  A second
suite checks the full-stream path (cleaning + gap identification) against
``ingest_stream`` + ``annotate_many``, including trajectory numbering and
store contents.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest

from repro.core import AnnotationSources, PipelineConfig, PipelineResult, SeMiTriPipeline
from repro.core.config import StreamingConfig, TrajectoryIdentificationConfig
from repro.core.points import SpatioTemporalPoint
from repro.store.store import SemanticTrajectoryStore
from repro.api import stream


def _annotation_signature(annotation):
    return (
        annotation.kind.value,
        getattr(annotation, "place_id", None),
        getattr(annotation, "category", None),
        getattr(annotation, "label", None),
        getattr(annotation, "value", None),
        annotation.confidence,
    )


def _episode_signature(episode):
    return (
        episode.kind.value,
        episode.start_index,
        episode.end_index,
        episode.time_in,
        episode.time_out,
        [_annotation_signature(a) for a in episode.annotations],
    )


def _structured_signature(structured):
    if structured is None:
        return None
    return [
        (
            record.place.place_id if record.place is not None else None,
            record.time_in,
            record.time_out,
            record.kind.value,
            [_annotation_signature(a) for a in record.annotations],
        )
        for record in structured
    ]


def _assert_results_match(batch: List[PipelineResult], streamed: List[PipelineResult]):
    assert len(batch) == len(streamed)
    for expected, got in zip(batch, streamed):
        assert len(expected.trajectory) == len(got.trajectory)
        assert [e for e in map(_episode_signature, expected.episodes)] == [
            e for e in map(_episode_signature, got.episodes)
        ]
        assert _structured_signature(expected.region_trajectory) == _structured_signature(
            got.region_trajectory
        )
        assert [_structured_signature(t) for t in expected.line_trajectories] == [
            _structured_signature(t) for t in got.line_trajectories
        ]
        assert _structured_signature(expected.point_trajectory) == _structured_signature(
            got.point_trajectory
        )
        assert expected.trajectory_category == got.trajectory_category


def _parity_config(base: PipelineConfig, micro_batch_size: int) -> PipelineConfig:
    """Batch ``annotate_many`` never splits or discards, so neutralise both."""
    return dataclasses.replace(
        base,
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e15, max_distance_gap=1e15, min_points=1
        ),
        streaming=StreamingConfig(micro_batch_size=micro_batch_size, apply_cleaning=False),
    )


def _run_engine(trajectories, sources, config) -> List[PipelineResult]:
    engine = stream(sources, config=config)
    results: List[PipelineResult] = []
    for trajectory in trajectories:
        for point in trajectory.points:
            results.extend(engine.ingest(trajectory.object_id, point))
        results.extend(engine.close_object(trajectory.object_id))
    results.extend(engine.flush())
    assert engine.stats.episodes_sealed > 0
    return results


@pytest.mark.parametrize("micro_batch_size", [8])
def test_taxi_dataset_parity(taxi_dataset, annotation_sources, micro_batch_size):
    config = _parity_config(PipelineConfig.for_vehicles(), micro_batch_size)
    batch = SeMiTriPipeline(config).annotate_many(taxi_dataset.trajectories, annotation_sources)
    streamed = _run_engine(taxi_dataset.trajectories, annotation_sources, config)
    _assert_results_match(batch, streamed)


@pytest.mark.parametrize("micro_batch_size", [1, 16])
def test_car_dataset_parity(car_dataset, annotation_sources, micro_batch_size):
    config = _parity_config(PipelineConfig.for_vehicles(), micro_batch_size)
    batch = SeMiTriPipeline(config).annotate_many(car_dataset.trajectories, annotation_sources)
    streamed = _run_engine(car_dataset.trajectories, annotation_sources, config)
    _assert_results_match(batch, streamed)


@pytest.mark.parametrize("micro_batch_size", [8])
def test_people_dataset_parity(people_dataset, annotation_sources, micro_batch_size):
    config = _parity_config(PipelineConfig.for_people(), micro_batch_size)
    trajectories = people_dataset.all_trajectories
    batch = SeMiTriPipeline(config).annotate_many(trajectories, annotation_sources)
    streamed = _run_engine(trajectories, annotation_sources, config)
    _assert_results_match(batch, streamed)


def test_interleaved_objects_parity(car_dataset, annotation_sources):
    """Events from different objects interleaved like a live feed."""
    config = _parity_config(PipelineConfig.for_vehicles(), micro_batch_size=32)
    trajectories = car_dataset.trajectories[:6]
    batch = SeMiTriPipeline(config).annotate_many(trajectories, annotation_sources)

    events = sorted(
        (
            (point.t, trajectory.object_id, point)
            for trajectory in trajectories
            for point in trajectory.points
        ),
        key=lambda item: item[0],
    )
    engine = stream(annotation_sources, config=config)
    results = engine.ingest_many((object_id, point) for _, object_id, point in events)
    results.extend(engine.close_all())

    # close_all seals in LRU order; re-align by trajectory identity.
    by_object = {r.trajectory.object_id: r for r in results}
    assert len(by_object) == len(trajectories)
    reordered = [by_object[t.object_id] for t in trajectories]
    _assert_results_match(batch, reordered)


def test_full_stream_parity_with_cleaning_and_gaps(annotation_sources):
    """Raw noisy stream: engine == ingest_stream + annotate_many, ids included."""
    rng = np.random.default_rng(17)
    points = []
    t = 0.0
    x, y = 3000.0, 3000.0
    for index in range(500):
        t += float(rng.uniform(5.0, 40.0))
        if index in (150, 320):
            t += 7200.0  # forces a trajectory split
        x += float(rng.normal(0.0, 25.0))
        y += float(rng.normal(0.0, 25.0))
        if rng.random() < 0.04:
            points.append(SpatioTemporalPoint(x + 40_000.0, y, t))  # outlier
        else:
            points.append(SpatioTemporalPoint(x, y, t))

    config = dataclasses.replace(
        PipelineConfig.for_people(),
        streaming=StreamingConfig(micro_batch_size=5, apply_cleaning=True),
    )
    pipeline = SeMiTriPipeline(config)
    raw_trajectories = pipeline.ingest_stream(points, object_id="u0")
    assert len(raw_trajectories) >= 2
    batch = pipeline.annotate_many(raw_trajectories, annotation_sources)

    engine = stream(annotation_sources, config=config)
    streamed: List[PipelineResult] = []
    for point in points:
        streamed.extend(engine.ingest("u0", point))
    streamed.extend(engine.close_all())

    assert [r.trajectory.trajectory_id for r in streamed] == [
        t.trajectory_id for t in raw_trajectories
    ]
    for expected, got in zip(raw_trajectories, streamed):
        assert [p.as_tuple() for p in expected.points] == [
            p.as_tuple() for p in got.trajectory.points
        ]
    _assert_results_match(batch, streamed)


def test_store_contents_match_batch(taxi_dataset, annotation_sources):
    """Persisted rows (trajectories, episodes, annotations) are identical."""
    config = _parity_config(PipelineConfig.for_vehicles(), micro_batch_size=8)

    batch_store = SemanticTrajectoryStore()
    SeMiTriPipeline(config, store=batch_store).annotate_many(
        taxi_dataset.trajectories, annotation_sources, persist=True
    )

    stream_store = SemanticTrajectoryStore()
    engine = stream(
        annotation_sources, config=config, store=stream_store, persist=True
    )
    for trajectory in taxi_dataset.trajectories:
        for point in trajectory.points:
            engine.ingest(trajectory.object_id, point)
        engine.close_object(trajectory.object_id)
    engine.flush()

    assert stream_store.stop_move_summary() == batch_store.stop_move_summary()
    assert stream_store.annotation_count() == batch_store.annotation_count()
    assert stream_store.category_histogram() == batch_store.category_histogram()
    # Trajectory ids differ (dataset naming vs session numbering); rows are
    # compared positionally.
    for batch_id, stream_id in zip(batch_store.trajectory_ids(), stream_store.trajectory_ids()):
        batch_episodes = batch_store.episodes_for(batch_id)
        stream_episodes = stream_store.episodes_for(stream_id)
        strip = lambda rows: [
            {k: v for k, v in row.items() if k not in ("episode_id",)} for row in rows
        ]
        assert strip(stream_episodes) == strip(batch_episodes)
        for batch_row, stream_row in zip(batch_episodes, stream_episodes):
            assert stream_store.annotations_for(
                stream_row["episode_id"]
            ) == batch_store.annotations_for(batch_row["episode_id"])
    batch_store.close()
    stream_store.close()


def test_latency_profile_uses_figure17_stage_names(taxi_dataset, annotation_sources):
    config = _parity_config(PipelineConfig.for_vehicles(), micro_batch_size=8)
    store = SemanticTrajectoryStore()
    engine = stream(
        annotation_sources, config=config, store=store, persist=True
    )
    trajectory = taxi_dataset.trajectories[0]
    for point in trajectory.points:
        engine.ingest(trajectory.object_id, point)
    results = engine.close_object(trajectory.object_id) + engine.flush()
    store.close()
    assert len(results) == 1
    stages = set(results[0].latency.stages())
    assert {
        "compute_episode",
        "store_episode",
        "landuse_join",
        "map_match",
        "poi_annotation",
        "store_match_result",
    } <= stages
