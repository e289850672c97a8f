"""Property-based parity: sequential, streaming and parallel runs agree.

Hand-rolled hypothesis-style generator: every seed produces a random noisy
multi-user GPS stream (random walks with low-speed dwell clusters, occasional
teleport outliers and long gaps).  For each generated stream the three
execution modes must produce identical episodes, annotations and store rows:

* sequential :meth:`SeMiTriPipeline.annotate_many`,
* the streaming executor of :func:`repro.api.stream` fed the raw events
  interleaved by timestamp (with online cleaning), and
* :func:`repro.api.annotate_many` with ``workers=SEMITRI_TEST_WORKERS`` (1
  runs the sequential executor, anything else the process pool — CI pins
  both) plus, on every seed, the in-process deferred-write-back executor,
  which commits in the pool's shape.

Equality is asserted on the canonical bytes of
:mod:`repro.parallel.canonical`, the same definition the acceptance criteria
use.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List

import numpy as np
import pytest

from repro import api
from repro.core import AnnotationSources, PipelineConfig, PipelineResult, SeMiTriPipeline
from repro.core.config import StreamingConfig, TrajectoryIdentificationConfig
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine import ProcessPoolExecutor, SequentialExecutor
from repro.parallel import GeoContext, canonical_bytes
from repro.store.store import SemanticTrajectoryStore


TEST_WORKERS = int(os.environ.get("SEMITRI_TEST_WORKERS", "2"))


def _random_multi_user_stream(seed: int, users: int = 3, points_per_user: int = 140):
    """Per-user noisy GPS streams: walks, dwell clusters, outliers, gaps."""
    rng = np.random.default_rng(seed)
    streams: Dict[str, List[SpatioTemporalPoint]] = {}
    for user in range(users):
        object_id = f"u{seed}-{user}"
        points: List[SpatioTemporalPoint] = []
        t = float(rng.uniform(0.0, 300.0))
        x = float(rng.uniform(1500.0, 4500.0))
        y = float(rng.uniform(1500.0, 4500.0))
        dwell_left = 0
        for index in range(points_per_user):
            t += float(rng.uniform(10.0, 35.0))
            if dwell_left > 0:
                dwell_left -= 1
                x += float(rng.normal(0.0, 1.5))
                y += float(rng.normal(0.0, 1.5))
            else:
                if rng.random() < 0.06:
                    dwell_left = int(rng.integers(8, 20))  # a stop-like cluster
                x += float(rng.normal(0.0, 30.0))
                y += float(rng.normal(0.0, 30.0))
            if rng.random() < 0.02:
                t += float(rng.uniform(4000.0, 9000.0))  # long gap: trajectory split
            if rng.random() < 0.03:
                points.append(SpatioTemporalPoint(x + 50_000.0, y, t))  # outlier fix
            else:
                points.append(SpatioTemporalPoint(x, y, t))
        streams[object_id] = points
    return streams


def _property_config(micro_batch_size: int = 7) -> PipelineConfig:
    return dataclasses.replace(
        PipelineConfig.for_people(),
        streaming=StreamingConfig(micro_batch_size=micro_batch_size, apply_cleaning=True),
    )


def _batch_reference(streams, sources, config):
    """Sequential reference: ingest_stream + annotate_many per user."""
    pipeline = SeMiTriPipeline(config)
    trajectories: List[RawTrajectory] = []
    for object_id, points in streams.items():
        trajectories.extend(pipeline.ingest_stream(points, object_id=object_id))
    results = pipeline.annotate_many(trajectories, sources)
    return trajectories, results


def _sorted_canonical(results: List[PipelineResult]) -> bytes:
    ordered = sorted(results, key=lambda r: r.trajectory.trajectory_id)
    return canonical_bytes(ordered)


@pytest.mark.parametrize("dataset_name", ["taxi", "car", "people"])
def test_seed_datasets_byte_identical(
    dataset_name, taxi_dataset, car_dataset, people_dataset, annotation_sources
):
    """Batch output is byte-identical to sequential on every seed dataset."""
    config = (
        PipelineConfig.for_people() if dataset_name == "people" else PipelineConfig.for_vehicles()
    )
    trajectories = {
        "taxi": taxi_dataset.trajectories,
        "car": car_dataset.trajectories,
        "people": people_dataset.all_trajectories,
    }[dataset_name]
    sequential = SeMiTriPipeline(config).annotate_many(trajectories, annotation_sources)
    assert canonical_bytes(
        api.annotate_many(trajectories, annotation_sources, config=config, workers=TEST_WORKERS)
    ) == canonical_bytes(sequential)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_sequential_streaming_parallel_agree(seed, annotation_sources):
    config = _property_config()
    streams = _random_multi_user_stream(seed)
    trajectories, sequential = _batch_reference(streams, annotation_sources, config)
    assert len(trajectories) >= len(streams)  # gaps should have split at least sometimes

    # Streaming: raw events interleaved by timestamp across users.
    events = sorted(
        ((point.t, object_id, point) for object_id, points in streams.items() for point in points),
        key=lambda event: (event[0], event[1]),
    )
    engine = api.stream(annotation_sources, config=config)
    streamed = engine.ingest_many((object_id, point) for _, object_id, point in events)
    streamed.extend(engine.close_all())
    assert _sorted_canonical(streamed) == _sorted_canonical(sequential)

    # Batch API: byte-identical in input order at the configured worker count,
    # and through the frozen snapshot with deferred write-back in process.
    parallel = api.annotate_many(
        trajectories, annotation_sources, config=config, workers=TEST_WORKERS
    )
    assert canonical_bytes(parallel) == canonical_bytes(sequential)
    plan = api.compile_plan(context=GeoContext.build(annotation_sources, config))
    deferred = SequentialExecutor(deferred_writeback=True).run(plan, trajectories)
    assert canonical_bytes(deferred) == canonical_bytes(sequential)


@pytest.mark.parametrize("seed", [404])
def test_process_pool_matches_sequential(seed, annotation_sources):
    """The real process pool (pickled/forked snapshot) agrees byte-for-byte."""
    config = _property_config()
    streams = _random_multi_user_stream(seed, users=2, points_per_user=90)
    trajectories, sequential = _batch_reference(streams, annotation_sources, config)

    plan = api.compile_plan(context=GeoContext.build(annotation_sources, config))
    with ProcessPoolExecutor(workers=max(2, TEST_WORKERS)) as executor:
        parallel = executor.run(plan, trajectories)
        pool = executor._pool
        # Second call reuses the warm pool and snapshot.
        again = executor.run(plan, trajectories)
        assert pool is not None and executor._pool is pool
    assert canonical_bytes(parallel) == canonical_bytes(sequential)
    assert canonical_bytes(again) == canonical_bytes(sequential)


@pytest.mark.parametrize("seed", [505])
def test_persisted_rows_identical_across_modes(seed, annotation_sources):
    """Store rows from the deferred batch commit equal a single-writer sequential run."""
    config = _property_config()
    streams = _random_multi_user_stream(seed, users=2, points_per_user=110)
    pipeline_store = SemanticTrajectoryStore()
    pipeline = SeMiTriPipeline(config, store=pipeline_store)
    trajectories: List[RawTrajectory] = []
    for object_id, points in streams.items():
        trajectories.extend(pipeline.ingest_stream(points, object_id=object_id))
    pipeline.annotate_many(trajectories, annotation_sources, persist=True)

    runner_store = SemanticTrajectoryStore()
    if TEST_WORKERS == 1:
        # The pool's commit shape (one merged transaction), in process.
        plan = api.compile_plan(
            annotation_sources, config, store=runner_store, persist=True
        )
        SequentialExecutor(deferred_writeback=True).run(plan, trajectories)
    else:
        api.annotate_many(
            trajectories,
            annotation_sources,
            config=config,
            workers=TEST_WORKERS,
            store=runner_store,
            persist=True,
        )

    assert runner_store.stop_move_summary() == pipeline_store.stop_move_summary()
    assert runner_store.annotation_count() == pipeline_store.annotation_count()
    assert runner_store.category_histogram() == pipeline_store.category_histogram()
    assert runner_store.trajectory_ids() == pipeline_store.trajectory_ids()
    for trajectory_id in pipeline_store.trajectory_ids():
        sequential_rows = pipeline_store.episodes_for(trajectory_id)
        parallel_rows = runner_store.episodes_for(trajectory_id)
        assert parallel_rows == sequential_rows  # episode ids included
        for row in sequential_rows:
            assert runner_store.annotations_for(row["episode_id"]) == (
                pipeline_store.annotations_for(row["episode_id"])
            )
    pipeline_store.close()
    runner_store.close()
