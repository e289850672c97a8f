"""Canonical output is byte-identical across index backends.

The acceptance contract of the flat batch index: for every seed dataset the
pipeline's canonical bytes (:mod:`repro.parallel.canonical`) must agree
exactly across the full matrix ``index_backend = tree | flat`` x
``compute.backend = python | numpy`` x execution mode (sequential,
streaming, parallel).  The backend axis was established byte-identical in
the vectorized-parity suite; this suite pins the index axis and the cross
terms, so a flat-index result can never drift from the scalar-tree oracle
without a test going red.
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest

from repro.core import PipelineConfig, PipelineResult, SeMiTriPipeline
from repro.core.config import ComputeConfig, StreamingConfig, TrajectoryIdentificationConfig
from repro.api import annotate_many, stream
from repro.parallel import GeoContext, canonical_bytes
from repro.parallel.canonical import canonical_result

_MATRIX = [
    ("tree", "python"),
    ("tree", "numpy"),
    ("flat", "python"),
    ("flat", "numpy"),
]


def _with_backends(config: PipelineConfig, index_backend: str, backend: str) -> PipelineConfig:
    return dataclasses.replace(
        config, compute=ComputeConfig(backend=backend, index_backend=index_backend)
    )


def _dataset(name, taxi_dataset, car_dataset, people_dataset):
    return {
        "taxi": (taxi_dataset.trajectories, PipelineConfig.for_vehicles()),
        "car": (car_dataset.trajectories, PipelineConfig.for_vehicles()),
        "people": (people_dataset.all_trajectories, PipelineConfig.for_people()),
    }[name]


@pytest.mark.parametrize("dataset_name", ["taxi", "car", "people"])
def test_sequential_matrix_byte_identical(
    dataset_name, taxi_dataset, car_dataset, people_dataset, annotation_sources
):
    trajectories, base_config = _dataset(dataset_name, taxi_dataset, car_dataset, people_dataset)
    reference = None
    for index_backend, backend in _MATRIX:
        config = _with_backends(base_config, index_backend, backend)
        assert config.compute.resolved_index_backend == index_backend
        results = SeMiTriPipeline(config).annotate_many(trajectories, annotation_sources)
        rendered = canonical_bytes(results)
        if reference is None:
            reference = rendered
        else:
            assert rendered == reference, (
                f"{dataset_name}: index_backend={index_backend} backend={backend} "
                "diverged from the scalar-tree oracle"
            )


def _canonical_without_ids(results: List[PipelineResult]) -> List[dict]:
    """Streaming renumbers sealed trajectories; compare everything computed."""
    rendered = []
    for result in results:
        payload = canonical_result(result)
        payload.pop("trajectory_id")
        rendered.append(payload)
    return rendered


def _streaming_friendly(config: PipelineConfig) -> PipelineConfig:
    return dataclasses.replace(
        config,
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e15, max_distance_gap=1e15, min_points=1
        ),
        streaming=StreamingConfig(micro_batch_size=8, apply_cleaning=False),
    )


@pytest.mark.parametrize("index_backend", ["tree", "flat"])
def test_streaming_matches_sequential_per_index_backend(
    index_backend, people_dataset, annotation_sources
):
    trajectories = people_dataset.all_trajectories
    config = _streaming_friendly(
        _with_backends(PipelineConfig.for_people(), index_backend, "numpy")
    )
    sequential = SeMiTriPipeline(config).annotate_many(trajectories, annotation_sources)

    engine = stream(annotation_sources, config=config)
    streamed: List[PipelineResult] = []
    for trajectory in trajectories:
        for point in trajectory.points:
            streamed.extend(engine.ingest(trajectory.object_id, point))
        streamed.extend(engine.close_object(trajectory.object_id))
    assert _canonical_without_ids(streamed) == _canonical_without_ids(sequential)


@pytest.mark.parametrize("index_backend", ["tree", "flat"])
def test_parallel_matches_sequential_per_index_backend(
    index_backend, car_dataset, annotation_sources
):
    trajectories = car_dataset.trajectories
    config = _with_backends(PipelineConfig.for_vehicles(), index_backend, "numpy")
    sequential = SeMiTriPipeline(config).annotate_many(trajectories, annotation_sources)

    context = GeoContext.build(annotation_sources, config)
    parallel = annotate_many(trajectories, context=context, workers=2)
    assert canonical_bytes(parallel) == canonical_bytes(sequential)


def test_geocontext_precompiles_and_shares_flat_indexes(annotation_sources):
    """GeoContext compiles the flat indexes once at freeze time, reusably."""
    config = _with_backends(PipelineConfig.for_people(), "flat", "numpy")
    GeoContext.build(annotation_sources, config)
    # Compiled eagerly: the sources' cached instances exist and are stable.
    region_flat = annotation_sources.regions.flat_index()
    road_flat = annotation_sources.road_network.flat_index()
    poi_flat = annotation_sources.pois.flat_index()
    assert annotation_sources.regions.flat_index() is region_flat
    assert annotation_sources.road_network.flat_index() is road_flat
    assert annotation_sources.pois.flat_index() is poi_flat
    assert len(region_flat) == len(annotation_sources.regions)
    assert len(road_flat) == len(annotation_sources.road_network)
    assert len(poi_flat) == len(annotation_sources.pois)


def test_flat_index_pickles_for_spawn_workers(annotation_sources):
    """A compiled flat index survives pickling (spawn-based process pools)."""
    import pickle

    import numpy as np

    flat = annotation_sources.road_network.flat_index()
    clone = pickle.loads(pickle.dumps(flat))
    xs = np.array([3000.0, 4000.0])
    ys = np.array([3000.0, 4000.0])
    original = flat.within_distance_batch(xs, ys, 60.0)
    restored = clone.within_distance_batch(xs, ys, 60.0)
    assert original[0].tolist() == restored[0].tolist()
    assert original[1].tolist() == restored[1].tolist()
    assert original[2].tolist() == restored[2].tolist()
    assert [p.place_id for p in clone.payloads] == [p.place_id for p in flat.payloads]
