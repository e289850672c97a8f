"""Backend parity: the numpy compute backend reproduces the scalar oracle.

For every seed dataset the pipeline runs once with
``compute.backend="python"`` (the scalar reference) and once with
``compute.backend="numpy"`` (the vectorized kernels), across all three
execution modes — sequential ``annotate_many``, the streaming engine and the
parallel runner.  The canonical bytes of :mod:`repro.parallel.canonical`
must agree **exactly**: the flag/distance kernels are bit-equal by
construction, the ``exp``-dependent kernels only feed discrete decisions
(matched segment ids, decoded categories), and both held on every seed
dataset when this suite was written.  Any future divergence is a real
regression, not float noise.
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest

from repro.core import AnnotationSources, PipelineConfig, PipelineResult, SeMiTriPipeline
from repro.core.config import (
    ComputeConfig,
    StopMoveConfig,
    StreamingConfig,
    TrajectoryIdentificationConfig,
)
from repro.core.errors import ConfigurationError
from repro.api import annotate_many, stream
from repro.parallel import canonical_bytes
from repro.parallel.canonical import canonical_result


def _canonical_without_ids(results: List[PipelineResult]) -> List[dict]:
    """Canonical form minus trajectory ids.

    The streaming engine numbers sealed trajectories per object
    (``<object>-t0`` …) instead of keeping the input ids, so the
    streaming-vs-batch comparison — like the pre-existing online/batch parity
    suite — is on everything *computed*: points, episodes and annotations.
    """
    rendered = []
    for result in results:
        payload = canonical_result(result)
        payload.pop("trajectory_id")
        rendered.append(payload)
    return rendered


def _with_backend(config: PipelineConfig, backend: str) -> PipelineConfig:
    return dataclasses.replace(config, compute=ComputeConfig(backend=backend))


def _streaming_friendly(config: PipelineConfig) -> PipelineConfig:
    """Neutralise splitting/discarding so batch and engine see the same work."""
    return dataclasses.replace(
        config,
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e15, max_distance_gap=1e15, min_points=1
        ),
        streaming=StreamingConfig(micro_batch_size=8, apply_cleaning=False),
    )


def _dataset(name, taxi_dataset, car_dataset, people_dataset):
    return {
        "taxi": (taxi_dataset.trajectories, PipelineConfig.for_vehicles()),
        "car": (car_dataset.trajectories, PipelineConfig.for_vehicles()),
        "people": (people_dataset.all_trajectories, PipelineConfig.for_people()),
    }[name]


def _run_engine(trajectories, sources, config) -> List[PipelineResult]:
    engine = stream(sources, config=config)
    results: List[PipelineResult] = []
    for trajectory in trajectories:
        for point in trajectory.points:
            results.extend(engine.ingest(trajectory.object_id, point))
        results.extend(engine.close_object(trajectory.object_id))
    return results


@pytest.mark.parametrize("dataset_name", ["taxi", "car", "people"])
def test_sequential_backend_parity(
    dataset_name, taxi_dataset, car_dataset, people_dataset, annotation_sources
):
    """annotate_many: numpy backend is byte-identical to the scalar oracle."""
    trajectories, base = _dataset(dataset_name, taxi_dataset, car_dataset, people_dataset)
    scalar = SeMiTriPipeline(_with_backend(base, "python")).annotate_many(
        trajectories, annotation_sources
    )
    vectorized = SeMiTriPipeline(_with_backend(base, "numpy")).annotate_many(
        trajectories, annotation_sources
    )
    assert canonical_bytes(vectorized) == canonical_bytes(scalar)


@pytest.mark.parametrize("policy", ["velocity", "density", "hybrid"])
def test_sequential_backend_parity_all_stop_policies(policy, car_dataset, annotation_sources):
    """Every stop policy's flag kernels agree across backends."""
    base = dataclasses.replace(
        PipelineConfig.for_vehicles(),
        stop_move=StopMoveConfig(
            policy=policy, speed_threshold=1.5, min_stop_duration=150.0, density_radius=60.0
        ),
    )
    scalar = SeMiTriPipeline(_with_backend(base, "python")).annotate_many(
        car_dataset.trajectories, annotation_sources
    )
    vectorized = SeMiTriPipeline(_with_backend(base, "numpy")).annotate_many(
        car_dataset.trajectories, annotation_sources
    )
    assert canonical_bytes(vectorized) == canonical_bytes(scalar)


@pytest.mark.parametrize("dataset_name", ["taxi", "car", "people"])
def test_streaming_backend_parity(
    dataset_name, taxi_dataset, car_dataset, people_dataset, annotation_sources
):
    """The numpy streaming engine equals the scalar sequential reference."""
    trajectories, base = _dataset(dataset_name, taxi_dataset, car_dataset, people_dataset)
    scalar_config = _streaming_friendly(_with_backend(base, "python"))
    numpy_config = _streaming_friendly(_with_backend(base, "numpy"))
    scalar = SeMiTriPipeline(scalar_config).annotate_many(trajectories, annotation_sources)
    streamed = _run_engine(trajectories, annotation_sources, numpy_config)
    assert _canonical_without_ids(streamed) == _canonical_without_ids(scalar)


@pytest.mark.parametrize("dataset_name", ["taxi", "car", "people"])
def test_parallel_backend_parity(
    dataset_name, taxi_dataset, car_dataset, people_dataset, annotation_sources
):
    """The numpy parallel runner equals the scalar sequential reference."""
    trajectories, base = _dataset(dataset_name, taxi_dataset, car_dataset, people_dataset)
    scalar = SeMiTriPipeline(_with_backend(base, "python")).annotate_many(
        trajectories, annotation_sources
    )
    parallel = annotate_many(
        trajectories, annotation_sources, config=_with_backend(base, "numpy"), workers=2
    )
    assert canonical_bytes(parallel) == canonical_bytes(scalar)


def test_python_backend_is_selectable_end_to_end(car_dataset, annotation_sources):
    """The scalar oracle stays a first-class backend (not just a test prop)."""
    config = _with_backend(PipelineConfig.for_vehicles(), "python")
    pipeline = SeMiTriPipeline(config)
    results = pipeline.annotate_many(car_dataset.trajectories, annotation_sources)
    assert results and all(result.episodes for result in results)


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        ComputeConfig(backend="fortran")
