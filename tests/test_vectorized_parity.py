"""Reference parity: every executor reproduces the one reference configuration.

The product has one implementation per kernel; where that is an array kernel
or a batch index query, the per-point form it must reproduce is the oracle.
The **reference configuration** puts all of them together, through the seam
that exists for it (``annotate_many(..., annotators=LayerAnnotators(...))``):

* map matching by :class:`repro.reference.ScalarMapMatcher` — one R-tree query
  and one dict-based score aggregation per GPS point;
* region lookups as one walk of :class:`repro.reference.RTree` per position,
  whatever the group size;
* POI neighbour sets fetched from :class:`repro.reference.GridIndex` per grid
  cell on first use, no batch priming.

None of the three touches the sources' flat indexes, which is the point: the
product's index is held to the tree and the grid through the whole pipeline.

For every seed dataset the product — sequential, streaming and on a 2-worker
pool — must give the reference configuration's canonical bytes
(:mod:`repro.parallel.canonical`) **exactly**, and so must every stop policy.
The preprocessing kernels have no annotator seam, so they are compared kernel
by kernel on every seed trajectory: the column median smoother against the
per-point loop, the speed-column velocity flags and the whole segmentation
against :mod:`repro.reference.stops`.

(The test names predate the removal of ``PipelineConfig.compute``: the
"backend" they mention is the oracle side of each comparison.)
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest

from repro.api import annotate_many, stream
from repro.core import AnnotationSources, PipelineConfig, PipelineResult, SeMiTriPipeline
from repro.core.config import (
    CleaningConfig,
    StopMoveConfig,
    StreamingConfig,
    TrajectoryIdentificationConfig,
)
from repro.core.pipeline import LayerAnnotators
from repro.geometry.primitives import Point
from repro.lines.annotator import LineAnnotator
from repro.parallel import canonical_bytes
from repro.parallel.canonical import canonical_result
from repro.points.annotator import PointAnnotator
from repro.points.observation import PoiObservationModel
from repro.points.poi import PoiSource
from repro.preprocessing.cleaning import GpsCleaner
from repro.preprocessing.stops import StopMoveDetector, velocity_stop_flags_arrays
from repro.reference import (
    GridIndex,
    RTree,
    RTreeEntry,
    ScalarMapMatcher,
    ScalarStopMoveDetector,
    smooth_per_point,
    velocity_stop_flags,
)
from repro.regions.annotator import RegionAnnotator


# ------------------------------------------------- the reference configuration
class _TreeRegionSource:
    """What ``RegionAnnotator`` asks of its source (``contains`` join), answered by the R-tree."""

    def __init__(self, regions):
        self._tree = RTree.bulk_load(
            RTreeEntry(box=region.bounding_box(), item=region) for region in regions
        )

    def first_regions_containing_columns(self, xs, ys):
        found = []
        for point in map(Point, xs, ys):
            matches = [
                entry.item for entry in self._tree.query_point(point) if entry.item.contains(point)
            ]
            found.append(
                min(matches, key=lambda region: (region.area, region.place_id))
                if matches
                else None
            )
        return found


class _GridPoiSource(PoiSource):
    """A ``PoiSource`` whose neighbour lookups walk the oracle hash grid."""

    def __init__(self, pois):
        super().__init__(pois)
        self._grid = GridIndex(cell_size=100.0)
        self._grid.insert_many((poi.location, poi) for poi in pois)

    def pois_within(self, center, radius):
        return [(d, poi) for d, _, poi in self._grid.query_radius(center, radius)]

    def bounds(self):
        return self._grid.bounds()


class _ScalarLineAnnotator(LineAnnotator):
    def __init__(self, network, matching_config, transport_config):
        super().__init__(network, matching_config, transport_config)
        self._matcher = ScalarMapMatcher(network, matching_config)


class _LazyObservationModel(PoiObservationModel):
    def prime(self, points):
        return 0  # every cell's neighbours come from its own grid walk on first use


class _LazyPointAnnotator(PointAnnotator):
    def __init__(self, source, config):
        super().__init__(source, config)
        self._observation_model = _LazyObservationModel(source, config)


def _reference(
    trajectories, sources: AnnotationSources, config: PipelineConfig
) -> List[PipelineResult]:
    annotators = LayerAnnotators(
        region=RegionAnnotator(_TreeRegionSource(sources.regions.regions), config.region),
        line=_ScalarLineAnnotator(sources.road_network, config.map_matching, config.transport),
        point=_LazyPointAnnotator(_GridPoiSource(sources.pois.pois), config.point),
    )
    return SeMiTriPipeline(config).annotate_many(trajectories, sources, annotators=annotators)


def _canonical_without_ids(results: List[PipelineResult]) -> List[dict]:
    """Canonical form minus trajectory ids.

    The streaming engine numbers sealed trajectories per object
    (``<object>-t0`` …) instead of keeping the input ids, so the
    streaming-vs-batch comparison — like the online/batch parity suite — is
    on everything *computed*: points, episodes and annotations.
    """
    rendered = []
    for result in results:
        payload = canonical_result(result)
        payload.pop("trajectory_id")
        rendered.append(payload)
    return rendered


def _streaming_friendly(config: PipelineConfig) -> PipelineConfig:
    """Neutralise splitting/discarding so batch and engine see the same work."""
    return dataclasses.replace(
        config,
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e15, max_distance_gap=1e15, min_points=1
        ),
        streaming=StreamingConfig(micro_batch_size=8, apply_cleaning=False),
    )


@pytest.fixture(params=["taxi", "car", "people"])
def dataset(request, taxi_dataset, car_dataset, people_dataset):
    return {
        "taxi": (taxi_dataset.trajectories, PipelineConfig.for_vehicles()),
        "car": (car_dataset.trajectories, PipelineConfig.for_vehicles()),
        "people": (people_dataset.all_trajectories, PipelineConfig.for_people()),
    }[request.param]


# ------------------------------------------------------------------- executors
def test_sequential_backend_parity(dataset, annotation_sources):
    """Sequential ``annotate_many`` is byte-identical to the reference configuration."""
    trajectories, config = dataset
    product = SeMiTriPipeline(config).annotate_many(trajectories, annotation_sources)
    assert canonical_bytes(product) == canonical_bytes(
        _reference(trajectories, annotation_sources, config)
    )


@pytest.mark.parametrize("policy", ["velocity", "density", "hybrid"])
def test_sequential_backend_parity_all_stop_policies(policy, car_dataset, annotation_sources):
    """So it is under every stop policy."""
    config = dataclasses.replace(
        PipelineConfig.for_vehicles(),
        stop_move=StopMoveConfig(
            policy=policy, speed_threshold=1.5, min_stop_duration=150.0, density_radius=60.0
        ),
    )
    trajectories = car_dataset.trajectories
    product = SeMiTriPipeline(config).annotate_many(trajectories, annotation_sources)
    assert canonical_bytes(product) == canonical_bytes(
        _reference(trajectories, annotation_sources, config)
    )


def test_streaming_backend_parity(dataset, annotation_sources):
    """The streaming engine, fed fix by fix, equals the sequential reference."""
    trajectories, base = dataset
    config = _streaming_friendly(base)
    engine = stream(annotation_sources, config=config)
    streamed: List[PipelineResult] = []
    for trajectory in trajectories:
        for point in trajectory.points:
            streamed.extend(engine.ingest(trajectory.object_id, point))
        streamed.extend(engine.close_object(trajectory.object_id))
    streamed.extend(engine.flush())
    assert _canonical_without_ids(streamed) == _canonical_without_ids(
        _reference(trajectories, annotation_sources, config)
    )


def test_parallel_backend_parity(dataset, annotation_sources):
    """A 2-worker pool equals the sequential reference."""
    trajectories, config = dataset
    parallel = annotate_many(trajectories, annotation_sources, config=config, workers=2)
    assert canonical_bytes(parallel) == canonical_bytes(
        _reference(trajectories, annotation_sources, config)
    )


# --------------------------------------------------------- preprocessing kernels
def _triples(points):
    """Each fix as the reprs of its numbers: ``-0.0`` differs from ``0.0``."""
    return [(repr(point.x), repr(point.y), repr(point.t)) for point in points]


@pytest.mark.parametrize("window", [3, 5, 7])
def test_median_smoothing_equals_the_per_point_loop_on_every_seed_trajectory(
    window, taxi_dataset, car_dataset, people_dataset
):
    cleaner = GpsCleaner(CleaningConfig(smoothing_window=window, smoothing_method="median"))
    for trajectories in (
        taxi_dataset.trajectories,
        car_dataset.trajectories,
        people_dataset.all_trajectories,
    ):
        for trajectory in trajectories:
            points = trajectory.points
            assert _triples(cleaner.smooth(points)) == _triples(
                smooth_per_point(points, window, "median")
            )


@pytest.mark.parametrize("policy", ["velocity", "density", "hybrid"])
def test_segmentation_equals_the_reference_on_every_seed_trajectory(policy, dataset):
    trajectories, config = dataset
    stop_move = dataclasses.replace(config.stop_move, policy=policy)
    product, reference = StopMoveDetector(stop_move), ScalarStopMoveDetector(stop_move)
    for trajectory in trajectories:
        assert velocity_stop_flags_arrays(
            trajectory.xs, trajectory.ys, trajectory.ts, stop_move.speed_threshold
        ) == velocity_stop_flags(trajectory.points, stop_move.speed_threshold)
        assert [
            (episode.kind, episode.start_index, episode.end_index)
            for episode in product.segment(trajectory)
        ] == [
            (episode.kind, episode.start_index, episode.end_index)
            for episode in reference.segment(trajectory)
        ]
