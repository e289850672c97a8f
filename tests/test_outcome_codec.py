"""The result codec: what crosses a process boundary on its way back.

``dump_outcome`` / ``load_outcome`` (``repro.parallel.context``) carry the
batch pool's outcomes and the process shard's acks.  Both ends hold the same
``GeoContext``, so a region, road segment or POI of the snapshot travels as
its position in ``GeoContext.places()`` plus its ``place_id``, and the
receiver hands back its own object; a pool shard's input trajectories travel
as their input order.  These tests pin the round trip on the benchmark fleet
(seed 1, quick size), the by-value fallback, the refusal of a reference the
receiver's snapshot does not match, and both process boundaries under fork
and spawn against the sequential pipeline — canonical bytes, store rows and
object identity of every linked place.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import multiprocessing
import pickle
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro import api
from repro.core import PipelineConfig
from repro.core.errors import SemitriError
from repro.core.pipeline import AnnotationSources, PipelineResult
from repro.core.places import RegionOfInterest, SemanticPlace
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine import ProcessPoolExecutor, SequentialExecutor, executors
from repro.parallel import GeoContext, canonical_bytes, canonical_digest
from repro.parallel.context import dump_outcome, load_outcome
from repro.regions.sources import RegionSource
from repro.service import AnnotationService, workers
from repro.store.store import SemanticTrajectoryStore

START_METHODS = ["fork", "spawn"]


class _Campus(RegionOfInterest):
    """A subclass instance: the codec references exact place types only."""


class _CollectorState:
    """Loads as whether the cyclic collector was running at that moment."""

    def __reduce__(self):
        return gc.isenabled, ()


@pytest.fixture(scope="module")
def fleet():
    """The benchmark's fleet, seed 1, at its quick size (~2,500 events)."""
    from bench.fleet import QUICK, generate

    return generate(1, QUICK)


@pytest.fixture(scope="module")
def context(fleet) -> GeoContext:
    """The benchmark's map as a snapshot; two process shards when served."""
    from bench.fleet import build_context

    config = PipelineConfig.for_vehicles().with_overrides(
        {
            "streaming.micro_batch_size": 64,
            "streaming.apply_cleaning": True,
            "service.shards": 2,
            "service.transport": "process",
        }
    )
    return build_context(fleet, config)


def _twin(context: GeoContext) -> GeoContext:
    """What a spawned worker holds: the pickle ``multiprocessing`` makes of it."""
    return pickle.loads(pickle.dumps(context, pickle.HIGHEST_PROTOCOL))


def _sequential(
    context: GeoContext, fleet, store: Optional[SemanticTrajectoryStore] = None
) -> Tuple[List[RawTrajectory], List[PipelineResult]]:
    pipeline = api.open_pipeline(context.config)
    raws = [
        raw
        for object_id in fleet.order
        for raw in pipeline.ingest_stream(fleet.streams[object_id], object_id=object_id)
    ]
    results = api.annotate_many(raws, context=context, store=store, persist=store is not None)
    return raws, results


def _drain(
    context: GeoContext, fleet, store: Optional[SemanticTrajectoryStore] = None
) -> Tuple[AnnotationService, List[PipelineResult]]:
    service = AnnotationService(context, store=store, persist=store is not None)

    async def run() -> List[PipelineResult]:
        async with service:
            for object_id, point in fleet.ops:
                if point is None:
                    await service.close_object(object_id)
                else:
                    await service.ingest(object_id, point)
            return await service.drain()

    return service, asyncio.run(run())


def _digests(results: List[PipelineResult]) -> Dict[str, str]:
    return {result.trajectory.trajectory_id: canonical_digest([result]) for result in results}


def _store_rows(store: SemanticTrajectoryStore) -> Dict[str, object]:
    """Every stored row, keyed by trajectory, without autoincrement ids."""
    rows: Dict[str, object] = {}
    for trajectory_id in store.trajectory_ids():
        points = [(p.x, p.y, p.t) for p in store.load_trajectory(trajectory_id).points]
        episodes = []
        for episode in store.episodes_for(trajectory_id):
            episode_id = episode.pop("episode_id")
            episodes.append((episode, store.annotations_for(episode_id)))  # type: ignore[arg-type]
        rows[trajectory_id] = (points, episodes)
    return rows


def _linked_places(results: List[PipelineResult]) -> Iterator[SemanticPlace]:
    """The place of every annotation and every structured-trajectory record."""
    for result in results:
        for episode in result.episodes:
            for annotation in episode.annotations:
                place = getattr(annotation, "place", None)
                if place is not None:
                    yield place
        structured = [result.region_trajectory, result.point_trajectory]
        for trajectory in structured + list(result.line_trajectories):
            for record in trajectory or ():
                if record.place is not None:
                    yield record.place


def _assert_snapshot_places(results: List[PipelineResult], context: GeoContext) -> None:
    held = {id(place) for place in context.places()}
    linked = list(_linked_places(results))
    assert len(linked) > len(results)  # the fleet does link places
    assert all(id(place) in held for place in linked)


# ------------------------------------------------------------------ round trip
def test_places_are_regions_then_segments_then_pois(context):
    sources = context.sources
    expected = sources.regions.regions + sources.road_network.segments + sources.pois.pois
    assert list(context.places()) == expected
    assert all(a is b for a, b in zip(context.places(), expected))
    assert context.places() is context.places()  # computed once
    # A pickled snapshot computes its own, in the same order.
    twin = _twin(context)
    assert [p.place_id for p in twin.places()] == [p.place_id for p in expected]


def test_stream_results_round_trip_onto_the_receivers_snapshot(fleet, context):
    engine = api.stream(context)
    results: List[PipelineResult] = []
    for object_id, point in fleet.ops:
        if point is None:
            results.extend(engine.close_object(object_id))
        else:
            results.extend(engine.ingest(object_id, point))
    results.extend(engine.flush())
    assert results
    data = dump_outcome(results, context)
    assert len(data) < len(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
    twin = _twin(context)
    loaded = load_outcome(data, twin)
    assert canonical_digest(loaded) == canonical_digest(results)
    _assert_snapshot_places(loaded, twin)


def test_places_outside_the_snapshot_travel_by_value(context):
    region = context.places()[0]
    foreign = dataclasses.replace(region, name="not in any source")
    fields = {f.name: getattr(region, f.name) for f in dataclasses.fields(region)}
    campus = _Campus(**fields)
    twin = _twin(context)
    loaded = load_outcome(dump_outcome([foreign, campus, region, region], context), twin)
    assert loaded[0] == foreign and type(loaded[0]) is RegionOfInterest
    assert type(loaded[1]) is _Campus and loaded[1] == campus
    held = {id(place) for place in twin.places()}
    assert id(loaded[0]) not in held and id(loaded[1]) not in held
    assert loaded[2] is twin.places()[0] and loaded[3] is loaded[2]


def test_a_reference_to_another_place_raises(context):
    sources = context.sources
    reordered = GeoContext(
        AnnotationSources(
            regions=RegionSource(reversed(sources.regions.regions)),
            road_network=sources.road_network,
            pois=sources.pois,
        ),
        context.config,
        annotators=context.annotators,
    )
    data = dump_outcome([context.places()[0]], context)
    with pytest.raises(SemitriError, match="does not match"):
        load_outcome(data, reordered)
    # Plain pickle cannot resolve a reference either.
    with pytest.raises(SemitriError):
        pickle.loads(data)


def test_loading_pauses_the_collector_and_restores_it(context):
    data = dump_outcome([_CollectorState()], context)
    assert gc.isenabled()
    assert load_outcome(data, context) == [False]
    assert gc.isenabled()
    with pytest.raises(pickle.UnpicklingError):
        load_outcome(data[:-1], context)
    assert gc.isenabled()
    gc.disable()
    try:
        assert load_outcome(data, context) == [False]
        assert not gc.isenabled()  # the caller's setting, not the codec's
    finally:
        gc.enable()


# ------------------------------------------------------------ process shards
@pytest.mark.parametrize("start_method", START_METHODS)
def test_process_drain_equals_sequential_onto_the_parents_places(
    fleet, context, start_method, monkeypatch
):
    monkeypatch.setattr(
        workers, "_pool_mp_context", lambda: multiprocessing.get_context(start_method)
    )
    store = SemanticTrajectoryStore()
    service, results = _drain(context, fleet, store)
    assert service.transport == "process" and len(service.worker_pids) == 2
    assert service.dropped_events == 0 and service.stats.errors == 0
    reference_store = SemanticTrajectoryStore()
    _, sequential = _sequential(context, fleet, reference_store)
    assert _digests(results) == _digests(sequential)
    assert _store_rows(store) == _store_rows(reference_store)
    _assert_snapshot_places(results, context)
    store.close()
    reference_store.close()


def test_acks_cost_at_most_0_85_of_plain_pickle(fleet, monkeypatch):
    """``ack_bytes`` counts what the parent read; plain pickle would send more.

    Under the benchmark's own configuration, which records no spans: spans
    ride the results by value and would dilute the ratio under tracing.
    """
    from bench.fleet import build_context, pipeline_config

    context = build_context(fleet, pipeline_config(transport="process", shards=2))
    plain: List[int] = []
    load = workers.load_outcome

    def measured(data: bytes, snapshot: GeoContext) -> object:
        ack = load(data, snapshot)
        plain.append(len(pickle.dumps(ack, pickle.HIGHEST_PROTOCOL)))
        return ack

    monkeypatch.setattr(workers, "load_outcome", measured)
    service, results = _drain(context, fleet)
    assert results and len(plain) > service.shard_count
    shards = [service.metrics.shard(index) for index in range(service.shard_count)]
    ack_bytes = sum(shard.ack_bytes.value for shard in shards)
    assert ack_bytes > 0
    assert ack_bytes <= 0.85 * sum(plain)
    assert "semitri_shard_ack_bytes_total" in service.metrics.registry.render_prometheus()


# ----------------------------------------------------------------- batch pool
@pytest.mark.parametrize("start_method", START_METHODS)
def test_pool_equals_sequential_on_the_callers_objects(
    fleet, context, start_method, monkeypatch
):
    monkeypatch.setattr(
        executors, "_pool_mp_context", lambda: multiprocessing.get_context(start_method)
    )
    reference_store = SemanticTrajectoryStore()
    raws, sequential = _sequential(context, fleet, reference_store)
    store = SemanticTrajectoryStore()
    plan = api.compile_plan(context=context, store=store, persist=True)
    with ProcessPoolExecutor(workers=2) as executor:
        results = executor.run(plan, raws)
        assert executor._pool is not None
    assert canonical_bytes(results) == canonical_bytes(sequential)
    assert _store_rows(store) == _store_rows(reference_store)
    by_id = {raw.trajectory_id: raw for raw in raws}
    for result in results:
        assert result.trajectory is by_id[result.trajectory.trajectory_id]
        assert all(episode.trajectory is result.trajectory for episode in result.episodes)
    _assert_snapshot_places(results, context)
    store.close()
    reference_store.close()


def test_pooled_results_hang_off_the_callers_trajectories(annotation_sources, car_dataset):
    """Workers send outcomes back without the raw points: the parent re-links its own."""
    batch = car_dataset.trajectories[:6]
    plan = api.compile_plan(
        context=GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    )
    with ProcessPoolExecutor(workers=2) as executor:
        results = executor.run(plan, batch)
        assert executor._pool is not None
    assert len(results) == len(batch)
    for trajectory, result in zip(batch, results):
        assert result.trajectory is trajectory
        assert all(episode.trajectory is trajectory for episode in result.episodes)
    assert canonical_bytes(results) == canonical_bytes(SequentialExecutor().run(plan, batch))
    # The wire form really leaves the points out.
    items = list(enumerate(batch))
    outputs = executors._run_in_process(plan, items, include_writeback=False)
    wire = dump_outcome(outputs, plan.geo_context(), items)
    # (By value a trajectory pickles as three float columns, 8 bytes a number
    # plus its opcode, so that is what leaving them out must save.)
    coordinates = 3 * sum(len(trajectory) for trajectory in batch)
    by_value = pickle.dumps(outputs, pickle.HIGHEST_PROTOCOL)
    assert len(wire) < len(by_value) - 8 * coordinates
    reloaded = load_outcome(wire, plan.geo_context(), items)
    assert canonical_bytes([out for _, out in reloaded]) == canonical_bytes(results)
    # On the way out the coordinates travel as the numbers they are: integer
    # fixes stay integers in a worker, so its times render as the parent's do.
    whole = [
        RawTrajectory(
            [SpatioTemporalPoint(int(p.x), int(p.y), int(p.t)) for p in trajectory.points],
            object_id=trajectory.object_id,
            trajectory_id=trajectory.trajectory_id,
        )
        for trajectory in batch
    ]
    with ProcessPoolExecutor(workers=2) as executor:
        pooled = executor.run(plan, whole)
    assert canonical_bytes(pooled) == canonical_bytes(SequentialExecutor().run(plan, whole))
