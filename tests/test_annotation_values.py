"""Annotations are values: one object per place or value for a snapshot's lifetime.

Within one snapshot every region, line and POI annotation of the same place,
every transport-mode annotation of the same mode and every activity
annotation of the same POI category is the same object, equal to the one its
factory builds; a warm batch pass builds none.  The line layer adds each mode
segment through Algorithm 1's one merge rule and must give what fresh factory
records followed by ``merged()`` give — records, annotations, errors — while
``merged()`` leaves its input alone.  The result codec keeps the sharing
within one pickle, and per-trajectory digests of fleet seeds 1–6 agree across
the sequential pipeline, the pool, the stream engine and a two-shard process
service.
"""

from __future__ import annotations

import asyncio
import os
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.annotations import (
    Annotation,
    AnnotationKind,
    GeographicReferenceAnnotation,
    activity_annotation,
    line_annotation,
    poi_annotation,
    region_annotation,
    transport_mode_annotation,
)
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import DataQualityError
from repro.core.pipeline import PipelineResult
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory
from repro.lines.annotator import LineAnnotator
from repro.lines.transport_mode import ModeSegment
from repro.parallel import canonical_digest, canonical_structured
from repro.parallel.context import dump_outcome, load_outcome
from repro.points.activity import activity_for_category

# The benchmark fleet (bench/fleet.py) lives beside src/ at the checkout root.
_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from bench import fleet  # noqa: E402

#: Worker processes of the pool leg (``1`` runs it on the sequential executor).
TEST_WORKERS = int(os.environ.get("SEMITRI_TEST_WORKERS", "2"))


# -------------------------------------------------------------------- helpers
def _annotations(results: List[PipelineResult]) -> Iterator[Annotation]:
    """Every annotation reference the results hold: episodes and all three layers."""
    for result in results:
        for episode in result.episodes:
            yield from episode.annotations
        layers = [result.region_trajectory, result.point_trajectory, *result.line_trajectories]
        for structured in layers:
            if structured is not None:
                for record in structured:
                    yield from record.annotations


def _key(annotation: Annotation) -> Tuple[AnnotationKind, object]:
    """What an annotator's table is keyed by."""
    if isinstance(annotation, GeographicReferenceAnnotation):
        return annotation.kind, annotation.place_id
    if annotation.kind is AnnotationKind.ACTIVITY:
        return annotation.kind, annotation.details["category"]
    return annotation.kind, getattr(annotation, "value")


def _from_factory(annotation: Annotation) -> Annotation:
    """A fresh annotation of the same place or value, from its public factory."""
    kind = annotation.kind
    if isinstance(annotation, GeographicReferenceAnnotation):
        assert annotation.place is not None
        factory = {
            AnnotationKind.REGION: region_annotation,
            AnnotationKind.LINE: line_annotation,
            AnnotationKind.POINT: poi_annotation,
        }[kind]
        return factory(annotation.place)
    if kind is AnnotationKind.TRANSPORT_MODE:
        return transport_mode_annotation(getattr(annotation, "value"))
    category = annotation.details["category"]
    return activity_annotation(activity_for_category(category), category=category)


@pytest.fixture()
def built(monkeypatch) -> List[int]:
    """``built[0]`` counts the annotations this process makes from now on."""
    count = [0]
    post_init = Annotation.__post_init__

    def counting(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(Annotation, "__post_init__", counting)
    return count


@pytest.fixture(scope="module")
def fleet_inputs() -> fleet.Inputs:
    """The benchmark fleet of seed 1: 12,000 events of about 125 objects."""
    return fleet.generate(1, fleet.FULL)


def _stream(context, inputs: fleet.Inputs) -> List[PipelineResult]:
    results: List[PipelineResult] = []
    engine = api.stream(context, on_result=results.append)
    for object_id, point in inputs.ops:
        if point is None:
            engine.close_object(object_id)
        else:
            engine.ingest(object_id, point)
    engine.close_all()
    return results


def _process_service(inputs: fleet.Inputs) -> List[PipelineResult]:
    context = fleet.build_context(inputs, fleet.pipeline_config("process", 2))

    async def run() -> List[PipelineResult]:
        service = api.serve(context)
        await service.start()
        try:
            for object_id, point in inputs.ops:
                if point is None:
                    await service.close_object(object_id)
                else:
                    await service.ingest(object_id, point)
            results = await service.drain()
            assert service.dropped_events == 0 and service.stats.errors == 0
            return results
        finally:
            await service.shutdown()

    return asyncio.run(run())


def _digests(results: List[PipelineResult]) -> Dict[str, str]:
    return {result.trajectory.trajectory_id: canonical_digest([result]) for result in results}


# ------------------------------------------------- one object per value
def test_one_snapshot_shares_one_object_per_place_and_value(fleet_inputs):
    context = fleet.build_context(fleet_inputs, fleet.pipeline_config())
    batch = fleet.sequential(context, fleet_inputs)
    streamed = _stream(context, fleet_inputs)
    shared: Dict[Tuple[AnnotationKind, object], Annotation] = {}
    references = 0
    for annotation in _annotations(batch + streamed):
        references += 1
        first = shared.setdefault(_key(annotation), annotation)
        assert annotation is first, _key(annotation)
    assert references > 2 * len(shared)
    assert {kind for kind, _ in shared} == {
        AnnotationKind.REGION,
        AnnotationKind.LINE,
        AnnotationKind.POINT,
        AnnotationKind.TRANSPORT_MODE,
        AnnotationKind.ACTIVITY,
    }
    for annotation in shared.values():
        assert annotation == _from_factory(annotation)


def test_an_episode_and_its_record_hold_the_same_annotation(fleet_inputs):
    context = fleet.build_context(fleet_inputs, fleet.pipeline_config())
    for result in fleet.sequential(context, fleet_inputs):
        for structured in (result.region_trajectory, result.point_trajectory):
            assert structured is not None
            for record in structured:
                episode = record.source_episode
                assert episode is not None
                for annotation in record.annotations:
                    assert any(annotation is other for other in episode.annotations)


def test_a_stop_activity_carries_its_category_flat(fleet_inputs):
    context = fleet.build_context(fleet_inputs, fleet.pipeline_config())
    stops = 0
    for result in fleet.sequential(context, fleet_inputs):
        if result.point_trajectory is None:
            continue
        for record in result.point_trajectory:
            (activity,) = [a for a in record.annotations if a.kind is AnnotationKind.ACTIVITY]
            category = activity.details["category"]
            assert activity.details == {"category": category}
            assert getattr(activity, "value") == activity_for_category(category)
            if record.place is not None:
                assert record.place.category == category
            stops += 1
    assert stops > 50


def test_a_warm_batch_pass_builds_no_annotation(fleet_inputs, built):
    context = fleet.build_context(fleet_inputs, fleet.pipeline_config())
    built[0] = 0
    cold = fleet.sequential(context, fleet_inputs)
    distinct = {_key(annotation) for annotation in _annotations(cold)}
    assert 0 < built[0] <= len(distinct)
    built[0] = 0
    warm = fleet.sequential(context, fleet_inputs)
    assert built[0] == 0
    assert _digests(warm) == _digests(cold)


def test_the_result_codec_keeps_the_sharing_within_one_pickle(fleet_inputs):
    context = fleet.build_context(fleet_inputs, fleet.pipeline_config())
    results = fleet.sequential(context, fleet_inputs)
    loaded = load_outcome(dump_outcome(results, context), context)
    pairs: Dict[int, int] = {}
    for original, copy in zip(_annotations(results), _annotations(loaded)):
        assert copy == original
        assert pairs.setdefault(id(original), id(copy)) == id(copy)
    assert len(set(pairs.values())) == len(pairs)  # no two originals became one
    assert _digests(loaded) == _digests(results)


# ------------------------------------------------ the line layer's merge rule
_SEGMENT_IDS = [None, 0, 1, 2]
_MODES = ["walk", "car", "bus"]


def _move(length: int = 4) -> Episode:
    points = [SpatioTemporalPoint(float(i), 0.0, float(i)) for i in range(length)]
    trajectory = RawTrajectory(points, object_id="o", trajectory_id="o-t0")
    return Episode(EpisodeKind.MOVE, trajectory, 0, length)


def _segments(network, rows) -> List[ModeSegment]:
    """``(segment index or None, mode, time_in, time_out)`` rows as mode segments."""
    ids = [segment.place_id for segment in network.segments[:3]]
    return [
        ModeSegment(
            segment_id=None if index is None else ids[index],
            road_type=None,
            mode=mode,
            time_in=time_in,
            time_out=time_out,
            point_count=1,
            mean_speed=1.0,
        )
        for index, mode, time_in, time_out in rows
    ]


def _factory_then_merged(network, episode, segments) -> StructuredSemanticTrajectory:
    """One fresh factory record per segment, then ``merged()``: the rule's reference."""
    trajectory = episode.trajectory
    result = StructuredSemanticTrajectory(f"{trajectory.trajectory_id}:line", trajectory.object_id)
    for segment in segments:
        place = None
        annotations: List[Annotation] = [transport_mode_annotation(segment.mode)]
        if segment.segment_id is not None:
            place = network.segment(segment.segment_id)
            annotations.insert(0, line_annotation(place))
        result.append(
            SemanticEpisodeRecord(
                place, segment.time_in, segment.time_out, episode.kind, annotations, episode
            )
        )
    return result.merged()


def _outcome(build, episode: Episode) -> object:
    try:
        structured = build(episode)
    except DataQualityError:
        return DataQualityError
    return (
        structured.trajectory_id,
        structured.object_id,
        len(structured),
        canonical_structured(structured),
        [record.source_episode is episode for record in structured],
    )


def _assert_like_factory_records(annotator: LineAnnotator, rows) -> None:
    network = annotator.matcher.network
    segments = _segments(network, rows)
    product = _outcome(lambda episode: annotator._to_structured(episode, segments), _move())
    expected = _outcome(
        lambda episode: _factory_then_merged(network, episode, segments), _move()
    )
    assert product == expected


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param([], id="no-segment"),
        pytest.param([(0, "walk", 0.0, 3.0)], id="single"),
        pytest.param(
            [
                (0, "car", 0.0, 1.0),
                (0, "car", 1.0, 2.0),
                (1, "car", 2.0, 3.0),
                (1, "car", 3.0, 4.0),
            ],
            id="repeated",
        ),
        pytest.param(
            [(None, "walk", 0.0, 1.0), (None, "walk", 1.0, 2.0), (0, "car", 2.0, 3.0)],
            id="none-segments",
        ),
        pytest.param(
            [(0, "walk", 0.0, 1.0), (0, "car", 1.0, 2.0), (0, "walk", 2.0, 3.0)],
            id="mode-flicker",
        ),
        pytest.param([(0, "car", 0.0, 10.0), (0, "car", 5.0, 8.0)], id="earlier-time-out"),
        pytest.param(
            [(0, "car", 0.0, 10.0), (0, "car", 5.0, 6.0), (0, "car", 4.0, 7.0)],
            id="starts-before-previous-segment",
        ),
        pytest.param([(0, "car", 0.0, 10.0), (0, "car", 5.0, 4.0)], id="inverted-merged"),
    ],
)
def test_line_records_are_the_factory_records_merged(road_network, rows):
    annotator = LineAnnotator(road_network)
    _assert_like_factory_records(annotator, rows)
    _assert_like_factory_records(annotator, rows)  # and again, from warm tables


_ROWS = st.lists(
    st.tuples(
        st.sampled_from(_SEGMENT_IDS),
        st.sampled_from(_MODES),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([0.0, 0.5, 3.0]),
    ),
    max_size=12,
)


@pytest.fixture(scope="module")
def line_annotator(road_network) -> LineAnnotator:
    return LineAnnotator(road_network)


@settings(max_examples=200, deadline=None)
@given(steps=_ROWS)
def test_generated_line_records_are_the_factory_records_merged(line_annotator, steps):
    rows, time_in = [], 0.0
    for index, mode, advance, length in steps:
        time_in += advance
        rows.append((index, mode, time_in, time_in + length))
    _assert_like_factory_records(line_annotator, rows)


def test_merged_leaves_its_input_records_unchanged(road_network):
    a, b = road_network.segments[:2]
    episode = _move()
    records = [
        SemanticEpisodeRecord(a, 0.0, 2.0, EpisodeKind.MOVE, [line_annotation(a)], episode),
        SemanticEpisodeRecord(a, 1.0, 1.5, EpisodeKind.MOVE, [line_annotation(a)], episode),
        SemanticEpisodeRecord(None, 2.0, 3.0, EpisodeKind.MOVE, [], episode),
        SemanticEpisodeRecord(None, 3.0, 4.0, EpisodeKind.MOVE, [], episode),
        SemanticEpisodeRecord(b, 4.0, 5.0, EpisodeKind.MOVE, [line_annotation(b)], episode),
    ]
    structured = StructuredSemanticTrajectory("t", "o", records)

    def snapshot() -> List[Tuple[object, ...]]:
        return [
            (id(r), r.place, r.time_in, r.time_out, r.kind, list(r.annotations), r.source_episode)
            for r in structured
        ]

    before = snapshot()
    lists = [record.annotations for record in structured]
    merged = structured.merged()
    assert snapshot() == before
    assert all(record.annotations is kept for record, kept in zip(structured, lists))
    assert [(r.time_in, r.time_out, len(r.annotations)) for r in merged] == [
        (0.0, 2.0, 2),
        (2.0, 4.0, 0),
        (4.0, 5.0, 1),
    ]
    assert not {id(record) for record in merged} & {id(record) for record in records}
    assert canonical_structured(merged.merged()) == canonical_structured(merged)


# ------------------------------------------------- every executor, seeds 1-6
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_every_executor_gives_the_sequential_digests(seed):
    inputs = fleet.generate(seed, fleet.FULL)
    context = fleet.build_context(inputs, fleet.pipeline_config())
    sequential = fleet.sequential(context, inputs)
    expected = _digests(sequential)
    raws = [result.trajectory for result in sequential]
    runs: Dict[str, List[PipelineResult]] = {
        "pool": api.annotate_many(raws, context=context, workers=TEST_WORKERS),
        "stream": _stream(context, inputs),
        "process": _process_service(inputs),
    }
    for name, results in runs.items():
        assert _digests(results) == expected, name
