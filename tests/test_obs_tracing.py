"""Per-trajectory tracing: spans across all three executors + JSONL round-trip.

The acceptance contracts of the telemetry subsystem:

* with observability **off** (the default) nothing is allocated and results
  carry no spans — the pre-telemetry code path;
* with tracing **on**, all three executors still produce byte-identical
  canonical annotation output;
* spans emitted inside process-pool workers survive the pickle boundary and
  are re-parented into the parent tracer, provably (their ``pid`` differs);
* one trajectory's full span tree — pool-worker spans included — can be
  rebuilt from the JSONL export alone.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List

from repro import api
from repro.core import ObservabilityConfig, PipelineConfig
from repro.core.config import StreamingConfig
from repro.core.errors import ConfigurationError
from repro.core.points import RawTrajectory
from repro.engine import (
    MicroBatchExecutor,
    Plan,
    ProcessPoolExecutor,
    SequentialExecutor,
)
from repro.obs import (
    DISABLED,
    JsonlExporter,
    PrometheusExporter,
    Span,
    Telemetry,
    Tracer,
    build_span_tree,
    read_spans,
    render_span_tree,
)
from repro.parallel import GeoContext, canonical_bytes

from test_engine_plan import _replay
from test_parallel_parity import _random_multi_user_stream

import pytest

TRACED = ObservabilityConfig(enabled=True)


def _traced_config() -> PipelineConfig:
    # apply_cleaning=True so the streaming sessions clean like the batch
    # ingest chain does — the precondition for full byte parity.
    return dataclasses.replace(
        PipelineConfig.for_people(),
        streaming=StreamingConfig(micro_batch_size=5, apply_cleaning=True),
        observability=TRACED,
    )


def _trajectories(plan: Plan, seed: int = 17, users: int = 2, points: int = 110):
    streams = _random_multi_user_stream(seed, users=users, points_per_user=points)
    trajectories: List[RawTrajectory] = []
    pipeline = api.open_pipeline(plan.config)
    for object_id, stream in streams.items():
        trajectories.extend(pipeline.ingest_stream(stream, object_id=object_id))
    assert trajectories
    return trajectories


# -------------------------------------------------------------- disabled path
def test_default_config_is_the_shared_noop_runtime(annotation_sources, monkeypatch):
    monkeypatch.delenv("SEMITRI_OBSERVABILITY", raising=False)
    plan = Plan.compile(GeoContext(annotation_sources, PipelineConfig.for_people()))
    assert plan.telemetry is DISABLED
    assert not plan.telemetry.enabled
    assert plan.telemetry.start_trace("t") is None
    assert plan.telemetry.summary() == ""
    results = SequentialExecutor().run(plan, _trajectories(plan, users=1, points=80))
    assert all(result.spans == [] for result in results)


def test_observability_env_knob(monkeypatch):
    monkeypatch.setenv("SEMITRI_OBSERVABILITY", "trace")
    config = PipelineConfig()
    assert config.observability.enabled and config.observability.tracing
    monkeypatch.setenv("SEMITRI_OBSERVABILITY", "metrics")
    metrics_only = ObservabilityConfig.from_env()
    assert metrics_only.enabled and not metrics_only.tracing
    telemetry = Telemetry.from_config(metrics_only)
    assert telemetry.metrics is not None and telemetry.tracer is None
    monkeypatch.setenv("SEMITRI_OBSERVABILITY", "bogus")
    with pytest.raises(ConfigurationError):
        ObservabilityConfig.from_env()


# ------------------------------------------------------------- traced parity
def test_three_executors_byte_identical_with_tracing(annotation_sources):
    """Tracing is inert: canonical annotation bytes stay identical across the
    sequential, process-pool and micro-batch executors with spans enabled."""
    plan = Plan.compile(GeoContext(annotation_sources, _traced_config()))
    assert plan.telemetry.tracing_enabled
    streams = _random_multi_user_stream(17, users=2, points_per_user=110)
    trajectories: List[RawTrajectory] = []
    pipeline = api.open_pipeline(plan.config)
    for object_id, stream in streams.items():
        trajectories.extend(pipeline.ingest_stream(stream, object_id=object_id))

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

    def sorted_bytes(results):
        return canonical_bytes(sorted(results, key=lambda r: r.trajectory.trajectory_id))

    assert sorted_bytes(streamed) == sorted_bytes(sequential)
    # every executor path produced spans for every result
    for results in (sequential, parallel, streamed):
        assert all(result.spans for result in results)


def test_sequential_span_tree_shape(annotation_sources):
    plan = Plan.compile(GeoContext(annotation_sources, _traced_config()))
    trajectories = _trajectories(plan, users=1, points=90)
    results = SequentialExecutor().run(plan, trajectories)

    result = results[0]
    trace_id = result.trajectory.trajectory_id
    roots = [span for span in result.spans if span.parent_id is None]
    assert len(roots) == 1 and roots[0].name == "trajectory"
    children = [span for span in result.spans if span.parent_id is not None]
    assert children and all(span.parent_id == roots[0].span_id for span in children)
    assert {span.name for span in children} <= set(plan.stage_names())
    assert all(span.trace_id == trace_id for span in result.spans)
    # spans and latency samples come from the same measurements
    assert len(children) == sum(
        result.latency.count(stage) for stage in result.latency.stages()
    )

    tracer = plan.telemetry.tracer
    assert tracer is not None
    assert tracer.spans_for(trace_id) == result.spans
    rendered = render_span_tree(result.spans)
    assert f"trace {trace_id}:" in rendered and "trajectory" in rendered


def test_micro_batch_emits_spans_with_streaming_vocabulary(annotation_sources):
    plan = Plan.compile(GeoContext(annotation_sources, _traced_config()))
    trajectories = _trajectories(plan, users=1, points=90)
    results = _replay(MicroBatchExecutor(plan), trajectories)
    names = {span.name for result in results for span in result.spans}
    assert "trajectory" in names and "compute_episode" in names


# --------------------------------------------------- pool collection order
def test_pool_collection_order_is_input_order(annotation_sources, monkeypatch):
    """Span adoption and failure-log order follow the input, not the shards.

    The largest object comes last in the batch, so its shard is submitted
    (and, on two workers, usually finishes) ahead of the smaller ones; the
    first and the last object are poison.  What the parent collects must
    still read in input order.
    """
    streams = _random_multi_user_stream(17, users=3, points_per_user=70)
    streams.update(_random_multi_user_stream(18, users=1, points_per_user=420))
    first, *_, last = streams
    monkeypatch.setenv(
        "SEMITRI_FAULTS",
        f"raise@landuse_join:obj={first},times=-1;raise@landuse_join:obj={last},times=-1",
    )
    config = _traced_config().with_overrides({"failure.mode": "skip"})
    plan = Plan.compile(GeoContext(annotation_sources, config))
    trajectories: List[RawTrajectory] = []
    pipeline = api.open_pipeline(plan.config)
    for object_id, stream in streams.items():
        trajectories.extend(pipeline.ingest_stream(stream, object_id=object_id))
    loads = {object_id: 0 for object_id in streams}
    for trajectory in trajectories:
        loads[trajectory.object_id] += len(trajectory)
    assert loads[last] == max(loads.values()) > 2 * loads[first]
    with ProcessPoolExecutor(workers=2) as pool:
        results = pool.run(plan, trajectories)

    poisoned = [t.trajectory_id for t in trajectories if t.object_id in (first, last)]
    survivors = [t.trajectory_id for t in trajectories if t.object_id not in (first, last)]
    assert poisoned and survivors
    assert [r.trajectory.trajectory_id for r in results] == survivors
    tracer = plan.telemetry.tracer
    assert tracer is not None and tracer.traces() == survivors
    assert [
        failure.trajectory.trajectory_id for failure in plan.failure_log.pending_quarantines
    ] == poisoned


# --------------------------------------------------- pool-boundary round-trip
def test_pool_worker_spans_round_trip_through_jsonl(annotation_sources, tmp_path):
    """Worker-side spans cross the process boundary, get adopted into the
    parent tracer and survive a JSONL export/import with the full tree —
    worker pids and all — intact."""
    plan = Plan.compile(GeoContext(annotation_sources, _traced_config()))
    trajectories = _trajectories(plan, users=2, points=110)
    with ProcessPoolExecutor(workers=2) as pool:
        results = pool.run(plan, trajectories)

    tracer = plan.telemetry.tracer
    assert tracer is not None and tracer.spans
    # the real pool ran: spans were emitted in other processes
    worker_pids = {span.pid for span in tracer.spans}
    assert worker_pids and os.getpid() not in worker_pids
    # adoption re-assigned ids collision-free across shards
    span_ids = [span.span_id for span in tracer.spans]
    assert len(span_ids) == len(set(span_ids))

    path = tmp_path / "telemetry.jsonl"
    JsonlExporter(path).export(plan.telemetry)
    loaded = read_spans(path)
    assert [span.as_dict() for span in loaded] == [
        span.as_dict() for span in tracer.spans
    ]

    # rebuild one trajectory's full span tree from the export alone
    target = results[0]
    trace_id = target.trajectory.trajectory_id
    forests = build_span_tree([span for span in loaded if span.trace_id == trace_id])
    assert list(forests) == [trace_id]
    (root,) = forests[trace_id]
    assert root.span.name == "trajectory" and root.span.parent_id is None
    assert root.children, "stage spans must hang off the trajectory root"
    assert [node.span.name for node in root.children] == [
        span.name for span in target.spans if span.parent_id is not None
    ]
    # every span of this tree was emitted inside a pool worker
    tree_pids = {root.span.pid} | {node.span.pid for node in root.children}
    assert tree_pids and os.getpid() not in tree_pids


def test_tracer_adopt_remaps_colliding_ids():
    """Two worker tracers both start ids at 1; adoption must keep the merged
    buffer collision-free while preserving each tree's parent links."""

    def fake_worker_spans(trace_id: str) -> List[Span]:
        worker = Tracer()
        trace = worker.start_trace(trace_id)
        trace.record("map_match", 0.0)
        return trace.close()

    first = fake_worker_spans("a-t0")
    second = fake_worker_spans("b-t0")
    assert {span.span_id for span in first} == {span.span_id for span in second}

    parent = Tracer()
    parent.adopt(first)
    parent.adopt(second)
    ids = [span.span_id for span in parent.spans]
    assert len(ids) == len(set(ids))
    for trace_id in ("a-t0", "b-t0"):
        forest = build_span_tree(parent.spans_for(trace_id))
        (root,) = forest[trace_id]
        assert root.span.name == "trajectory"
        assert [node.span.name for node in root.children] == ["map_match"]


# ------------------------------------------------------------------ exporters
def test_exporters_render_the_telemetry_they_are_handed(annotation_sources, tmp_path):
    """No exporter is configured: a caller calls the one it wants."""
    config = dataclasses.replace(
        PipelineConfig.for_people(), observability=ObservabilityConfig(enabled=True)
    )
    plan = Plan.compile(GeoContext(annotation_sources, config))
    SequentialExecutor().run(plan, _trajectories(plan, users=1, points=80))
    path = JsonlExporter(tmp_path / "telemetry.jsonl").export(plan.telemetry)
    assert path == tmp_path / "telemetry.jsonl"
    assert read_spans(path)
    prometheus = PrometheusExporter().render(plan.telemetry)
    assert "semitri_engine_events_total" in prometheus
    assert "semitri_stage_latency_seconds_bucket" in prometheus
    assert "stage latency" in plan.telemetry.summary()
