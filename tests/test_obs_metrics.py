"""Metrics registry: primitives, renderers and the engine/store/stream bundles.

The cross-cutting assertions live here: all three executors publish the same
``engine_*_total`` counter vocabulary, the store's transaction counters
reconcile exactly with its row counts, and the streaming session-manager
signals (evictions, gap close-outs, depth gauges) track the LRU machinery.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import ObservabilityConfig, PipelineConfig
from repro.core.config import StreamingConfig
from repro.core.errors import ConfigurationError
from repro.engine import (
    MicroBatchExecutor,
    Plan,
    ProcessPoolExecutor,
    SequentialExecutor,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    StreamingMetrics,
    bucket_counts,
)
from repro.store.store import SemanticTrajectoryStore
from repro.streaming.session import SessionManager

from test_parallel_parity import _random_multi_user_stream

OBSERVED = ObservabilityConfig(enabled=True)


def _observed_config(**streaming) -> PipelineConfig:
    return dataclasses.replace(
        PipelineConfig.for_people(),
        streaming=StreamingConfig(micro_batch_size=5, apply_cleaning=False, **streaming),
        observability=OBSERVED,
    )


def _trajectories(plan: Plan, seed: int = 17, users: int = 2, points: int = 110):
    streams = _random_multi_user_stream(seed, users=users, points_per_user=points)
    trajectories = []
    for object_id, stream in streams.items():
        trajectories.extend(plan.ingest(stream, object_id=object_id))
    assert trajectories
    return trajectories


# ----------------------------------------------------------------- primitives
def test_counter_is_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("events_total", help="events")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ConfigurationError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = MetricsRegistry().gauge("depth")
    gauge.set(7)
    gauge.inc(2)
    gauge.dec(4)
    assert gauge.value == 5


def test_histogram_buckets_and_mean():
    histogram = MetricsRegistry().histogram("latency", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.1, 0.5, 2.0, 50.0):
        histogram.observe(value)
    # inclusive upper bounds, one overflow bucket
    assert histogram.counts == [2, 1, 1, 1]
    assert histogram.count == 5
    assert histogram.mean() == pytest.approx(52.65 / 5)
    with pytest.raises(ConfigurationError):
        Histogram("bad", (), buckets=(1.0, 0.5))
    with pytest.raises(ConfigurationError):
        Histogram("bad", (), buckets=())


def test_bucket_counts_matches_histogram_binning():
    samples = [0.05, 0.1, 0.5, 2.0, 50.0]
    assert bucket_counts(samples, (0.1, 1.0, 10.0)) == [2, 1, 1, 1]
    assert sum(bucket_counts(samples, DEFAULT_LATENCY_BUCKETS)) == len(samples)


# ------------------------------------------------------------------- registry
def test_registry_get_or_create_and_kind_conflicts():
    registry = MetricsRegistry()
    a = registry.counter("writes_total", executor="sequential")
    b = registry.counter("writes_total", executor="sequential")
    other = registry.counter("writes_total", executor="process")
    assert a is b and a is not other
    assert registry.value("writes_total", executor="sequential") == 0
    assert registry.value("never_registered") is None
    with pytest.raises(ConfigurationError):
        registry.gauge("writes_total", executor="sequential")
    with pytest.raises(ConfigurationError):
        registry.histogram("writes_total", executor="sequential")


def test_registry_snapshot_is_json_shaped():
    import json

    registry = MetricsRegistry()
    registry.counter("a_total", help="a").inc(3)
    registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
    profile_source = MetricsRegistry().stage_latency  # fresh, empty
    registry.observe_latency(profile_source)
    registry.stage_latency.add("map_match", 0.2)
    snapshot = registry.snapshot()
    json.dumps(snapshot)  # must be serialisable as-is
    names = {entry["name"] for entry in snapshot["metrics"]}
    assert names == {"a_total", "h"}
    assert snapshot["stage_latency"]["map_match"]["count"] == 1


def test_prometheus_rendering():
    registry = MetricsRegistry()
    registry.counter("events_total", help="Events seen", executor="sequential").inc(3)
    registry.counter("events_total", help="Events seen", executor="process").inc(5)
    registry.histogram("batch_rows", buckets=(1, 10)).observe(4)
    registry.stage_latency.add("map_match", 0.004)
    text = registry.render_prometheus()
    # HELP/TYPE emitted once per metric name, not once per label set
    assert text.count("# HELP semitri_events_total Events seen") == 1
    assert 'semitri_events_total{executor="sequential"} 3' in text
    assert 'semitri_events_total{executor="process"} 5' in text
    # histogram: cumulative buckets, +Inf, sum and count series
    assert 'semitri_batch_rows_bucket{le="10"} 1' in text
    assert 'semitri_batch_rows_bucket{le="+Inf"} 1' in text
    assert "semitri_batch_rows_count 1" in text
    # the stage-latency backend renders as a per-stage histogram
    assert 'semitri_stage_latency_seconds_bucket{le="0.005",stage="map_match"} 1' in text
    assert 'semitri_stage_latency_seconds_count{stage="map_match"} 1' in text


def test_summary_renders_tables():
    registry = MetricsRegistry()
    registry.counter("events_total", executor="sequential").inc(2)
    registry.stage_latency.add("map_match", 0.5)
    text = registry.summary()
    assert "events_total" in text and "executor=sequential" in text
    assert "map_match" in text and "stage latency" in text


# -------------------------------------------------- engine counters (3 ways)
def test_engine_counters_cover_all_three_executors(annotation_sources):
    """The EngineStats vocabulary is observable for sequential and pool runs
    too — not just micro-batch — with one comparable series per executor."""
    plan = Plan.compile(annotation_sources, config=_observed_config())
    registry = plan.telemetry.metrics
    assert registry is not None
    trajectories = _trajectories(plan)
    expected_events = sum(len(trajectory) for trajectory in trajectories)

    sequential = SequentialExecutor().run(plan, trajectories)
    with ProcessPoolExecutor(workers=2) as pool:
        parallel = pool.run(plan, trajectories)
    micro = MicroBatchExecutor(plan)
    streamed = micro.run(plan, trajectories)

    for executor, results in (
        ("sequential", sequential),
        ("process", parallel),
        ("micro_batch", streamed),
    ):
        assert registry.value("engine_events_total", executor=executor) == expected_events
        assert registry.value("engine_results_total", executor=executor) == len(results)
        assert registry.value("engine_episodes_sealed_total", executor=executor) == sum(
            len(result.episodes) for result in results
        )
    # the live micro-batch counters agree with the legacy EngineStats
    assert registry.value("engine_events_total", executor="micro_batch") == micro.stats.events
    assert (
        registry.value("engine_processing_passes_total", executor="micro_batch")
        == micro.stats.processing_passes
        > 0
    )


def test_disabled_telemetry_registers_nothing(annotation_sources, monkeypatch):
    monkeypatch.delenv("SEMITRI_OBSERVABILITY", raising=False)
    plan = Plan.compile(annotation_sources, config=PipelineConfig.for_people())
    assert plan.telemetry.metrics is None and plan.telemetry.tracer is None
    results = SequentialExecutor().run(plan, _trajectories(plan, users=1, points=80))
    assert results and all(result.spans == [] for result in results)


# -------------------------------------------------------------- store metrics
def test_store_metrics_reconcile_with_store_contents(annotation_sources):
    """Every committed row is counted: the rows_written counter equals the
    store's own table counts, and each per-trajectory transaction commits."""
    store = SemanticTrajectoryStore()
    plan = Plan.compile(
        annotation_sources, config=_observed_config(), store=store, persist=True
    )
    registry = plan.telemetry.metrics
    assert registry is not None
    trajectories = _trajectories(plan, seed=29, users=1, points=90)
    SequentialExecutor().run(plan, trajectories)

    expected_rows = (
        store.trajectory_count()
        + store.gps_record_count()
        + store.episode_count()
        + store.annotation_count()
    )
    assert registry.value("store_rows_written_total") == expected_rows
    assert registry.value("store_commits_total") == len(trajectories)
    assert registry.value("store_rollbacks_total") == 0
    histogram = registry.histogram("store_batch_rows")
    assert histogram.count > 0 and histogram.sum == expected_rows
    store.close()


def test_store_metrics_count_rollbacks(annotation_sources):
    from repro.core.errors import StoreError

    store = SemanticTrajectoryStore()
    plan = Plan.compile(
        annotation_sources, config=_observed_config(), store=store, persist=True
    )
    registry = plan.telemetry.metrics
    assert registry is not None
    trajectories = _trajectories(plan, seed=31, users=1, points=80)
    executor = SequentialExecutor()
    executor.run(plan, trajectories[:1])
    commits = registry.value("store_commits_total")
    with pytest.raises(StoreError):
        executor.run(plan, trajectories[:1])  # duplicate id: transaction fails
    assert registry.value("store_rollbacks_total") == 1
    assert registry.value("store_commits_total") == commits
    store.close()


# ---------------------------------------------------------- streaming metrics
def test_streaming_metrics_track_evictions_and_depth():
    config = dataclasses.replace(
        PipelineConfig.for_people(),
        streaming=StreamingConfig(micro_batch_size=4, max_sessions=2),
    )
    metrics = StreamingMetrics(MetricsRegistry())
    manager = SessionManager(config, apply_cleaning=False, metrics=metrics)
    for object_id in ("a", "b", "c"):  # third acquire evicts the LRU ("a")
        manager.acquire(object_id)
    assert metrics.evictions.value == manager.evicted_total == 1
    assert metrics.open_sessions.value == len(manager) == 2
    manager.pop("b")
    assert metrics.open_sessions.value == 1
    manager.pop_all()
    assert metrics.open_sessions.value == 0


def test_streaming_metrics_count_gap_closeouts(annotation_sources):
    from repro.core.points import SpatioTemporalPoint

    config = _observed_config()
    max_gap = config.identification.max_time_gap
    plan = Plan.compile(annotation_sources, config=config)
    executor = MicroBatchExecutor(plan)
    registry = plan.telemetry.metrics
    assert registry is not None
    # a dense run, a gap far beyond the close-out threshold, another dense run
    points = [SpatioTemporalPoint(float(i) * 5.0, 0.0, float(i) * 10.0) for i in range(30)]
    points += [
        SpatioTemporalPoint(500.0 + float(i) * 5.0, 0.0, max_gap * 3 + float(i) * 10.0)
        for i in range(30)
    ]
    deepest = 0.0
    for point in points:
        executor.ingest("walker", point)
        deepest = max(deepest, registry.value("streaming_annotate_queue_depth"))
    # sealed-but-not-annotated work is visible mid-stream and gone after the drain
    assert deepest > 0
    executor.close_all()
    assert registry.value("streaming_annotate_queue_depth") == 0
    assert executor.annotate_queue_depth == 0
    assert registry.value("streaming_gap_closeouts_total") == 1
    assert registry.value("engine_trajectories_discarded_total", executor="micro_batch") == 0
