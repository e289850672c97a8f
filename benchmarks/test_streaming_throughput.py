"""Streaming engine throughput and per-event latency versus the batch pipeline.

Feeds the car and people datasets event-by-event through the streaming
executor of :func:`repro.api.stream` and reports, per dataset:

* events/second for the streaming engine and for batch ``annotate_many`` on
  the same trajectories (the batch number divides total wall time by the
  total number of GPS events);
* p50 and p99 latency of a single ``ingest`` call — most calls only buffer
  the event, while every ``micro_batch_size``-th call pays for a processing
  pass, which is exactly the latency profile an online service exhibits.

The stream is replayed in two orders: objects back to back, so a micro-batch
is one session and ``advance()`` runs once per 64 events, and round-robin
interleaved across objects, so a micro-batch touches as many sessions as
there are live objects — the order concurrent emitters actually produce.

Both paths run the full annotation stack (region + line + point) without
persistence, so the comparison isolates computation.
"""

from __future__ import annotations

import dataclasses
import time
from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from benchmarks.conftest import save_result
from repro.analytics.reporting import render_table
from repro.api import stream
from repro.core import PipelineConfig, SeMiTriPipeline
from repro.core.config import StreamingConfig, TrajectoryIdentificationConfig
from repro.core.points import SpatioTemporalPoint

Op = Tuple[str, Optional[SpatioTemporalPoint]]  # a fix, or None: close the object


def _streaming_config(base: PipelineConfig) -> PipelineConfig:
    return dataclasses.replace(
        base,
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e15, max_distance_gap=1e15, min_points=1
        ),
        streaming=StreamingConfig(micro_batch_size=64, apply_cleaning=False),
    )


def _percentile(ordered: List[float], percentile: float) -> float:
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, int(round((percentile / 100.0) * (len(ordered) - 1))))
    return ordered[rank]


def _sequential_ops(trajectories) -> List[Op]:
    """Every trajectory's fixes then its close, one trajectory after the other."""
    ops: List[Op] = []
    for trajectory in trajectories:
        ops.extend((trajectory.object_id, point) for point in trajectory.points)
        ops.append((trajectory.object_id, None))
    return ops


def _interleaved_ops(trajectories) -> List[Op]:
    """The same operations round-robin across objects, each object's own order kept."""
    lanes: Dict[str, List[Op]] = {}
    for op in _sequential_ops(trajectories):
        lanes.setdefault(op[0], []).append(op)
    return [op for turn in zip_longest(*lanes.values()) for op in turn if op is not None]


def _run_streaming(ops: List[Op], sources, config) -> Tuple[int, float, List[float], int]:
    engine = stream(sources, config=config)
    latencies: List[float] = []
    results = 0
    started = time.perf_counter()
    for object_id, point in ops:
        if point is None:
            results += len(engine.close_object(object_id))
            continue
        ingest_started = time.perf_counter()
        results += len(engine.ingest(object_id, point))
        latencies.append(time.perf_counter() - ingest_started)
    results += len(engine.flush())
    elapsed = time.perf_counter() - started
    return len(latencies), elapsed, latencies, results


def test_streaming_throughput(benchmark, car_dataset, people_dataset, annotation_sources):
    cases = [
        ("car", PipelineConfig.for_vehicles(), car_dataset.trajectories),
        ("people", PipelineConfig.for_people(), people_dataset.all_trajectories),
    ]
    rows = []
    measured = {}

    def run_all():
        for name, base_config, trajectories in cases:
            config = _streaming_config(base_config)
            sequential = _run_streaming(_sequential_ops(trajectories), annotation_sources, config)
            interleaved = _run_streaming(
                _interleaved_ops(trajectories), annotation_sources, config
            )
            batch_started = time.perf_counter()
            batch_results = SeMiTriPipeline(config).annotate_many(
                trajectories, annotation_sources
            )
            batch_elapsed = time.perf_counter() - batch_started
            measured[name] = (sequential, interleaved, batch_elapsed, len(batch_results))
        return measured

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    data = {}
    for name, base_config, trajectories in cases:
        sequential, interleaved, batch_elapsed, batch_count = measured[name]
        events, stream_elapsed, latencies, stream_results = sequential
        _, interleaved_elapsed, _, interleaved_results = interleaved
        ordered = sorted(latencies)
        p50 = _percentile(ordered, 50.0)
        p99 = _percentile(ordered, 99.0)
        rows.append(
            [
                name,
                events,
                f"{events / stream_elapsed:,.0f}",
                f"{events / interleaved_elapsed:,.0f}",
                f"{events / batch_elapsed:,.0f}",
                f"{p50 * 1e6:.1f}",
                f"{p99 * 1e6:.1f}",
            ]
        )
        data[name] = {
            "events": events,
            "stream_events_per_s": events / stream_elapsed,
            "stream_interleaved_events_per_s": events / interleaved_elapsed,
            "batch_events_per_s": events / batch_elapsed,
            "p50_us_per_event": p50 * 1e6,
            "p99_us_per_event": p99 * 1e6,
        }
        # Streaming must produce exactly the batch result count, and
        # micro-batching must keep the median ingest below the mean per-event
        # cost (most events only buffer; the pass cost lands in the tail).
        assert stream_results == batch_count
        assert interleaved_results == stream_results
        assert p50 < stream_elapsed / events

    text = render_table(
        [
            "dataset", "events", "stream ev/s", "interleaved ev/s", "batch ev/s",
            "p50 us/event", "p99 us/event",
        ],
        rows,
        title="Streaming engine throughput vs batch pipeline",
    )
    metrics = {}
    for name, values in data.items():
        metrics[f"{name}_stream_events_per_s"] = round(values["stream_events_per_s"], 1)
        metrics[f"{name}_stream_interleaved_events_per_s"] = round(
            values["stream_interleaved_events_per_s"], 1
        )
        metrics[f"{name}_batch_events_per_s"] = round(values["batch_events_per_s"], 1)
    save_result("streaming_throughput", text, data=data, metrics=metrics)
