"""Sustained multi-stream ingest throughput of the annotation service.

Replays the car benchmark dataset — every car a concurrent emitter, raw
per-object point streams — through the asyncio :class:`AnnotationService` at
full speed (no pacing) across a matrix of legs:

* thread transport at 1, 2 and 4 shards (the GIL-bound tier);
* process transport at 1 and 4 shards (one worker process per shard,
  the :class:`GeoContext` as its process argument, batched pipe IPC) — asserted
  ``4-shard >= 1.5x 1-shard`` only when the runner actually has >= 4
  effective cores, recorded honestly otherwise;
* a single-shard thread leg with the crash-safe ingest journal enabled,
  recording the WAL overhead percentage.

Timing protocol: one untimed warmup, then **best-of-3 with alternating
legs** — every leg runs once per round, rounds repeat three times, and each
leg keeps its fastest round.  A load spike on the (often 1-core) runner
therefore degrades every leg's worst rounds equally instead of masquerading
as a transport or journaling overhead.

Latency percentiles are **exact** (nearest rank over every raw
enqueue-to-absorbed sample, not histogram bucket edges, where one step is
already a 2-2.5x jump).  Multi-shard thread fairness — the 2-shard p99
staying within 2x the 1-shard p99; the historical failure mode was 10x — is a
timing promise, so it is recorded (``thread_p99_*`` in the sidecar) and not
asserted: thread shards all absorb on the one event-loop thread, and on a
shared 2-core box even exact wall-clock p99s straddle the 2x line run to run.
What keeps it — each shard consumer yields between batches, so a flooded
shard lets another shard's batch in before its own next one — is asserted as
an order, deterministically, in ``tests/test_service_queue.py``.  The
throughput that gates a change is ``bench/``'s ``service_thread`` /
``service_durable`` workloads.

The benchmark refuses to publish a number for output it cannot prove
correct: every leg's drained output is checked for canonical-bytes parity
against the sequential pipeline on the same streams.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional

from benchmarks.conftest import record_timing
import repro
from repro.analytics.latency import LatencyProfile
from repro.analytics.reporting import render_table
from repro.core import PipelineConfig
from repro.core.config import StreamingConfig, TrajectoryIdentificationConfig
from repro.core.cpu import effective_cpu_count
from repro.core.points import SpatioTemporalPoint
from repro.parallel import GeoContext, canonical_bytes
from repro.service import AnnotationService

ROUNDS = 3
#: Process scaling is only a promise where the cores exist to honour it.
SCALING_GATE_MIN_CORES = 4
SCALING_GATE_RATIO = 1.5


def _service_config(
    base: PipelineConfig,
    shards: int,
    transport: str,
    journal_dir: Optional[str] = None,
) -> PipelineConfig:
    overrides: Dict[str, object] = {
        "service.shards": shards,
        "service.queue_depth": 128,
        "service.max_batch": 64,
        "service.transport": transport,
    }
    if journal_dir is not None:
        overrides["service.journal_dir"] = journal_dir
    return dataclasses.replace(
        base,
        identification=TrajectoryIdentificationConfig(
            max_time_gap=1e15, max_distance_gap=1e15, min_points=1
        ),
        # Cleaning stays ON: the sequential parity reference goes through
        # ``ingest_stream``, which always cleans, so the service must too.
        streaming=StreamingConfig(micro_batch_size=64, apply_cleaning=True),
    ).with_overrides(overrides)


def _object_streams(trajectories) -> Dict[str, List[SpatioTemporalPoint]]:
    grouped: Dict[str, list] = {}
    for trajectory in trajectories:
        grouped.setdefault(trajectory.object_id, []).append(trajectory)
    return {
        object_id: [
            point
            for trajectory in sorted(parts, key=lambda t: t.points[0].t)
            for point in trajectory.points
        ]
        for object_id, parts in sorted(grouped.items())
    }


async def _replay(service: AnnotationService, streams: Dict[str, List[SpatioTemporalPoint]]):
    async def emitter(object_id: str, points: List[SpatioTemporalPoint]) -> None:
        for point in points:
            await service.ingest(object_id, point)
        await service.close_object(object_id)

    async with service:
        await asyncio.gather(
            *(emitter(object_id, points) for object_id, points in streams.items())
        )
        await service.drain()


class _Leg:
    """One benchmark configuration: its context, best timing, and parity data."""

    def __init__(self, name: str, config: PipelineConfig, sources, wal_events: int = 0):
        self.name = name
        self.config = config
        self.context = GeoContext.build(sources, config)
        self.wal_events = wal_events
        self.best_elapsed = float("inf")
        self.best_p99 = float("inf")
        self.stats: Dict[str, float] = {}
        self.results: list = []

    def run_once(self, streams: Dict[str, List[SpatioTemporalPoint]], total: int) -> None:
        service = AnnotationService(self.context)
        # Tee every raw latency sample off the service's histogram so the
        # reported percentiles are exact rather than bucket upper bounds.
        # Acked batches record through observe_many, single items through observe.
        latency = LatencyProfile()
        histogram = service.metrics.ingest_latency
        record, record_many = histogram.observe, histogram.observe_many

        def observe(seconds: float) -> None:
            latency.add("ingest", seconds)
            record(seconds)

        def observe_many(values: List[float]) -> None:
            for seconds in values:
                latency.add("ingest", seconds)
            record_many(values)

        histogram.observe = observe  # type: ignore[method-assign]
        histogram.observe_many = observe_many  # type: ignore[method-assign]
        started = time.perf_counter()
        asyncio.run(_replay(service, streams))
        elapsed = time.perf_counter() - started
        assert service.dropped_events == 0 and service.stats.errors == 0, self.name
        assert latency.count("ingest") == histogram.count > 0, self.name
        if self.wal_events:
            assert service.stats.wal_appended == self.wal_events, self.name
        # Fairness uses the best p99 seen over all rounds — like the elapsed
        # best-of, one slow round must not decide it.
        self.best_p99 = min(self.best_p99, latency.percentile("ingest", 0.99))
        if elapsed < self.best_elapsed:
            self.best_elapsed = elapsed
            self.stats = {
                "elapsed_s": elapsed,
                "events_per_s": total / elapsed,
                "p50_s": latency.percentile("ingest", 0.50),
                "p99_s": latency.percentile("ingest", 0.99),
                "backpressure_waits": float(service.stats.backpressure_waits),
                "results": float(len(service.results)),
            }
        self.results = service.results


def test_service_throughput(benchmark, car_dataset, annotation_sources, tmp_path):
    streams = _object_streams(car_dataset.trajectories)
    total_events = sum(len(points) for points in streams.values())
    base = PipelineConfig.for_vehicles()
    cores = effective_cpu_count()

    legs = [
        _Leg("thread-1", _service_config(base, 1, "thread"), annotation_sources),
        _Leg("thread-2", _service_config(base, 2, "thread"), annotation_sources),
        _Leg("thread-4", _service_config(base, 4, "thread"), annotation_sources),
        _Leg("process-1", _service_config(base, 1, "process"), annotation_sources),
        _Leg("process-4", _service_config(base, 4, "process"), annotation_sources),
        _Leg(
            "thread-1+wal",
            _service_config(base, 1, "thread", journal_dir=str(tmp_path / "wal")),
            annotation_sources,
            wal_events=total_events + len(streams),
        ),
    ]
    by_name = {leg.name: leg for leg in legs}

    def run_all():
        # Untimed warmup primes imports, page cache and the spawn machinery
        # so round 1 of the alternating protocol starts from a steady state.
        _Leg("warmup", _service_config(base, 1, "thread"), annotation_sources).run_once(
            streams, total_events
        )
        for _ in range(ROUNDS):
            for leg in legs:
                leg.run_once(streams, total_events)
        return {leg.name: leg.best_elapsed for leg in legs}

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Publish nothing we cannot prove: every leg's drained output must be
    # canonically identical to the sequential pipeline on the same streams.
    reference_leg = by_name["thread-1"]
    pipeline = repro.open_pipeline(reference_leg.config)
    sequential = []
    for object_id, points in streams.items():
        raw = pipeline.ingest_stream(points, object_id=object_id)
        sequential.extend(
            repro.annotate_many(raw, config=reference_leg.config, context=reference_leg.context)
        )
    by_sequential = {r.trajectory.trajectory_id: r for r in sequential}
    for leg in legs:
        by_service = {r.trajectory.trajectory_id: r for r in leg.results}
        assert set(by_service) == set(by_sequential), leg.name
        for trajectory_id, expected in by_sequential.items():
            assert canonical_bytes([by_service[trajectory_id]]) == canonical_bytes(
                [expected]
            ), (leg.name, trajectory_id)

    # Process scaling: a hard promise only where the cores exist.  Below the
    # threshold the ratio is recorded in the sidecar but not asserted.
    process_ratio = (
        by_name["process-4"].stats["events_per_s"]
        / by_name["process-1"].stats["events_per_s"]
    )
    if cores >= SCALING_GATE_MIN_CORES:
        assert process_ratio >= SCALING_GATE_RATIO, (
            f"process transport scaled only {process_ratio:.2f}x from 1 to 4 "
            f"shards on {cores} effective cores (need {SCALING_GATE_RATIO}x)"
        )

    wal_leg = by_name["thread-1+wal"]
    wal_overhead_pct = (
        wal_leg.best_elapsed / by_name["thread-1"].best_elapsed - 1.0
    ) * 100.0

    rows = [
        [
            leg.name,
            total_events,
            f"{leg.stats['events_per_s']:,.0f}",
            f"{leg.stats['p50_s'] * 1e3:.2f}",
            f"{leg.stats['p99_s'] * 1e3:.2f}",
            int(leg.stats["backpressure_waits"]),
            int(leg.stats["results"]),
        ]
        for leg in legs
    ]
    text = render_table(
        ["leg", "events", "events/s", "p50 ms", "p99 ms", "bp waits", "results"],
        rows,
        title=(
            f"Service ingest throughput — {len(streams)} emitters, "
            f"{cores} effective cores, best of {ROUNDS} alternating rounds "
            "(output parity asserted)"
        ),
    )
    record_timing(
        "service_throughput",
        text,
        data={
            "emitters": len(streams),
            "total_events": total_events,
            "effective_cores": cores,
            "rounds": ROUNDS,
            "legs": {leg.name: dict(leg.stats) for leg in legs},
            "process_scaling_ratio_4v1": process_ratio,
            "process_scaling_gated": cores >= SCALING_GATE_MIN_CORES,
            # Multi-shard fairness (the p99 blow-up fix), exact best-of-rounds
            # p99s.
            "thread_p99_1shard_s": by_name["thread-1"].best_p99,
            "thread_p99_2shard_s": by_name["thread-2"].best_p99,
            # Journaling tax: single-shard thread run with the crash-safe
            # ingest WAL (``service.journal_dir`` set, default fsync batch).
            "wal_overhead_pct": wal_overhead_pct,
        },
    )
