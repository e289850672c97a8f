"""The traced run: per-layer metrics, the cost ladder and the span file.

Separate from the end-to-end runs, on the same fleet.  Every traced run does
the same work whatever ``--workload`` names — all six rungs are needed for
the ladder to close — and the workload only selects whose spans are written
to ``bench/out/trace-<workload>.jsonl`` and whose tracing overhead is
reported.  Layers are measured from outside: standalone probes call a layer's
public functions on the workload's own data, and spans wrap the calls the
benchmark makes into the program.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import api
from repro.core.pipeline import PipelineResult
from repro.engine import WorkItem
from repro.faults.journal import IngestJournal
from repro.parallel import GeoContext, attach_context, share_context
from repro.service.routing import ConsistentHashRing
from repro.service.workers import FrameEncoder, decode_frame

from bench import stats
from bench.fleet import Inputs, Ledger, Reference, build_context, pipeline_config, sequential
from bench.loadgen import OpenLoopReport
from bench.trace import SpanRecorder
from bench.workloads import (
    PROCESS_ONE,
    SERVICE_DURABLE,
    SERVICE_THREAD,
    THREAD_JOURNAL,
    WORKLOADS,
    Metrics,
    PassReport,
    Rung,
    Workdir,
    run_pass,
    store_leg,
    store_metrics,
    stream_pass,
    watchdog,
)

#: Open-loop rate, frozen: the highest multiple of 1,000 events/s that is at
#: most 60% of the slower service workload's closed-loop rate on 2 cores
#: (service_thread, about 9k events/s) and leaves no growing backlog.
PACED_RATE_EV_S = 5000

#: The ladder, thinnest path first.  The two middle service rungs are run by
#: no workload; they isolate the journal and the process boundary.
SERVICE_RUNGS = (SERVICE_THREAD, THREAD_JOURNAL, PROCESS_ONE, SERVICE_DURABLE)
RUNG_NAMES = ("batch_store", "stream_engine") + tuple(rung.name for rung in SERVICE_RUNGS)


def _us_per(seconds: float, count: int) -> float:
    return seconds / count * 1e6


def _corrected(body: Callable[[], float], slowdowns: List[float]) -> float:
    """Wall seconds ``body`` reports, divided by the machine's slowdown around it."""
    wall_s, slowdown = stats.bracketed(body)
    slowdowns.append(slowdown)
    return wall_s / slowdown


# -------------------------------------------------------------------- traced passes
def traced_batch(
    context: GeoContext, inputs: Inputs, recorder: SpanRecorder
) -> Tuple[List[PipelineResult], float]:
    """The sequential pipeline walked stage by stage with a span per stage.

    Uses the public pieces of ``run_stages`` (``WorkItem.start``,
    ``stage.ready``, ``stage.run``); the caller checks the output is
    digest-equal to the untraced pipeline, so this is the same program.
    """
    plan = api.compile_plan(context=context)
    clean, identify = plan.preprocessing
    results: List[PipelineResult] = []
    started = time.perf_counter()
    for object_id in inputs.order:
        with recorder.span("clean", object_id):
            cleaned = clean.apply(inputs.streams[object_id])
        with recorder.span("identify", object_id):
            raws = identify.apply(cleaned, object_id=object_id)
        for trajectory in raws:
            with recorder.span("run_stages", trajectory.trajectory_id) as root:
                item = WorkItem.start(trajectory, plan.telemetry)
                for stage in plan.stages:
                    if stage.ready(item):
                        with recorder.span(stage.name, trajectory.trajectory_id, parent=root):
                            stage.run(item)
            results.append(item.result)
    return results, time.perf_counter() - started


def traced_stream(
    context: GeoContext, inputs: Inputs, recorder: SpanRecorder
) -> Tuple[List[PipelineResult], float]:
    """The engine feed with a span per ``ingest``/``close_object`` call.

    An ``ingest`` that leaves nothing pending paid a processing pass.
    """
    results: List[PipelineResult] = []

    def on_result(result: PipelineResult) -> None:
        now = time.perf_counter()
        recorder.add("on_result", result.trajectory.object_id, now, now)
        results.append(result)

    engine = api.stream(context, on_result=on_result)
    started = time.perf_counter()
    for object_id, point in inputs.ops:
        called = time.perf_counter()
        if point is None:
            engine.close_object(object_id)
            name = "close_object"
        else:
            engine.ingest(object_id, point)
            name = "ingest_pass" if engine.pending_event_count == 0 else "ingest"
        recorder.add(name, object_id, called, time.perf_counter())
    engine.close_all()
    return results, time.perf_counter() - started


# --------------------------------------------------------------------------- probes
def engine_metrics(
    recorder: SpanRecorder, events: int, untraced_wall_s: float, slowdown: float
) -> Metrics:
    """Per-stage self time per event; the walk's own self time is the overhead.

    Corrected by the ``slowdown`` around the traced walk, like the ladder it
    is meant to add up to.
    """
    self_s = {name: seconds / slowdown for name, seconds in recorder.self_times().items()}
    metrics: Metrics = {
        f"engine.stage.{stage}.us_per_event": (_us_per(self_s.get(stage, 0.0), events), "us")
        for stage in ("compute_episode", "landuse_join", "map_match", "poi_annotation")
    }
    metrics["preprocessing.clean_us_per_event"] = (_us_per(self_s["clean"], events), "us")
    metrics["preprocessing.identify_us_per_event"] = (_us_per(self_s["identify"], events), "us")
    metrics["engine.overhead_us_per_event"] = (_us_per(self_s["run_stages"], events), "us")
    metrics["engine.accounted_pct"] = (sum(self_s.values()) / untraced_wall_s * 100.0, "%")
    return metrics


def index_probe(context: GeoContext, inputs: Inputs) -> Metrics:
    """The three batch queries of the flat index, on every GPS fix of the fleet."""
    points = [point for stream in inputs.streams.values() for point in stream]
    xs = np.fromiter((point.x for point in points), dtype=np.float64, count=len(points))
    ys = np.fromiter((point.y for point in points), dtype=np.float64, count=len(points))
    sources, config = context.sources, context.config
    probes = {
        "index.query_points_batch_us": lambda: sources.regions.flat_index().query_points_batch(
            xs, ys
        ),
        "index.within_distance_batch_us": lambda: (
            sources.road_network.flat_index().within_distance_batch(
                xs, ys, config.map_matching.candidate_radius
            )
        ),
        "index.nearest_batch_us": lambda: sources.pois.flat_index().nearest_batch(xs, ys, 1),
    }
    metrics: Metrics = {}
    for name, query in probes.items():
        started = time.perf_counter()
        query()
        metrics[name] = (_us_per(time.perf_counter() - started, len(points)), "us")
    metrics["index.queries"] = (float(len(probes) * len(points)), "count")
    return metrics


def routing_probe(inputs: Inputs) -> Metrics:
    """One ring lookup per operation, as ``ingest`` does; skew over the two shards."""
    ring = ConsistentHashRing(
        SERVICE_DURABLE.shards, replicas=pipeline_config().service.ring_replicas
    )
    started = time.perf_counter()
    for object_id, _ in inputs.ops:
        ring.shard_for(object_id)
    elapsed = time.perf_counter() - started
    loads = ring.distribution(inputs.order).values()
    return {
        "service.routing_ns_per_lookup": (elapsed / len(inputs.ops) * 1e9, "ns"),
        "service.shard_skew": (max(loads) / (sum(loads) / SERVICE_DURABLE.shards), "ratio"),
    }


def frame_probe(inputs: Inputs, reference: Reference) -> Metrics:
    """The process boundary's codecs: frames out, pickled acks back."""
    batch = pipeline_config().service.max_batch
    items = [
        ("close", object_id, None) if point is None else ("event", object_id, point)
        for object_id, point in inputs.ops
    ]
    encoder = FrameEncoder()
    started = time.perf_counter()
    frames = [encoder.encode_batch(items[at : at + batch]) for at in range(0, len(items), batch)]
    encoded = time.perf_counter()
    decoded = sum(len(decode_frame(frame)) for frame in frames)
    decode_s = time.perf_counter() - encoded
    assert decoded == len(items)

    started_ack = time.perf_counter()
    blobs = [pickle.dumps([result]) for result in reference.results]
    for blob in blobs:
        pickle.loads(blob)  # bytes this process just wrote
    ack_s = time.perf_counter() - started_ack
    return {
        "service.frame_encode_us_per_event": (_us_per(encoded - started, len(items)), "us"),
        "service.frame_decode_us_per_event": (_us_per(decode_s, len(items)), "us"),
        "service.ack_pickle_us_per_result": (_us_per(ack_s, len(blobs)), "us"),
        "service.ack_bytes_per_result": (sum(map(len, blobs)) / len(blobs), "bytes"),
    }


def journal_probe(inputs: Inputs, workdir: Workdir) -> Metrics:
    """Append every event to a one-shard WAL (default group commit), sync, re-read."""
    directory = workdir.fresh()
    events = [(object_id, point) for object_id, point in inputs.ops if point is not None]
    journal = IngestJournal(str(directory), 1, pipeline_config().service.journal_fsync_batch)
    try:
        started = time.perf_counter()
        for object_id, point in events:
            journal.append_event(0, object_id, point)
        appended = time.perf_counter()
        journal.sync()
        synced = time.perf_counter()
        size = sum(entry.stat().st_size for entry in directory.iterdir())
        scan_started = time.perf_counter()
        records = journal.records_for_shard(0)
        scan_s = time.perf_counter() - scan_started
        assert len(records) == len(events)
    finally:
        journal.close()
    return {
        "journal.append_event_us": (_us_per(appended - started, len(events)), "us"),
        "journal.sync_ms": ((synced - appended) * 1e3, "ms"),
        "journal.bytes_per_event": (size / len(events), "bytes"),
        "journal.scan_records_per_s": (len(records) / scan_s, "1/s"),
    }


def parallel_probe(context: GeoContext, inputs: Inputs, reference: Reference) -> Metrics:
    """Sharing the snapshot, and the 2-worker pool against the sequential annotate."""
    started = time.perf_counter()
    shared = share_context(context)
    try:
        share_s = time.perf_counter() - started
        started = time.perf_counter()
        _, bundle = attach_context(shared.spec)
        attach_s = time.perf_counter() - started
        if bundle is not None:
            bundle.close()
    finally:
        shared.close()

    raws = [result.trajectory for result in reference.results]
    events = sum(len(raw) for raw in raws)
    started = time.perf_counter()
    api.annotate_many(raws, context=context)
    sequential_s = time.perf_counter() - started
    started = time.perf_counter()
    api.annotate_many(raws, context=context, workers=2)
    pool_s = time.perf_counter() - started
    return {
        "parallel.share_context_ms": (share_s * 1e3, "ms"),
        "parallel.attach_context_ms": (attach_s * 1e3, "ms"),
        "parallel.pool_events_per_s": (events / pool_s, "1/s"),
        # Base: sequential annotate_many of the same cleaned trajectories, same run.
        "parallel.pool_ratio_vs_sequential": (sequential_s / pool_s, "ratio"),
    }


def observability_probe(inputs: Inputs, rounds: int = 2) -> Metrics:
    """The sequential pipeline with telemetry on against off (best of ``rounds``)."""
    modes = {
        "off": {},
        "metrics": {"observability.enabled": True, "observability.tracing": False},
        "trace": {"observability.enabled": True},
    }
    contexts = {
        mode: build_context(inputs, pipeline_config().with_overrides(overrides))
        for mode, overrides in modes.items()
    }
    best = dict.fromkeys(modes, float("inf"))
    for _ in range(rounds):
        for mode, context in contexts.items():
            started = time.perf_counter()
            sequential(context, inputs)
            best[mode] = min(best[mode], time.perf_counter() - started)
    return {
        "obs.metrics_overhead_pct": ((best["metrics"] / best["off"] - 1.0) * 100.0, "%"),
        "obs.trace_overhead_pct": ((best["trace"] / best["off"] - 1.0) * 100.0, "%"),
    }


def paced_metrics(
    prefix: str, reference: Reference, report: OpenLoopReport, sealed_at: Dict[str, float]
) -> Metrics:
    """Open-loop latencies, every one charged from the operation's due time.

    A trajectory's result latency runs from the due time of its last operation
    (``Reference.last_op``) to its ``on_result`` callback.
    """
    latencies = [
        (sealed_at[trajectory_id] - report.started - report.due[position]) * 1e3
        for trajectory_id, position in reference.last_op.items()
        if trajectory_id in sealed_at
    ]
    return {
        f"{prefix}.result_latency_p50_ms": (stats.percentile(latencies, 50.0), "ms"),
        f"{prefix}.result_latency_p90_ms": (stats.percentile(latencies, 90.0), "ms"),
        f"{prefix}.result_latency_samples": (float(len(latencies)), "count"),
        f"{prefix}.result_latency_supported_pct": (
            stats.supported_percentile(len(latencies)), "%"
        ),
        f"{prefix}.accept_latency_p99_ms": (stats.percentile(report.accepted, 99.0) * 1e3, "ms"),
        f"{prefix}.generator_late_p99_ms": (stats.percentile(report.late, 99.0) * 1e3, "ms"),
    }


# --------------------------------------------------------------------------- ladder
def ladder_round(
    context: GeoContext,
    inputs: Inputs,
    reference: Reference,
    workdir: Workdir,
    ledger: Ledger,
    slowdowns: List[float],
) -> Tuple[Dict[str, float], Dict[str, PassReport]]:
    """Every rung once, untraced, on the same events; corrected seconds per rung."""
    walls: Dict[str, float] = {}
    reports: Dict[str, PassReport] = {}
    batched: List[PipelineResult] = []
    streamed: List[PipelineResult] = []

    def batch() -> float:
        started = time.perf_counter()
        batched.extend(sequential(context, inputs))
        return time.perf_counter() - started

    def serve(rung: Rung) -> float:
        reports[rung.name] = run_pass(rung, inputs, reference, workdir, ledger)
        return reports[rung.name].wall_s

    walls["batch_store"] = _corrected(batch, slowdowns)
    ledger.trajectories("ladder batch_store", reference, batched)
    walls["stream_engine"] = _corrected(
        lambda: stream_pass(context, inputs, streamed.append), slowdowns
    )
    ledger.trajectories("ladder stream_engine", reference, streamed)
    for rung in SERVICE_RUNGS:
        walls[rung.name] = _corrected(lambda: serve(rung), slowdowns)
    return walls, reports


def ladder_metrics(rounds: List[Dict[str, float]], events: int) -> Metrics:
    """Corrected microseconds per event per rung (median round), and what each layer adds.

    The deltas telescope: streaming + service + journal + ipc + rest equals
    ``service_durable`` minus ``batch_store``.  ``rest`` is what the durable
    rung differs by beyond the journal and one process boundary: the
    drain-time commit, the second shard's parallelism, and interactions.
    """
    cost = {
        name: _us_per(stats.median(walls[name] for walls in rounds), events)
        for name in RUNG_NAMES
    }
    metrics: Metrics = {
        f"ladder.{name}.us_per_event": (value, "us") for name, value in cost.items()
    }
    journal = cost["thread_journal"] - cost["service_thread"]
    ipc = cost["process_one"] - cost["service_thread"]
    metrics["ladder.streaming_us_per_event"] = (cost["stream_engine"] - cost["batch_store"], "us")
    metrics["ladder.service_us_per_event"] = (cost["service_thread"] - cost["stream_engine"], "us")
    metrics["ladder.journal_us_per_event"] = (journal, "us")
    metrics["ladder.ipc_us_per_event"] = (ipc, "us")
    metrics["ladder.rest_us_per_event"] = (
        cost["service_durable"] - cost["service_thread"] - journal - ipc, "us"
    )
    metrics["ladder.rounds"] = (float(len(rounds)), "count")
    return metrics


# ----------------------------------------------------------------------- the report
def traced_metrics(
    workload: str,
    context: GeoContext,
    inputs: Inputs,
    reference: Reference,
    workdir: Workdir,
    ledger: Ledger,
    untraced: Dict[str, float],
    slowdowns: List[float],
    out_dir: Path,
) -> Metrics:
    """One traced pass per workload; the named workload's spans go to disk."""
    recorders = {name: SpanRecorder() for name in WORKLOADS}
    results: Dict[str, List[PipelineResult]] = {}
    reports: Dict[str, PassReport] = {}

    def offline(name: str, traced: Callable) -> float:
        results[name], wall_s = traced(context, inputs, recorders[name])
        return wall_s

    def served(rung: Rung) -> float:
        reports[rung.name] = run_pass(
            rung, inputs, reference, workdir, ledger, recorder=recorders[rung.name]
        )
        return reports[rung.name].wall_s

    walls: Dict[str, float] = {}
    with watchdog("traced passes"):
        walls["batch_store"] = _corrected(lambda: offline("batch_store", traced_batch), slowdowns)
        walk_slowdown = slowdowns[-1]
        walls["stream_engine"] = _corrected(
            lambda: offline("stream_engine", traced_stream), slowdowns
        )
    for name, produced in results.items():
        ledger.trajectories(f"traced {name}", reference, produced)
    for rung in (SERVICE_THREAD, SERVICE_DURABLE):
        walls[rung.name] = _corrected(lambda: served(rung), slowdowns)
    recorders[workload].write_jsonl(out_dir / f"trace-{workload}.jsonl")

    metrics: Metrics = {
        "trace.overhead_pct": ((walls[workload] / untraced[workload] - 1.0) * 100.0, "%"),
        "trace.spans": (float(len(recorders[workload].spans)), "count"),
    }
    metrics.update(
        engine_metrics(
            recorders["batch_store"], inputs.events, untraced["batch_store"], walk_slowdown
        )
    )
    spans = recorders["stream_engine"]
    calls = spans.durations("ingest") + spans.durations("ingest_pass")
    metrics["streaming.ingest_call_p50_us"] = (stats.percentile(calls, 50.0) * 1e6, "us")
    metrics["ingest_call_p99_us"] = (stats.percentile(calls, 99.0) * 1e6, "us")
    metrics["streaming.pass_ms"] = (stats.mean(spans.durations("ingest_pass")) * 1e3, "ms")
    metrics["streaming.close_object_ms"] = (stats.mean(spans.durations("close_object")) * 1e3, "ms")

    thread, durable = reports["service_thread"], reports["service_durable"]
    metrics["service.ingest_await_us"] = (
        stats.mean(recorders["service_thread"].durations("ingest")) * 1e6, "us"
    )
    metrics["service.mean_batch_size"] = (len(inputs.ops) / thread.batches, "count")
    metrics["service.backpressure_waits"] = (float(thread.backpressure_waits), "count")
    metrics["service.ipc_bytes_per_event"] = (durable.ipc_bytes / inputs.events, "bytes")
    metrics["service.ipc_frames"] = (durable.ipc_frames, "count")
    metrics["service.worker_restarts"] = (durable.worker_restarts, "count")
    metrics["store.commit_ms"] = (durable.commit_s * 1e3, "ms")
    metrics["store.rows_written"] = (float(sum(reference.store_rows.values())), "count")
    return metrics


def layer_report(
    workload: str,
    inputs: Inputs,
    seconds: float,
    workdir: Workdir,
    ledger: Ledger,
    out_dir: Path,
) -> Metrics:
    """Everything ``--trace 1`` prints; writes the named workload's span file."""
    metrics: Metrics = {"datasets.generate_s": (inputs.generate_s, "s")}
    started = time.perf_counter()
    context = build_context(inputs, pipeline_config())
    metrics["parallel.context_build_s"] = (time.perf_counter() - started, "s")
    reference = Reference.build(inputs, sequential(context, inputs))
    metrics["parallel.canonical_us_per_trajectory"] = (
        _us_per(reference.digest_s, len(reference.results)), "us"
    )

    rounds: List[Dict[str, float]] = []
    slowdowns: List[float] = []
    ladder_started = time.perf_counter()
    while not rounds or time.perf_counter() - ladder_started < 0.5 * seconds:
        walls, reports = ladder_round(context, inputs, reference, workdir, ledger, slowdowns)
        rounds.append(walls)
    metrics.update(ladder_metrics(rounds, inputs.events))
    for name, report in reports.items():
        metrics[f"{name}.drain_s"] = (report.drain_s, "s")
    untraced = {name: stats.median(walls[name] for walls in rounds) for name in RUNG_NAMES}
    metrics.update(
        traced_metrics(
            workload, context, inputs, reference, workdir, ledger, untraced, slowdowns, out_dir
        )
    )

    for rung in (SERVICE_THREAD, SERVICE_DURABLE):
        report = run_pass(rung, inputs, reference, workdir, ledger, rate=PACED_RATE_EV_S)
        assert report.open_loop is not None
        metrics.update(paced_metrics(rung.name, reference, report.open_loop, report.sealed_at))
        metrics[f"{rung.name}.queue_depth_max"] = (float(report.queue_depth_max), "count")
    metrics["service.paced_rate_ev_s"] = (float(PACED_RATE_EV_S), "1/s")
    metrics["machine.slowdown"] = (stats.median(slowdowns), "ratio")

    with watchdog("probes"):
        metrics.update(index_probe(context, inputs))
        metrics.update(routing_probe(inputs))
        metrics.update(frame_probe(inputs, reference))
        metrics.update(journal_probe(inputs, workdir))
        metrics.update(store_metrics(store_leg(reference.results, workdir, ledger)))
        metrics.update(parallel_probe(context, inputs, reference))
        metrics.update(observability_probe(inputs))
    metrics["failed_share"] = (ledger.failed / max(1, ledger.attempted), "ratio")
    return metrics
