"""Process-transport tests for the annotation service.

The ``transport="process"`` tier must be observationally identical to the
thread transport (which is itself pinned to the sequential pipeline): same
canonical bytes, same store rows, same no-drop ledger — while actually
running each shard's executor in its own worker process, handed the
service's :class:`GeoContext` as a process argument.  On top of parity, the
worker-loss contract: SIGKILL a shard worker mid-stream and the WAL prefix
replay rebuilds a row-identical store; a stalling worker still bounds producer memory through
the same backpressure path; an object that reproducibly kills fresh workers
is quarantined as proven poison — and nothing else is.

No ``pytest-asyncio`` in the container: each test drives its own event loop
with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import time
from typing import Dict, List, Optional

import pytest

import repro
from repro.core import PipelineConfig
from repro.core.points import SpatioTemporalPoint
from repro.faults.inject import FaultInjector, FaultPlan
from repro.parallel import process
from repro.parallel.canonical import canonical_bytes
from repro.parallel.context import GeoContext
from repro.service import AnnotationService
from repro.store.store import SemanticTrajectoryStore


def _service_config(**service_overrides: object) -> PipelineConfig:
    """Vehicle defaults with full-stream cleaning on and service knobs set."""
    overrides: Dict[str, object] = {
        "streaming.micro_batch_size": 5,
        "streaming.apply_cleaning": True,
    }
    overrides.update({f"service.{key}": value for key, value in service_overrides.items()})
    return PipelineConfig.for_vehicles().with_overrides(overrides)


def _object_streams(trajectories) -> Dict[str, List[SpatioTemporalPoint]]:
    grouped: Dict[str, list] = {}
    for trajectory in trajectories:
        grouped.setdefault(trajectory.object_id, []).append(trajectory)
    streams: Dict[str, List[SpatioTemporalPoint]] = {}
    for object_id, parts in sorted(grouped.items()):
        parts.sort(key=lambda trajectory: trajectory.points[0].t)
        streams[object_id] = [point for trajectory in parts for point in trajectory.points]
    return streams


def _feed_and_drain(
    service: AnnotationService,
    streams: Dict[str, List[SpatioTemporalPoint]],
) -> None:
    async def run() -> None:
        async with service:
            for object_id in sorted(streams):
                for point in streams[object_id]:
                    await service.ingest(object_id, point)
                await service.close_object(object_id)
            await service.drain()

    asyncio.run(run())


def _sequential_reference(config, context, streams):
    pipeline = repro.open_pipeline(config)
    results = []
    for object_id in sorted(streams):
        raw = pipeline.ingest_stream(streams[object_id], object_id=object_id)
        results.extend(repro.annotate_many(raw, config=config, context=context))
    return results


def _assert_stores_identical(
    left: SemanticTrajectoryStore, right: SemanticTrajectoryStore
) -> None:
    assert left.trajectory_ids() == right.trajectory_ids()
    assert left.stop_move_summary() == right.stop_move_summary()
    assert left.annotation_count() == right.annotation_count()
    assert left.category_histogram() == right.category_histogram()
    for trajectory_id in right.trajectory_ids():
        strip = lambda rows: [  # noqa: E731
            {key: value for key, value in row.items() if key != "episode_id"}
            for row in rows
        ]
        left_rows = left.episodes_for(trajectory_id)
        right_rows = right.episodes_for(trajectory_id)
        assert strip(left_rows) == strip(right_rows), trajectory_id
        for left_row, right_row in zip(left_rows, right_rows):
            assert left.annotations_for(left_row["episode_id"]) == right.annotations_for(
                right_row["episode_id"]
            )


def _assert_metrics_match_ledger(service: AnnotationService) -> None:
    """Every ledger count reads the same on ``/metrics`` as on the service.

    A WAL replay re-acks work a dead worker had already acked, so a series
    that counted acks would read above the ledger after a worker loss.
    """
    registry = service.registry

    def total(name: str) -> float:
        return sum(registry.value(name, shard=str(index)) for index in range(service.shard_count))

    assert total("service_events_total") == service.delivered_events == service.stats.events
    assert total("service_results_total") == service.stats.results
    assert registry.value("service_sessions_evicted_total") == service.sessions_evicted
    assert total("service_worker_restarts_total") == service.failure_log.worker_losses
    assert registry.value("wal_replayed_total") == service.failure_log.wal_replayed


# ---------------------------------------------------------------------- parity
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_transport_parity_canonical_bytes_and_store_rows(
    annotation_sources, car_dataset, start_method, monkeypatch
):
    """thread × process drains are canonically identical to sequential.

    Under ``spawn`` the shard workers annotate against the pickle
    ``multiprocessing`` made of the snapshot; under ``fork`` they inherit the
    parent's own copy-on-write.
    """
    monkeypatch.setattr(
        process, "mp_context", lambda: multiprocessing.get_context(start_method)
    )
    streams = _object_streams(car_dataset.trajectories)
    total_events = sum(len(points) for points in streams.values())

    stores: Dict[str, SemanticTrajectoryStore] = {}
    results_by_transport: Dict[str, list] = {}
    reference_context: Optional[GeoContext] = None
    reference_config: Optional[PipelineConfig] = None
    for transport in ("thread", "process"):
        config = _service_config(shards=2, transport=transport)
        context = GeoContext.build(annotation_sources, config)
        store = SemanticTrajectoryStore()
        service = AnnotationService(context, store=store, persist=True)
        assert service.transport == transport
        _feed_and_drain(service, streams)
        assert service.stats.events == total_events
        assert service.dropped_events == 0
        assert service.stats.errors == 0
        _assert_metrics_match_ledger(service)
        if transport == "process":
            # Workers are closed by now, but one handle per shard ran.
            assert len(service.worker_pids) == 2
        stores[transport] = store
        results_by_transport[transport] = service.results
        reference_context, reference_config = context, config

    sequential = _sequential_reference(reference_config, reference_context, streams)
    by_sequential = {r.trajectory.trajectory_id: r for r in sequential}
    for transport, results in results_by_transport.items():
        by_service = {r.trajectory.trajectory_id: r for r in results}
        assert set(by_service) == set(by_sequential), transport
        for trajectory_id, expected in by_sequential.items():
            assert canonical_bytes([by_service[trajectory_id]]) == canonical_bytes(
                [expected]
            ), (transport, trajectory_id)

    _assert_stores_identical(stores["process"], stores["thread"])
    stores["thread"].close()
    stores["process"].close()


def test_forked_shard_workers_never_serialise_the_snapshot(
    annotation_sources, car_dataset, monkeypatch, unpicklable_snapshot
):
    """Arguments of a forked process are inherited, not pickled."""
    monkeypatch.setattr(process, "mp_context", lambda: multiprocessing.get_context("fork"))
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(shards=2, transport="process")
    context = GeoContext.build(annotation_sources, config)
    service = AnnotationService(context)
    _feed_and_drain(service, streams)
    assert len(service.worker_pids) == 2 and service.stats.errors == 0
    by_id = lambda results: sorted(results, key=lambda r: r.trajectory.trajectory_id)  # noqa: E731
    sequential = _sequential_reference(config, context, streams)
    assert canonical_bytes(by_id(service.results)) == canonical_bytes(by_id(sequential))


# ---------------------------------------------------------- worker-loss (WAL)
def test_sigkill_shard_worker_mid_stream_replays_wal(
    annotation_sources, car_dataset, tmp_path
):
    """SIGKILL one shard worker mid-stream: the WAL prefix replay rebuilds
    its session state and the drained store is row-identical to a clean run."""
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(
        shards=2,
        transport="process",
        journal_dir=str(tmp_path / "wal"),
        journal_fsync_batch=1,
    )
    context = GeoContext.build(annotation_sources, config)

    store = SemanticTrajectoryStore()
    service = AnnotationService(context, store=store, persist=True)
    kill_after = sum(len(points) for points in streams.values()) // 3

    async def run() -> None:
        fed = 0
        killed = False
        async with service:
            for object_id in sorted(streams):
                for point in streams[object_id]:
                    await service.ingest(object_id, point)
                    fed += 1
                    if not killed and fed >= kill_after:
                        killed = True
                        # Kill only once shard 0 has acked a frame, so the
                        # dead worker leaves a journal prefix to replay.
                        while service._shards[0].events_absorbed == 0:
                            await asyncio.sleep(0)
                        pid = service.worker_pids[0]
                        assert pid is not None
                        os.kill(pid, signal.SIGKILL)
                await service.close_object(object_id)
            await service.drain()

    asyncio.run(run())
    assert service.failure_log.worker_losses >= 1
    assert service.failure_log.wal_replayed > 0
    assert service.dropped_events == 0
    assert service.quarantined_count == 0  # a crash is not poison
    _assert_metrics_match_ledger(service)

    reference_store = SemanticTrajectoryStore()
    reference = repro.serve(
        GeoContext.build(annotation_sources, _service_config(shards=2)),
        store=reference_store,
        persist=True,
    )
    _feed_and_drain(reference, streams)
    _assert_stores_identical(store, reference_store)
    store.close()
    reference_store.close()


# ------------------------------------------------------------- stalled worker
def test_backpressure_bounds_producer_when_worker_stalls(
    annotation_sources, car_dataset
):
    """A stalling shard worker never unbounds the queue: producers await."""
    streams = _object_streams(car_dataset.trajectories)
    object_id, stream = next(iter(sorted(streams.items())))
    stream = stream[:200]
    config = _service_config(shards=1, queue_depth=4, max_batch=4, transport="process")
    context = GeoContext.build(annotation_sources, config)
    # Stall at every stage execution, forever: the worker is permanently
    # slower than the producer.
    injector = FaultInjector(FaultPlan.parse("stall:secs=0.002,times=-1"))
    service = AnnotationService(context, fault_injector=injector)

    async def run() -> int:
        max_depth = 0
        async with service:
            for point in stream:
                await service.ingest(object_id, point)
                max_depth = max(max_depth, service.queue_depths()[0])
            await service.drain()
        return max_depth

    max_depth = asyncio.run(run())
    assert max_depth <= config.service.queue_depth
    assert service.stats.backpressure_waits > 0
    assert service.dropped_events == 0
    assert service.stats.errors == 0


# ------------------------------------------------------------- proven poison
def test_poison_object_is_quarantined_and_the_rest_survive(
    annotation_sources, car_dataset, tmp_path
):
    """An object that kills every fresh worker is proven poison: quarantined,
    skipped by further intake, and every other object drains normally."""
    streams = _object_streams(car_dataset.trajectories)
    assert len(streams) >= 2
    poison = sorted(streams)[0]
    config = _service_config(
        shards=1,
        transport="process",
        journal_dir=str(tmp_path / "wal"),
        journal_fsync_batch=1,
    )
    context = GeoContext.build(annotation_sources, config)
    store = SemanticTrajectoryStore()
    injector = FaultInjector(FaultPlan.parse(f"kill:obj={poison},times=-1"))
    service = AnnotationService(context, store=store, persist=True, fault_injector=injector)
    _feed_and_drain(service, streams)

    assert service.quarantined_count == 1
    assert service.failure_log.worker_losses >= 2  # initial death + replay probes
    assert service.dropped_events == 0  # poison events count as handled
    _assert_metrics_match_ledger(service)
    survivors = {r.trajectory.object_id for r in service.results}
    assert poison not in survivors
    assert survivors == set(streams) - {poison}
    assert store.quarantine_count() == 1
    assert {row["object_id"] for row in store.quarantined()} == {poison}
    store.close()


# ------------------------------------------------------------ worker lifetime
def _process_alive(pid: int) -> bool:
    """Whether ``pid`` still runs (an un-reaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] not in (b"Z", b"X")
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_shard_workers_die_with_a_sigkilled_service(annotation_sources, car_dataset):
    """SIGKILL the process hosting the service mid-stream: no ``finally``, no
    atexit hook runs, yet every shard worker notices and exits at once —
    each holds only its own pipe ends, so the dead parent reads as EOF."""
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(shards=2, transport="process")
    read_fd, write_fd = os.pipe()
    host = os.fork()
    if host == 0:
        # --- child: host a service, report its worker pids, then just wait ---
        try:

            async def doomed() -> None:
                service = repro.serve(annotation_sources, config=config)
                await service.start()
                for object_id in sorted(streams):
                    for point in streams[object_id][:20]:
                        await service.ingest(object_id, point)
                os.write(write_fd, (json.dumps(service.worker_pids) + "\n").encode())
                await asyncio.sleep(60.0)  # killed long before this returns

            asyncio.run(doomed())
        finally:
            os._exit(3)

    os.close(write_fd)
    with os.fdopen(read_fd) as reader:
        # One line, not EOF: the workers inherited the write end too.
        worker_pids = json.loads(reader.readline())
    assert len(worker_pids) == 2 and all(_process_alive(pid) for pid in worker_pids)
    os.kill(host, signal.SIGKILL)
    os.waitpid(host, 0)
    deadline = time.perf_counter() + 2.0
    while any(map(_process_alive, worker_pids)) and time.perf_counter() < deadline:
        time.sleep(0.02)
    assert not any(map(_process_alive, worker_pids)), "shard workers outlived their parent"


# -------------------------------------------------------- incremental results
def test_process_transport_streams_results_incrementally(
    annotation_sources, car_dataset
):
    """Sealed rows arrive via ``on_result`` while intake is still running,
    not in one burst at drain."""
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(shards=2, transport="process")
    context = GeoContext.build(annotation_sources, config)
    seen_before_drain: List[int] = []
    service = AnnotationService(
        context, on_result=lambda result: seen_before_drain.append(len(seen_before_drain))
    )

    async def run() -> int:
        async with service:
            for object_id in sorted(streams):
                for point in streams[object_id]:
                    await service.ingest(object_id, point)
                await service.close_object(object_id)
            # Give in-flight acks a moment to land before drain is called.
            deadline = time.perf_counter() + 10.0
            while not seen_before_drain and time.perf_counter() < deadline:
                await asyncio.sleep(0.01)
            collected = len(seen_before_drain)
            await service.drain()
            return collected

    collected_before_drain = asyncio.run(run())
    assert collected_before_drain > 0
    assert len(seen_before_drain) == len(service.results)
