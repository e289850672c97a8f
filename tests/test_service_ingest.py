"""Tests for the asyncio ingestion service (:mod:`repro.service`).

The headline guarantee mirrors the streaming-parity suite one level up:
events from many concurrent emitters, interleaved, backpressured and sharded,
must drain to output canonically byte-identical to the sequential pipeline on
the same delivered events — plus the service-specific behaviours (bounded
queues, producer awaits, LRU session eviction, lifecycle errors, the stdlib
HTTP facade).

No ``pytest-asyncio`` in the container: each test drives its own event loop
with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Callable, Dict, List, Tuple

import pytest

import repro
from repro.core import PipelineConfig
from repro.core.errors import ConfigurationError, ServiceError
from repro.core.points import SpatioTemporalPoint
from repro.parallel.canonical import canonical_bytes
from repro.parallel.context import GeoContext
from repro.service import AnnotationService, ConsistentHashRing, HttpIngestServer
from repro.service import shard as shard_module
from repro.store.store import SemanticTrajectoryStore

#: Everything the service promises is transport-independent: the suites below
#: run once per transport, whatever ``auto`` would resolve to on this machine.
both_transports = pytest.mark.parametrize("transport", ["thread", "process"])


def _service_config(**service_overrides: object) -> PipelineConfig:
    """Vehicle defaults with full-stream cleaning on and service knobs set."""
    overrides = {"streaming.micro_batch_size": 5, "streaming.apply_cleaning": True}
    overrides.update({f"service.{key}": value for key, value in service_overrides.items()})
    return PipelineConfig.for_vehicles().with_overrides(overrides)


def _object_streams(*trajectory_lists) -> Dict[str, List[SpatioTemporalPoint]]:
    """Concatenate each object's trajectories into one raw point stream."""
    grouped: Dict[str, list] = {}
    for trajectories in trajectory_lists:
        for trajectory in trajectories:
            grouped.setdefault(trajectory.object_id, []).append(trajectory)
    streams: Dict[str, List[SpatioTemporalPoint]] = {}
    for object_id, trajectories in grouped.items():
        trajectories.sort(key=lambda trajectory: trajectory.points[0].t)
        points = [point for trajectory in trajectories for point in trajectory.points]
        assert all(a.t <= b.t for a, b in zip(points, points[1:])), object_id
        streams[object_id] = points
    return streams


async def _wait_until(predicate: Callable[[], bool], timeout: float = 10.0) -> None:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached in time")


# ---------------------------------------------------------------------- routing
class TestConsistentHashRing:
    def test_routing_is_deterministic_across_instances(self):
        ids = [f"obj-{i}" for i in range(200)]
        first = ConsistentHashRing(4)
        second = ConsistentHashRing(4)
        assert [first.shard_for(i) for i in ids] == [second.shard_for(i) for i in ids]

    def test_every_shard_gets_work(self):
        ring = ConsistentHashRing(4)
        counts = ring.distribution([f"user-{i}" for i in range(400)])
        assert set(counts) == {0, 1, 2, 3}
        assert all(count > 0 for count in counts.values())

    def test_resize_remaps_a_minority_of_keys(self):
        ids = [f"car-{i}" for i in range(1000)]
        before = ConsistentHashRing(4)
        after = ConsistentHashRing(5)
        moved = sum(before.shard_for(i) != after.shard_for(i) for i in ids)
        # Consistent hashing moves ~1/5 of keys; modulo hashing would move ~4/5.
        assert moved < len(ids) // 2

    def test_remembered_routes_equal_hashed_routes(self, monkeypatch):
        monkeypatch.setattr(ConsistentHashRing, "_MAX_CACHED", 8)
        ids = [f"bus-{i}" for i in range(30)]
        cold = [ConsistentHashRing(3).shard_for(i) for i in ids]  # a fresh ring per id
        ring = ConsistentHashRing(3)
        # 30 ids through a cache of 8: every lookup of the first pass misses,
        # and the cache is cleared three times on the way.
        assert [ring.shard_for(i) for i in ids] == cold
        assert len(ring._cache) <= 8
        assert [ring.shard_for(i) for i in ids[-6:]] == cold[-6:]  # warm: all hits
        assert len(ring._cache) == 6
        assert [ring.shard_for(i) for i in ids[:3]] == cold[:3]  # the third one clears
        assert len(ring._cache) == 1
        assert ring.shard_for(ids[-1]) == cold[-1]  # just cleared: hashed again

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(0)
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(2, replicas=0)


# ----------------------------------------------------------------- backpressure
def test_backpressure_bounds_queue_and_awaits_producer(
    annotation_sources, car_dataset, monkeypatch
):
    """A full shard queue suspends the producer; depth never exceeds the bound.

    A slow shard core stands in for a saturated shard; the in-process
    transport is pinned (``test_service_process`` stalls a worker process to
    the same end).
    """

    class SlowCore(shard_module.ShardCore):
        def absorb(self, ops):
            time.sleep(0.002)  # the producer demonstrably outruns the shard
            return super().absorb(ops)

    monkeypatch.setattr(shard_module, "ShardCore", SlowCore)
    config = _service_config(shards=1, queue_depth=4, max_batch=4, transport="thread")
    points = _object_streams(car_dataset.trajectories)
    object_id, stream = next(iter(sorted(points.items())))
    stream = stream[:200]

    async def run() -> Tuple[AnnotationService, int]:
        service = repro.serve(annotation_sources, config=config)
        max_depth = 0
        async with service:
            for point in stream:
                await service.ingest(object_id, point)
                max_depth = max(max_depth, service.queue_depths()[0])
            await service.drain()
        return service, max_depth

    service, max_depth = asyncio.run(run())
    assert max_depth <= config.service.queue_depth
    assert service.stats.backpressure_waits > 0
    assert service.metrics.backpressure_waits.value == service.stats.backpressure_waits
    assert service.stats.events == len(stream)
    assert service.dropped_events == 0


# ----------------------------------------------------------------- drain parity
@both_transports
def test_drain_parity_with_killed_emitters(
    annotation_sources, taxi_dataset, car_dataset, people_dataset, transport
):
    """Interleaved emitters from every seed dataset, some killed mid-stream:
    the drained service output and store rows match the sequential pipeline on
    exactly the delivered events, canonical bytes included."""
    config = _service_config(shards=3, queue_depth=32, max_batch=7, transport=transport)
    streams = _object_streams(
        taxi_dataset.trajectories, car_dataset.trajectories, people_dataset.all_trajectories
    )
    # Every third emitter is killed mid-stream: only a prefix is delivered and
    # the object is never explicitly closed — drain seals whatever is open.
    delivered: Dict[str, List[SpatioTemporalPoint]] = {}
    for index, object_id in enumerate(sorted(streams)):
        points = streams[object_id]
        truncated = index % 3 == 2
        delivered[object_id] = points[: max(4, int(len(points) * 0.6))] if truncated else points

    context = GeoContext.build(annotation_sources, config)

    service_store = SemanticTrajectoryStore()

    async def run() -> AnnotationService:
        service = AnnotationService(context, store=service_store, persist=True)
        async with service:
            live = {object_id: iter(points) for object_id, points in delivered.items()}
            survivors = {
                object_id
                for index, object_id in enumerate(sorted(streams))
                if index % 3 != 2
            }
            while live:
                finished = []
                for object_id, iterator in live.items():
                    point = next(iterator, None)
                    if point is None:
                        finished.append(object_id)
                        continue
                    await service.ingest(object_id, point)
                for object_id in finished:
                    del live[object_id]
                    if object_id in survivors:
                        await service.close_object(object_id)
            await service.drain()
        return service

    service = asyncio.run(run())
    assert service.dropped_events == 0
    assert service.stats.errors == 0
    assert service.stats.events == sum(len(points) for points in delivered.values())

    # Sequential reference: the plain pipeline on the same delivered streams.
    sequential_store = SemanticTrajectoryStore()
    pipeline = repro.open_pipeline(config)
    sequential = []
    for object_id in sorted(delivered):
        raw = pipeline.ingest_stream(delivered[object_id], object_id=object_id)
        sequential.extend(
            repro.annotate_many(
                raw, config=config, context=context, store=sequential_store, persist=True
            )
        )

    by_service = {r.trajectory.trajectory_id: r for r in service.results}
    by_sequential = {r.trajectory.trajectory_id: r for r in sequential}
    assert set(by_service) == set(by_sequential)
    for trajectory_id, expected in by_sequential.items():
        assert canonical_bytes([by_service[trajectory_id]]) == canonical_bytes([expected]), (
            trajectory_id
        )

    # Store rows committed at drain follow the same deterministic order the
    # sequential run wrote, so the two stores agree row for row.
    assert service_store.trajectory_ids() == sequential_store.trajectory_ids()
    assert service_store.stop_move_summary() == sequential_store.stop_move_summary()
    assert service_store.annotation_count() == sequential_store.annotation_count()
    assert service_store.category_histogram() == sequential_store.category_histogram()
    for trajectory_id in sequential_store.trajectory_ids():
        service_rows = service_store.episodes_for(trajectory_id)
        sequential_rows = sequential_store.episodes_for(trajectory_id)
        strip = lambda rows: [
            {key: value for key, value in row.items() if key != "episode_id"} for row in rows
        ]
        assert strip(service_rows) == strip(sequential_rows)
        for service_row, sequential_row in zip(service_rows, sequential_rows):
            assert service_store.annotations_for(
                service_row["episode_id"]
            ) == sequential_store.annotations_for(sequential_row["episode_id"])
    service_store.close()
    sequential_store.close()


def test_all_object_streams_land_on_their_ring_shard(annotation_sources, car_dataset):
    config = _service_config(shards=4)
    service = repro.serve(annotation_sources, config=config)
    for object_id in _object_streams(car_dataset.trajectories):
        assert service.shard_for(object_id) == ConsistentHashRing(
            4, replicas=config.service.ring_replicas
        ).shard_for(object_id)


# --------------------------------------------------------------------- eviction
@both_transports
def test_session_budget_evicts_lru_sessions(annotation_sources, car_dataset, transport):
    """More live objects than the budget: LRU sessions close gracefully and
    every delivered event is still absorbed."""
    config = _service_config(shards=1, session_budget=3, transport=transport)
    streams = _object_streams(car_dataset.trajectories)
    assert len(streams) > 3

    async def run() -> AnnotationService:
        service = repro.serve(annotation_sources, config=config)
        async with service:
            for object_id, points in sorted(streams.items()):
                for point in points[:40]:
                    await service.ingest(object_id, point)
            await service.drain()
        return service

    service = asyncio.run(run())
    assert service.sessions_evicted >= len(streams) - 3
    # Budget evictions are counted too, by the fold, as acks report them.
    assert service.metrics.sessions_evicted.value == service.sessions_evicted
    assert service.dropped_events == 0
    assert {r.trajectory.object_id for r in service.results} == set(streams)


@both_transports
def test_explicit_eviction_closes_sessions(annotation_sources, car_dataset, transport):
    config = _service_config(shards=1, queue_depth=64, transport=transport)
    streams = _object_streams(car_dataset.trajectories)

    async def run() -> Tuple[AnnotationService, int, int]:
        service = repro.serve(annotation_sources, config=config)
        async with service:
            for object_id, points in sorted(streams.items()):
                for point in points[:20]:
                    await service.ingest(object_id, point)
            await _wait_until(lambda: service.queue_depths()[0] == 0)
            await _wait_until(lambda: service.open_session_count == len(streams))
            before = service.open_session_count
            await service.evict_sessions(0)
            await _wait_until(lambda: service.open_session_count == 0)
            after = service.open_session_count
            await service.drain()
        return service, before, after

    service, before, after = asyncio.run(run())
    assert before == len(streams)
    assert after == 0
    assert service.sessions_evicted >= len(streams)
    assert service.metrics.sessions_evicted.value == service.sessions_evicted
    # The evicted sessions sealed their open trajectories.
    assert {r.trajectory.object_id for r in service.results} == set(streams)


# -------------------------------------------------------------------- lifecycle
@both_transports
def test_lifecycle_contract(annotation_sources, car_dataset, transport):
    config = _service_config(shards=1, transport=transport)
    streams = _object_streams(car_dataset.trajectories)
    object_id, points = next(iter(sorted(streams.items())))

    async def run() -> None:
        service = repro.serve(annotation_sources, config=config)
        with pytest.raises(ServiceError):
            await service.ingest(object_id, points[0])
        with pytest.raises(ServiceError):
            await service.drain()
        await service.start()
        with pytest.raises(ServiceError):
            await service.start()
        for point in points[:30]:
            await service.ingest(object_id, point)
        first = await service.drain()
        assert first  # the open trajectory sealed
        assert await service.drain() == first  # idempotent
        with pytest.raises(ServiceError):
            await service.ingest(object_id, points[0])
        assert await service.shutdown() == first

    asyncio.run(run())


@both_transports
def test_results_callback_and_prometheus_rendering(annotation_sources, car_dataset, transport):
    config = _service_config(shards=2, transport=transport)
    streams = _object_streams(car_dataset.trajectories)
    seen: List[str] = []

    async def run() -> AnnotationService:
        service = repro.serve(
            annotation_sources,
            config=config,
            on_result=lambda result: seen.append(result.trajectory.trajectory_id),
        )
        async with service:
            for object_id, points in sorted(streams.items()):
                await service.ingest_many((object_id, point) for point in points[:25])
            await service.drain()
        return service

    service = asyncio.run(run())
    assert seen == [r.trajectory.trajectory_id for r in service.results]
    rendered = service.render_prometheus()
    assert "semitri_service_events_total" in rendered
    assert 'shard="0"' in rendered and 'shard="1"' in rendered
    assert "semitri_service_ingest_latency_seconds_bucket" in rendered
    # p99 enqueue-to-absorbed latency is queryable straight off the histogram.
    assert service.metrics.ingest_latency.percentile(99.0) >= 0.0


# ------------------------------------------------------------------ HTTP facade
async def _http_request(
    port: int, method: str, path: str, payload: object = None
) -> Tuple[int, Dict[str, object], bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {len(body)}\r\n\r\n"
    writer.write(head.encode("ascii") + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    data = await reader.readexactly(length)
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionResetError:
        pass
    parsed: Dict[str, object] = {}
    if data.startswith(b"{"):
        parsed = json.loads(data)
    return status, parsed, data


def test_http_facade_roundtrip(annotation_sources, car_dataset):
    config = _service_config(shards=1)
    streams = _object_streams(car_dataset.trajectories)
    object_id, points = next(iter(sorted(streams.items())))
    events = [{"object_id": object_id, "x": p.x, "y": p.y, "t": p.t} for p in points[:40]]

    async def run() -> None:
        service = repro.serve(annotation_sources, config=config)
        async with service:
            async with HttpIngestServer(service, port=0) as server:
                port = server.port
                status, reply, _ = await _http_request(
                    port, "POST", "/ingest", {"events": events[:30]}
                )
                assert (status, reply) == (200, {"accepted": 30})
                status, reply, _ = await _http_request(port, "POST", "/ingest", events[30])
                assert (status, reply) == (200, {"accepted": 1})
                status, reply, _ = await _http_request(port, "GET", "/healthz")
                assert status == 200 and reply["events"] == 31
                status, reply, _ = await _http_request(
                    port, "POST", "/ingest", {"events": [{"object_id": "broken"}]}
                )
                assert status == 400 and "error" in reply
                status, reply, _ = await _http_request(
                    port, "POST", "/close", {"object_id": object_id}
                )
                assert status == 200
                status, reply, _ = await _http_request(port, "POST", "/drain")
                assert status == 200 and reply["dropped"] == 0 and reply["results"] >= 1
                status, _, raw = await _http_request(port, "GET", "/metrics")
                assert status == 200 and b"semitri_service_events_total" in raw
                status, reply, _ = await _http_request(port, "POST", "/ingest", events[0])
                assert status == 409  # drained services refuse intake
                status, _, _ = await _http_request(port, "GET", "/nope")
                assert status == 404

    asyncio.run(run())
