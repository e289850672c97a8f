"""The service process runs one thread: its event loop's.

A thread shard's core absorbs on the loop itself and a process shard's acks
are read there too, so neither transport adds a thread to the service
process.  The consumer's yield between batches is what interleaves shards:
a slow shard's batches leave room for the other shard's folds.  An exception
outside ``BATCH_ERRORS`` raised by a core is not an ack; it still ends the
drain.

No ``pytest-asyncio`` in the container: each test drives its own event loop
with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict, List

import pytest

from repro.core import PipelineConfig
from repro.core.points import SpatioTemporalPoint
from repro.parallel.context import GeoContext
from repro.service import AnnotationService
from repro.service import shard as shard_module


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


def _feed_counting_threads(
    service: AnnotationService, streams: Dict[str, List[SpatioTemporalPoint]]
) -> List[int]:
    """Run the service's whole life; ``threading.active_count()`` at each step."""
    counts: List[int] = []

    async def run() -> None:
        counts.append(threading.active_count())
        await service.start()
        counts.append(threading.active_count())
        for object_id in sorted(streams):
            for point in streams[object_id]:
                await service.ingest(object_id, point)
            await service.close_object(object_id)
        counts.append(threading.active_count())
        await service.drain()
        counts.append(threading.active_count())
        await service.shutdown()
        counts.append(threading.active_count())

    asyncio.run(run())
    assert service.dropped_events == 0
    assert service.stats.errors == 0
    return counts


def test_thread_transport_absorbs_on_the_loop_thread(
    annotation_sources, car_dataset, monkeypatch
):
    """start → ingest → drain → shutdown adds no thread; the core runs on the loop's."""
    idents: List[int] = []

    class RecordingCore(shard_module.ShardCore):
        def absorb(self, ops):
            idents.append(threading.get_ident())
            return super().absorb(ops)

        def close_out(self):
            idents.append(threading.get_ident())
            return super().close_out()

    monkeypatch.setattr(shard_module, "ShardCore", RecordingCore)
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(shards=1, transport="thread")
    service = AnnotationService(GeoContext.build(annotation_sources, config))
    counts = _feed_counting_threads(service, streams)

    assert len(set(counts)) == 1, counts
    assert idents, "the patched core never absorbed"
    assert set(idents) == {threading.get_ident()}


def test_process_transport_adds_no_thread_to_the_parent(annotation_sources, car_dataset):
    """Two worker processes, acks read on the loop: the parent stays one thread."""
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(shards=2, transport="process")
    service = AnnotationService(GeoContext.build(annotation_sources, config))
    counts = _feed_counting_threads(service, streams)

    assert len(set(counts)) == 1, counts
    assert service.stats.batches > 0


def test_slow_thread_shard_leaves_room_for_the_other_shards_folds(
    annotation_sources, car_dataset
):
    """Shard 0 takes 2 ms per batch; shard 1's acks still fold between its batches."""
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(shards=2, transport="thread", queue_depth=8, max_batch=4)
    service = AnnotationService(GeoContext.build(annotation_sources, config))
    by_shard: Dict[int, str] = {}
    for object_id in sorted(streams):
        by_shard.setdefault(service.shard_for(object_id), object_id)
    assert set(by_shard) == {0, 1}, "the car fleet should cover both shards"
    slow, fast = by_shard[0], by_shard[1]
    length = min(len(streams[slow]), len(streams[fast]), 200)
    folds: List[int] = []

    async def run() -> None:
        async with service:
            slow_core = service._shards[0].core  # type: ignore[union-attr]
            absorb = slow_core.absorb

            def slow_absorb(ops):
                time.sleep(0.002)
                return absorb(ops)

            slow_core.absorb = slow_absorb
            apply_ack = service._apply_ack

            def recording_apply_ack(shard, ack, batch=()):
                folds.append(shard.index)
                apply_ack(shard, ack, batch)

            service._apply_ack = recording_apply_ack  # type: ignore[method-assign]
            for position in range(length):
                await service.ingest(slow, streams[slow][position])
                await service.ingest(fast, streams[fast][position])
            await service.drain()

    asyncio.run(run())
    assert service.dropped_events == 0
    # A fast fold sits between two slow folds again and again: the consumers
    # interleave instead of one shard running all of its batches in a row.
    between = sum(
        1
        for left, middle, right in zip(folds, folds[1:], folds[2:])
        if (left, middle, right) == (0, 1, 0)
    )
    assert folds.count(0) >= 10 and folds.count(1) >= 10, folds
    assert between >= folds.count(0) // 4, folds


class _Boom(Exception):
    """Outside ``BATCH_ERRORS``: not an ack, a crash."""


def test_exception_outside_batch_errors_propagates_out_of_drain(
    annotation_sources, car_dataset, monkeypatch
):
    assert not issubclass(_Boom, shard_module.BATCH_ERRORS)

    class ExplodingCore(shard_module.ShardCore):
        def absorb(self, ops):
            raise _Boom("core crashed")

    monkeypatch.setattr(shard_module, "ShardCore", ExplodingCore)
    object_id, stream = next(iter(_object_streams(car_dataset.trajectories).items()))
    config = _service_config(shards=1, transport="thread")
    service = AnnotationService(GeoContext.build(annotation_sources, config))

    async def run() -> None:
        async with service:
            for point in stream[:20]:
                await service.ingest(object_id, point)
            await service.drain()

    with pytest.raises(_Boom, match="core crashed"):
        asyncio.run(run())
    assert service.stats.errors == 0  # a crash, not a counted batch error
