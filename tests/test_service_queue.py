"""The shard queue's contract (:class:`repro.service.service._ShardQueue`).

One deque per shard, one consumer waiter, a FIFO of producer waiters: the
router appends inline while there is room and awaits ``room()`` only when the
queue is full.  These tests pin what the router and the consumers rely on —
producer order, cancellation, the insertion stamp, the batch-size rule, the
drain hand-off and the order in which two shards' consumers interleave — plus
the latency histogram's batch form, ``Histogram.observe_many``.

The suite does not depend on ``pytest-asyncio``: each test drives its own
event loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import PipelineConfig
from repro.core.errors import ServiceError
from repro.obs.metrics import Histogram
from repro.service import AnnotationService
from repro.service.service import _ShardQueue


def _item(tag: object) -> List[object]:
    return ["event", tag, None, 0.0]


def _config(**service_overrides: object) -> PipelineConfig:
    overrides = {"streaming.micro_batch_size": 5, "streaming.apply_cleaning": True}
    overrides.update({f"service.{key}": value for key, value in service_overrides.items()})
    return PipelineConfig.for_vehicles().with_overrides(overrides)


def _streams(car_dataset) -> Dict[str, list]:
    streams: Dict[str, list] = {}
    for trajectory in sorted(car_dataset.trajectories, key=lambda t: t.points[0].t):
        streams.setdefault(trajectory.object_id, []).extend(trajectory.points)
    return streams


def _replay_cap_rule(length: int, max_batch: int) -> List[int]:
    """Batch sizes the cap rule gives for ``length`` queued items, no refill."""
    sizes = []
    while length:
        size = min(max_batch, max(8, (length + 1) // 2), length)
        sizes.append(size)
        length -= size
    return sizes


# ------------------------------------------------------------------- producers
def test_waiting_producers_resume_in_fifo_order():
    async def run() -> List[int]:
        queue = _ShardQueue(1)
        queue.append(_item("head"))
        resumed: List[int] = []

        async def producer(index: int) -> None:
            await queue.room()
            queue.append(_item(index))
            resumed.append(index)

        tasks = [asyncio.create_task(producer(index)) for index in range(5)]
        await asyncio.sleep(0)  # every producer is now waiting for room
        assert queue._waiting == 5
        taken = []
        while len(taken) < 6:
            batch = await asyncio.wait_for(queue.take(1), timeout=5.0)
            taken.extend(item[1] for item in batch)  # type: ignore[union-attr]
            await asyncio.sleep(0)
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)
        assert taken == ["head", 0, 1, 2, 3, 4]
        return resumed

    assert asyncio.run(run()) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("woken_first", [False, True])
def test_a_cancelled_producer_strands_no_other_producer(woken_first):
    """Cancelled while waiting, or after being woken but before it could use
    the slot: either way every other producer still gets in."""

    async def run() -> List[object]:
        queue = _ShardQueue(1)
        queue.append(_item("head"))

        async def producer(tag: str) -> None:
            await queue.room()
            queue.append(_item(tag))

        tasks = {tag: asyncio.create_task(producer(tag)) for tag in "abc"}
        await asyncio.sleep(0)
        if woken_first:
            await queue.take(1)  # frees the slot and wakes "a" ...
            tasks["a"].cancel()  # ... which is cancelled before it resumes
        else:
            tasks["b"].cancel()  # cancelled while still waiting in line
            await asyncio.sleep(0)
            await queue.take(1)
        taken: List[object] = []
        for _ in range(2):
            await asyncio.sleep(0)
            batch = await asyncio.wait_for(queue.take(1), timeout=5.0)
            taken.extend(item[1] for item in batch)  # type: ignore[union-attr]
        results = await asyncio.gather(*tasks.values(), return_exceptions=True)
        cancelled = "a" if woken_first else "b"
        assert [isinstance(result, asyncio.CancelledError) for result in results] == [
            tag == cancelled for tag in tasks
        ]
        assert queue._waiting == 0 and not queue._producers
        return taken

    taken = asyncio.run(run())
    assert taken == (["b", "c"] if woken_first else ["a", "c"])


def test_stamp_is_taken_at_insertion_not_at_call_time():
    async def run() -> None:
        queue = _ShardQueue(1)
        queue.append(_item("head"))
        item = _item("late")
        seen: Dict[str, float] = {}

        async def producer() -> None:
            seen["called"] = time.perf_counter()
            await queue.room()
            seen["woken"] = time.perf_counter()
            queue.append(item)

        task = asyncio.create_task(producer())
        await asyncio.sleep(0.02)  # the producer waits this long for room
        await queue.take(1)
        await asyncio.wait_for(task, timeout=5.0)
        assert seen["called"] + 0.015 <= seen["woken"] <= item[3]  # type: ignore[operator]

    asyncio.run(run())


# --------------------------------------------------------------------- batches
@pytest.mark.parametrize(
    "queue_depth,max_batch", [(4, 4), (8, 64), (20, 7), (64, 64), (128, 64), (200, 16)]
)
def test_burst_batch_sizes_replay_the_cap_rule(queue_depth, max_batch):
    async def run() -> List[int]:
        queue = _ShardQueue(queue_depth)
        for index in range(queue_depth):
            queue.append(_item(index))
        queue.close()
        sizes, order = [], []
        while True:
            batch = await queue.take(max_batch)
            if batch is None:
                break
            sizes.append(len(batch))
            order.extend(item[1] for item in batch)
        assert order == list(range(queue_depth))
        return sizes

    assert asyncio.run(run()) == _replay_cap_rule(queue_depth, max_batch)


def test_take_waits_for_a_producer_that_still_owes_an_item():
    """Closed and empty, but a producer is inside ``room()``: not the end yet."""

    async def run() -> List[object]:
        queue = _ShardQueue(1)
        queue.append(_item("head"))

        async def producer() -> None:
            await queue.room()
            queue.append(_item("owed"))

        task = asyncio.create_task(producer())
        await asyncio.sleep(0)
        queue.close()
        taken = [item[1] for item in await queue.take(8)]  # type: ignore[union-attr]
        # The producer was woken but has not appended yet.
        assert not queue.items and queue._waiting == 1
        owed = await asyncio.wait_for(queue.take(8), timeout=5.0)
        taken.extend(item[1] for item in owed)  # type: ignore[union-attr]
        assert await asyncio.wait_for(queue.take(8), timeout=5.0) is None
        await task
        return taken

    assert asyncio.run(run()) == ["head", "owed"]


# ----------------------------------------------------------------- the service
def test_drain_absorbs_a_producer_waiting_for_room(annotation_sources, car_dataset):
    streams = _streams(car_dataset)
    object_id = max(streams, key=lambda oid: len(streams[oid]))
    points = streams[object_id][:6]
    config = _config(shards=1, queue_depth=2, max_batch=2, transport="thread")

    async def run() -> AnnotationService:
        service = repro.serve(annotation_sources, config=config)
        await service.start()
        shard = service._shards[0]
        submit = shard.submit
        gate = asyncio.Event()

        async def gated_submit(batch):
            await gate.wait()
            await submit(batch)

        shard.submit = gated_submit  # type: ignore[method-assign]
        for point in points[:2]:
            await service.ingest(object_id, point)
        await asyncio.sleep(0)  # the consumer takes both and blocks on the gate
        for point in points[2:4]:
            await service.ingest(object_id, point)  # full again
        waiting = asyncio.create_task(service.ingest(object_id, points[4]))
        await asyncio.sleep(0)
        assert service._queues[0]._waiting == 1
        drained = asyncio.create_task(service.drain())
        await asyncio.sleep(0)
        assert service._state == "draining"
        gate.set()
        await asyncio.wait_for(waiting, timeout=10.0)
        await asyncio.wait_for(drained, timeout=10.0)
        with pytest.raises(ServiceError):
            await service.ingest(object_id, points[5])
        with pytest.raises(ServiceError):
            await service.close_object(object_id)
        await service.shutdown()
        return service

    service = asyncio.run(run())
    assert service.stats.events == 5
    assert service.stats.backpressure_waits == 1
    assert service.dropped_events == 0
    assert service.delivered_events == 5


def test_a_flooded_shard_yields_to_the_other_between_batches(annotation_sources, car_dataset):
    """Shard A's queue is full, shard B holds one event: B's event is absorbed
    before A's second batch — the consumer's yield interleaves them."""
    streams = _streams(car_dataset)
    config = _config(shards=2, queue_depth=32, max_batch=8, transport="thread")
    service = repro.serve(annotation_sources, config=config)
    by_shard: Dict[int, str] = {}
    for object_id in sorted(streams, key=lambda oid: -len(streams[oid])):
        by_shard.setdefault(service.shard_for(object_id), object_id)
    assert set(by_shard) == {0, 1}, "the car fleet should cover both shards"
    flooded, single = by_shard[0], by_shard[1]
    assert len(streams[flooded]) >= config.service.queue_depth
    folds: List[int] = []

    async def run() -> None:
        await service.start()
        apply_ack = service._apply_ack

        def recording_apply_ack(shard, ack, batch=()):
            folds.append(shard.index)
            apply_ack(shard, ack, batch)

        service._apply_ack = recording_apply_ack  # type: ignore[method-assign]
        # No await below suspends until the drain: both queues fill first.
        for point in streams[flooded][: config.service.queue_depth]:
            await service.ingest(flooded, point)
        await service.ingest(single, streams[single][0])
        assert service.queue_depths() == [config.service.queue_depth, 1]
        await service.drain()
        await service.shutdown()

    asyncio.run(run())
    assert service.dropped_events == 0
    # 32 items at a cap of 8: A needs four batches, B one, and B comes second.
    assert folds == [0, 1, 0, 0, 0]


# ------------------------------------------------------------------- histogram
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5),
)
def test_observe_many_equals_a_loop_of_observe(values, before):
    buckets = (0.001, 0.01, 0.1, 1.0)
    one_by_one = Histogram("h", (), buckets=buckets)
    batched = Histogram("h", (), buckets=buckets)
    for histogram in (one_by_one, batched):
        for value in before:  # start from the same non-empty state
            histogram.observe(value)
    for value in values:
        one_by_one.observe(value)
    batched.observe_many(values)
    assert repr(batched.sum) == repr(one_by_one.sum)
    assert repr(batched.max_value) == repr(one_by_one.max_value)
    assert batched.counts == one_by_one.counts
    assert batched.count == one_by_one.count
