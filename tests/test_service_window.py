"""The process shard's window: un-acked frames are bounded in bytes.

A :class:`~repro.service.workers.ProcessShard` sends a frame while the
un-acked frame bytes stay within half the request pipe's capacity, or when
nothing is in flight.  These tests watch the pipe from outside the shard: a
:class:`WorkerProcess` substitute counts every message it sends (its 4-byte
length prefix included) until the matching response is read, so the bound is
checked against what the pipe could actually hold, not against the shard's
own bookkeeping.

A window that overruns the pipe deadlocks (the parent blocks in
``send_bytes`` while the worker blocks writing an ack), and a deadlock must
fail CI, not hang it: every pass runs under ``asyncio.wait_for``, and a send
that blocks the event loop itself is failed by conftest's SIGALRM watchdog.

No ``pytest-asyncio`` in the container: each test drives its own event loop
with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from collections import deque
from typing import Deque, List

import pytest

from repro.parallel.canonical import canonical_bytes
from repro.parallel.context import GeoContext
from repro.parallel.process import WorkerProcess
from repro.service import AnnotationService, shard as shard_module, workers
from repro.service.workers import DRAIN_FRAME, ProcessShard
from repro.store.store import SemanticTrajectoryStore
from test_service_process import (
    _assert_metrics_match_ledger,
    _object_streams,
    _sequential_reference,
    _service_config,
)

#: Seconds one service pass may take before the test fails.
_PASS_TIMEOUT_S = 60.0
#: A ``multiprocessing`` message's length prefix.
_PREFIX = 4


class _LedgerWorker(WorkerProcess):
    """A worker that keeps the un-acked message sizes of its request pipe.

    Every request gets exactly one response, in order, so a response read
    retires the oldest un-acked message.
    """

    workers: List["_LedgerWorker"] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.capacity = self.request_capacity()
        self.unacked: Deque[int] = deque()
        #: Peak un-acked bytes, prefixes included.
        self.peak_bytes = 0
        #: Peak un-acked frames (messages other than the drain frame).
        self.peak_frames = 0
        #: ``(message bytes, messages un-acked before it)`` per send.
        self.sends: List[tuple] = []
        _LedgerWorker.workers.append(self)

    def send(self, request):
        unacked = getattr(self, "unacked", None)
        if unacked is not None:  # not the spawn-time argument pickle
            self.sends.append((len(request), len(unacked)))
            unacked.append(len(request) + _PREFIX)
            self.peak_bytes = max(self.peak_bytes, sum(unacked))
            if request != DRAIN_FRAME:
                self.peak_frames = max(self.peak_frames, len(unacked))
        super().send(request)


@pytest.fixture()
def ledger(monkeypatch):
    """Shard workers are :class:`_LedgerWorker`\\ s; yields the list of them."""
    _LedgerWorker.workers = []
    monkeypatch.setattr(workers, "WorkerProcess", _LedgerWorker)
    receive = ProcessShard._recv

    async def counted_recv(self):
        worker = self._worker
        ack = await receive(self)
        worker.unacked.popleft()
        return ack

    monkeypatch.setattr(ProcessShard, "_recv", counted_recv)
    return _LedgerWorker.workers


@pytest.fixture()
def slow_core(monkeypatch):
    """Shard workers absorb slowly, so the parent runs ahead of them.

    Forked workers inherit the substitution (``workers`` looks the core up at
    call time).
    """

    class SlowCore(shard_module.ShardCore):
        def absorb(self, ops):
            time.sleep(0.005)
            return super().absorb(ops)

    monkeypatch.setattr(shard_module, "ShardCore", SlowCore)


def _run(service: AnnotationService, feed) -> None:
    async def run() -> None:
        async with service:
            await feed(service)
            await service.drain()

    async def bounded() -> None:
        await asyncio.wait_for(run(), _PASS_TIMEOUT_S)

    asyncio.run(bounded())


async def _feed_all(service: AnnotationService, streams) -> None:
    for object_id in sorted(streams):
        for point in streams[object_id]:
            await service.ingest(object_id, point)
        await service.close_object(object_id)


def _assert_matches_sequential(service, config, context, streams) -> None:
    """No trajectory lost, none duplicated, each canonically sequential's."""
    ids = [result.trajectory.trajectory_id for result in service.results]
    assert len(ids) == len(set(ids))
    by_service = {result.trajectory.trajectory_id: result for result in service.results}
    sequential = _sequential_reference(config, context, streams)
    assert set(by_service) == {result.trajectory.trajectory_id for result in sequential}
    for expected in sequential:
        trajectory_id = expected.trajectory.trajectory_id
        assert canonical_bytes([by_service[trajectory_id]]) == canonical_bytes([expected])


def test_unacked_bytes_never_exceed_the_request_pipe(
    annotation_sources, car_dataset, ledger, slow_core
):
    """Frames, prefixes and the drain frame together fit the pipe, and the
    window holds more than the two frames the old cap allowed."""
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(shards=2, transport="process")
    context = GeoContext.build(annotation_sources, config)
    service = AnnotationService(context)
    gauge_peak = [0.0]

    async def feed(service: AnnotationService) -> None:
        gauge = service.registry.value
        for object_id in sorted(streams):
            for point in streams[object_id]:
                await service.ingest(object_id, point)
                reading = gauge("service_inflight_bytes", shard="0") or 0.0
                gauge_peak[0] = max(gauge_peak[0], reading)
            await service.close_object(object_id)

    _run(service, feed)
    assert service.stats.errors == 0 and service.dropped_events == 0
    assert len(ledger) == 2
    for worker in ledger:
        assert worker.peak_bytes <= worker.capacity
        assert worker.sends[-1][0] == len(DRAIN_FRAME)
        assert not worker.unacked  # every message answered, the drain's too
    assert max(worker.peak_frames for worker in ledger) > 2
    # The gauge reads the shard's un-acked frame bytes: up while frames wait
    # in the pipe, within the pipe, and back to 0 once every frame is acked.
    assert 0 < gauge_peak[0] <= ledger[0].capacity
    for index in range(service.shard_count):
        assert service.registry.value("service_inflight_bytes", shard=str(index)) == 0
    _assert_matches_sequential(service, config, context, streams)


def test_the_window_gauge_reads_zero_in_process(annotation_sources, car_dataset):
    """Under the thread transport nothing is ever in flight."""
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(shards=2, transport="thread")
    service = AnnotationService(GeoContext.build(annotation_sources, config))
    _run(service, lambda service: _feed_all(service, streams))
    assert service.stats.results > 0
    for index in range(service.shard_count):
        assert service.registry.value("service_inflight_bytes", shard=str(index)) == 0


@pytest.mark.skipif(
    sys.platform != "linux" or os.sysconf("SC_PAGE_SIZE") > 4096,
    reason="F_SETPIPE_SZ is Linux-only; a page wider than 4 KiB holds whole frames",
)
def test_a_frame_larger_than_the_window_flows_alone(
    annotation_sources, car_dataset, ledger, monkeypatch, tmp_path
):
    """One-page pipes: a frame wider than half a page goes out only when
    nothing is in flight, and a journaled 2-shard pass still drains to
    sequential's trajectories."""
    import fcntl

    page = os.sysconf("SC_PAGE_SIZE")
    spawn = _LedgerWorker.__init__

    def one_page_pipes(self, *args, **kwargs):
        spawn(self, *args, **kwargs)
        for connection in (self.requests, self.responses):
            fcntl.fcntl(connection.fileno(), fcntl.F_SETPIPE_SZ, page)
        self.capacity = self.request_capacity()

    monkeypatch.setattr(_LedgerWorker, "__init__", one_page_pipes)
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(
        shards=2, transport="process", journal_dir=str(tmp_path / "wal")
    )
    context = GeoContext.build(annotation_sources, config)
    store = SemanticTrajectoryStore()
    service = AnnotationService(context, store=store, persist=True)
    _run(service, lambda service: _feed_all(service, streams))

    assert service.stats.errors == 0 and service.dropped_events == 0
    window = page // 2
    wide = 0
    for worker in ledger:
        assert worker.capacity == page
        assert worker.peak_bytes <= page
        for size, unacked_before in worker.sends:
            if size > window:
                wide += 1
                assert unacked_before == 0, (size, unacked_before)
    assert wide > 0  # the pass did send frames wider than the window
    _assert_matches_sequential(service, config, context, streams)
    assert len(store.trajectory_ids()) == len(service.results)
    store.close()


def test_a_worker_killed_with_frames_in_flight_recovers_exactly(
    annotation_sources, car_dataset, ledger, slow_core, tmp_path
):
    """SIGKILL a worker while it holds several un-acked frames: the WAL
    prefix replay loses no trajectory and duplicates none."""
    streams = _object_streams(car_dataset.trajectories)
    config = _service_config(
        shards=2,
        transport="process",
        journal_dir=str(tmp_path / "wal"),
        journal_fsync_batch=1,
    )
    context = GeoContext.build(annotation_sources, config)
    service = AnnotationService(context)
    in_flight: List[int] = []

    async def kill_with_frames_in_flight(service: AnnotationService) -> None:
        victim = service._shards[0]
        deadline = time.perf_counter() + _PASS_TIMEOUT_S / 2
        while len(victim._pending) < 3:
            assert time.perf_counter() < deadline, "never had three frames in flight"
            await asyncio.sleep(0.001)
        in_flight.append(len(victim._pending))
        os.kill(victim.pid, signal.SIGKILL)

    async def feed(service: AnnotationService) -> None:
        killer = asyncio.create_task(kill_with_frames_in_flight(service))
        await _feed_all(service, streams)
        await killer

    _run(service, feed)
    assert in_flight and in_flight[0] >= 3
    assert service.failure_log.worker_losses >= 1
    assert service.failure_log.wal_replayed > 0
    assert service.dropped_events == 0 and service.quarantined_count == 0
    _assert_metrics_match_ledger(service)
    _assert_matches_sequential(service, config, context, streams)
