"""Load generation: one process, one thread, coroutines only.

``closed_loop`` models callers that wait for the previous call to return
(``await ingest`` is the backpressure), so a slow system receives less load.
``open_loop`` models independent emitters: operations are sent on a fixed
schedule whatever the system does, and every latency is charged from the
moment the operation was *due*, so a stall is paid by the operations queued
behind it; how late the generator itself ran is reported alongside.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, List, Sequence

from bench.fleet import Op

Ingest = Callable[[str, object], Awaitable[None]]
Close = Callable[[str], Awaitable[None]]


async def closed_loop(ops: Sequence[Op], ingest: Ingest, close: Close) -> None:
    """Replay the interleaved schedule unpaced: the next operation leaves when the
    previous call returned, so a full shard queue (``await ingest``) is the brake.

    One feeder over the ``LANES``-way interleave rather than ``LANES`` emitter
    coroutines: ``asyncio.Queue.put`` does not yield until the queue is full,
    so unfair coroutines would deliver each object as one burst — another
    arrival order than the engine and open-loop feeds see, and a kinder one
    (a micro-batch of one object instead of 64), which would break the ladder.
    """
    for object_id, point in ops:
        if point is None:
            await close(object_id)
        else:
            await ingest(object_id, point)


def due_times(count: int, rate: float) -> List[float]:
    """The fixed schedule: operation ``i`` is due ``i / rate`` seconds after the start."""
    return [index / rate for index in range(count)]


@dataclass
class OpenLoopReport:
    """When the schedule started, and per operation how late it left and returned."""

    started: float = 0.0
    due: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    """Send time minus due time: the generator's own lateness."""
    accepted: List[float] = field(default_factory=list)
    """Return time of the call minus due time."""


async def open_loop(
    ops: Sequence[Op],
    rate: float,
    ingest: Ingest,
    close: Close,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> OpenLoopReport:
    """Send ``ops`` at ``rate`` per second; each wake-up sends everything due."""
    report = OpenLoopReport(started=clock(), due=due_times(len(ops), rate))
    started, due = report.started, report.due
    late, accepted = report.late, report.accepted
    index = 0
    while index < len(ops):
        now = clock() - started
        if due[index] > now:
            await sleep(due[index] - now)
            continue
        object_id, point = ops[index]
        late.append(now - due[index])
        if point is None:
            await close(object_id)
        else:
            await ingest(object_id, point)
        accepted.append(clock() - started - due[index])
        index += 1
    return report
