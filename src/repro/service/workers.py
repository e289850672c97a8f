"""Process transport of the shard protocol: one worker process per shard.

:class:`ProcessShard` hosts a shard's :class:`~repro.service.shard.ShardCore`
in a dedicated worker process that is handed the parent's
:class:`~repro.parallel.context.GeoContext` as a process argument (inherited
copy-on-write under fork, pickled by ``multiprocessing`` otherwise), so
annotation work escapes the parent's GIL.  The worker is ``decode_frame`` →
``core.absorb`` → ``dump_outcome``: it runs the same core and answers with
the same acks as an in-process shard, and everything transport-specific
lives here.

Wire discipline, chosen for amortized IPC on the hot path:

* **parent → worker** — batched frames over a ``multiprocessing`` pipe, one
  ``send_bytes`` per micro-batch.  A frame is a run of the WAL's binary
  records (:mod:`repro.faults.wire`: one fixed-width record per event, close
  or eviction, object ids interned per connection and defined in-band on
  first use), plus the one-record drain/stop control frames;
* **worker → parent** — the core's acks, written by the result codec
  (:func:`~repro.parallel.context.dump_outcome`, the batch pool's too) on a
  second pipe, one per frame and in frame order.  Both ends hold the same
  snapshot, so every region, road segment and POI a result links to travels
  as a reference into :meth:`~repro.parallel.context.GeoContext.places` and
  comes back as the parent's own object; a reference the parent's snapshot
  does not match raises instead of re-linking.  At most
  :attr:`ProcessShard.max_inflight` frames are un-acked at a time, and a
  reader task per shard folds acks into the service as they arrive (results
  stream back incrementally), reading each on the event loop once
  ``loop.add_reader`` sees the pipe readable.

**Worker loss.**  A worker that dies mid-stream surfaces as EOF on the ack
pipe.  The shard respawns it and replays exactly the journal prefix the dead
worker had been handed (``sent_ops``); duplicates of already-acked results
are dropped by the service's keep-first collection.  A replay that keeps
killing fresh workers is bisected object by object: an object whose *solo*
replay kills a fresh worker is proven poison — quarantined, and skipped at
the shard boundary from then on.  Without a journal the lost tail is
recorded and routed through the failure policy.

**Worker lifetime.**  A worker never outlives its parent: it holds *only*
its own two pipe ends (under fork it closes every inherited parent-side end,
its siblings' included), so a parent that exits, crashes or is SIGKILLed
produces EOF on the request pipe; as a backstop the frame loop polls with a
timeout and exits once ``os.getppid()`` is no longer the spawning pid.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import SemitriError, ServiceError
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine.executors import _pool_mp_context
from repro.faults import wire
from repro.faults.failures import FailureEvent, TrajectoryFailure
from repro.faults.inject import FaultInjector, FaultPlan
from repro.faults.journal import JournalRecord
from repro.parallel.context import GeoContext, dump_outcome, load_outcome

# ``shard.ShardCore`` is looked up at call time so a test can substitute the
# core once for both transports (forked workers inherit the substitution).
from repro.service import shard
from repro.service.shard import EVENT, EVICT, Ack, Shard, op_for

if TYPE_CHECKING:
    from repro.service.service import AnnotationService

__all__ = [
    "FrameEncoder",
    "ProcessShard",
    "decode_frame",
    "shard_worker_main",
    "DRAIN_FRAME",
    "STOP_FRAME",
]

#: One decoded frame item: (kind, object id or eviction target, point or None).
FrameOp = Tuple[str, object, Optional[SpatioTemporalPoint]]

#: How long a worker waits for a frame before checking its parent is alive.
_PARENT_POLL_SECONDS = 0.5


class FrameEncoder:
    """Encodes service queue items into one batched IPC frame.

    One encoder per worker connection: it holds the connection's id table
    (:class:`~repro.faults.wire.RecordEncoder`), so a respawned worker gets a
    fresh encoder and with it every definition again.
    """

    def __init__(self) -> None:
        self._records = wire.RecordEncoder()

    def encode_batch(self, items: Iterable[Sequence[object]]) -> bytes:
        """One frame for ``items`` shaped ``(kind, id_or_target, point, ...)``.

        ``kind`` is the service's queue-item kind (``"event"``, ``"close"``
        or ``"evict"``, the target of the last being the open-session
        budget); anything else (the stop sentinel) must be filtered by the
        caller.
        """
        pack, codes, event = self._records.pack, wire.KIND_CODES, wire.EVENT
        chunks: List[bytes] = []
        for item in items:
            point = item[2]
            if point is None:
                chunks.append(pack(codes[item[0]], item[1]))  # type: ignore[index]
            else:  # only events carry a point
                chunks.append(pack(event, item[1], point.x, point.y, point.t))  # type: ignore[attr-defined]
        return b"".join(chunks)


#: Control frames: one record, no payload.
DRAIN_FRAME = wire.RecordEncoder().pack(wire.DRAIN)
STOP_FRAME = wire.RecordEncoder().pack(wire.STOP)

# The id table of the frames this process reads.  A process reads one frame
# stream at a time — a worker its request pipe — and a stream's first
# definition restarts the table, so whatever a forked worker inherits here is
# forgotten on its first frame.
_incoming = wire.RecordDecoder()


def decode_frame(data: bytes) -> List[FrameOp]:
    """Parse one batched frame back into the operations the core absorbs.

    A frame arrives whole or not at all, so one that does not decode to its
    last byte is a protocol error: raising ends the worker, and the parent
    recovers the shard from the journal instead of losing operations quietly.
    """
    names, event = wire.KIND_NAMES, wire.EVENT
    ops: List[FrameOp] = [
        (EVENT, target, SpatioTemporalPoint(x, y, t))
        if kind == event
        else (names[kind], target, None)
        for kind, target, x, y, t, _, _, _ in _incoming.operations(data)
    ]
    if _incoming.torn:
        raise ServiceError(f"undecodable frame: {len(ops)} operations read of {len(data)} bytes")
    return ops


def shard_worker_main(
    index: int,
    context: GeoContext,
    per_shard_sessions: int,
    fault_plan: str,
    requests: "multiprocessing.connection.Connection",
    responses: "multiprocessing.connection.Connection",
    parent_pid: int,
    inherited: Sequence["multiprocessing.connection.Connection"] = (),
) -> None:
    """Entry point of one shard's worker process.

    Decode a frame, let the core absorb it, send the ack.  Acks leave in
    frame order on a FIFO pipe, which is what lets the parent keep per-shard
    absorption order (and therefore canonical parity) identical to an
    in-process shard.  ``inherited`` are the parent-side pipe ends a forked
    worker holds copies of; closing them is what makes a dead parent visible
    as EOF (see the module docstring's lifetime guarantee).
    """
    # The parent handles SIGINT for the whole service; a Ctrl-C must not kill
    # workers before the parent decides whether to drain or shut down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for connection in inherited:
        connection.close()
    faults = (
        FaultInjector(FaultPlan.parse(fault_plan))
        if fault_plan
        else FaultInjector.from_env()
    )
    core = shard.ShardCore(context, per_shard_sessions, faults, in_worker=True)
    while True:
        try:
            if not requests.poll(_PARENT_POLL_SECONDS):
                if os.getppid() != parent_pid:
                    break  # orphaned without an EOF: nothing useful left to do
                continue
            data = requests.recv_bytes()
        except (EOFError, OSError):
            break  # parent went away
        ops = decode_frame(data)
        tag = ops[0][0] if ops else ""
        if tag == "stop":
            break
        ack = core.close_out() if tag == "drain" else core.absorb(ops)
        try:
            responses.send_bytes(dump_outcome(ack, context))
        except OSError:
            break  # parent went away mid-ack


class ProcessShard(Shard):
    """Worker-process transport: frames out, codec acks back, WAL recovery.

    Owns the worker process and its two pipes, how many WAL-covered
    operations the worker has been handed (``sent_ops`` — the replay prefix
    after a worker loss) and the un-acked batches whose enqueue stamps the
    fold turns into latency observations.
    """

    #: Frames allowed in flight before ``submit`` awaits an ack.  Two keeps
    #: the worker busy while the parent encodes the next batch; frames are a
    #: few KB, so the pipe buffer never fills and ``send_bytes`` never blocks
    #: the event loop.
    max_inflight = 2

    def __init__(self, host: "AnnotationService", index: int):
        super().__init__(host, index)
        self._mp_ctx = _pool_mp_context()
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._requests: Optional[multiprocessing.connection.Connection] = None
        self._responses: Optional[multiprocessing.connection.Connection] = None
        self._encoder = FrameEncoder()
        #: WAL-covered operations (events + closes) handed to the worker so
        #: far, poison-skips included — recovery replays exactly this prefix
        #: of the shard's journal.
        self.sent_ops = 0
        #: Un-acked batches, popped FIFO as acks arrive (the pipe is ordered).
        self._pending: Deque[List[List[object]]] = deque()
        self.restarts = 0
        #: Objects proven to kill fresh workers; never framed again.
        self._poisoned: Set[str] = set()
        #: Whether drain was requested; recovery re-sends the drain frame
        #: when the ack died with the worker.
        self._drain_requested = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        self._spawn()
        self._ready = asyncio.Event()
        self._ready.set()
        self._inflight = asyncio.Semaphore(self.max_inflight)
        self._reader: "asyncio.Task[Ack]" = asyncio.create_task(
            self._read_acks(), name=f"semitri-ipc-{self.index}"
        )

    def _parent_ends(self) -> List["multiprocessing.connection.Connection"]:
        return [end for end in (self._requests, self._responses) if end is not None]

    def _spawn(self) -> None:
        """Start (or restart) the worker process on fresh pipes."""
        self._close_connections()
        # A fresh worker knows no object id: the frames to it define them anew.
        self._encoder = FrameEncoder()
        request_rx, self._requests = self._mp_ctx.Pipe(duplex=False)
        self._responses, response_tx = self._mp_ctx.Pipe(duplex=False)
        host = self.host
        # A forked worker inherits a copy of every fd this process has open,
        # the parent-side ends of all shards' pipes included; it is told
        # which to close.  (Spawned workers inherit none, and pickling the
        # ends would hand them over instead.)
        inherited = (
            [end for other in host._shards for end in other._parent_ends()]  # type: ignore[attr-defined]
            if self._mp_ctx.get_start_method() == "fork"
            else []
        )
        self._process = self._mp_ctx.Process(
            target=shard_worker_main,
            args=(
                self.index,
                host.context,
                host._per_shard_sessions,
                host._faults.plan.render() if host._faults.enabled else "",
                request_rx,
                response_tx,
                os.getpid(),
                inherited,
            ),
            name=f"semitri-shard-{self.index}",
            daemon=True,
        )
        self._process.start()
        # The child holds its own ends now; closing ours makes a worker death
        # surface as EOF on the response pipe instead of a hang.
        request_rx.close()
        response_tx.close()
        self.pid = self._process.pid
        self.metrics.worker_pid.set(float(self.pid or 0))
        # A fresh worker starts from an empty executor: the mirrored counters
        # (and any un-acked batches) died with the previous process.
        self.events_absorbed = self.open_sessions = self.sessions_evicted = 0
        self._pending.clear()

    def _respawn(self) -> None:
        """Count one worker loss and replace the worker with a fresh one."""
        self.host.failure_log.record_worker_loss()
        self.metrics.worker_restarts.inc()
        if self._process is not None and self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self.restarts += 1
        self._spawn()

    async def close(self) -> None:
        """Stop the reader, the worker and the pipes (idempotent).

        A reader still waiting on acks that will never come (error paths) is
        cancelled before the pipes go; the mirrored counters stay — they back
        the post-shutdown ledger properties.
        """
        self._reader.cancel()
        await asyncio.gather(self._reader, return_exceptions=True)
        self._send(STOP_FRAME)
        if self._process is not None:
            self._process.join(timeout=5.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5.0)
            self._process = None
        self._close_connections()

    def _close_connections(self) -> None:
        for connection in self._parent_ends():
            try:
                connection.close()
            except OSError:
                pass
        self._requests = self._responses = None

    # ------------------------------------------------------------------- IPC
    def _send(self, frame: bytes) -> None:
        """Ship one frame; a dead worker is the reader's to notice (EOF)."""
        if self._requests is not None:
            try:
                self._requests.send_bytes(frame)
            except (OSError, ValueError):
                pass

    async def submit(self, batch: List[List[object]]) -> None:
        """Encode one micro-batch and hand it to the worker.

        ``sent_ops`` is advanced *before* the frame leaves, so a worker death
        at any point is recovered by replaying exactly that journal prefix.
        """
        await self._inflight.acquire()
        await self._ready.wait()
        sendable: List[List[object]] = []
        now = time.perf_counter()
        for item in batch:
            kind = item[0]
            if kind != EVICT:
                self.sent_ops += 1
                if self._poisoned and str(item[1]) in self._poisoned:
                    # Proven-poison objects are handled at the boundary: the
                    # worker never sees them again, but they count as
                    # delivered (and observed) so the ledger closes.
                    if kind == EVENT:
                        self.poison_skipped += 1
                    self.host.metrics.ingest_latency.observe(now - item[3])  # type: ignore[operator]
                    continue
            sendable.append(item)
        if not sendable:
            self._inflight.release()
            return
        frame = self._encoder.encode_batch(sendable)
        self._pending.append(sendable)
        self.metrics.ipc_frames.inc()
        self.metrics.ipc_bytes.inc(len(frame))
        self._send(frame)

    async def drain(self) -> Ack:
        """Ask the worker to close out; returns its drained ack.

        The drain frame is FIFO behind any in-flight batches, so the worker
        seals in exactly the order it absorbed; recovery re-requests it if
        the worker dies mid-drain.
        """
        await self._ready.wait()
        if not self._drain_requested:
            self._drain_requested = True
            self._send(DRAIN_FRAME)
        return await self._reader

    async def _recv(self) -> Ack:
        """One ack, read on the event loop once the pipe is readable (or at EOF)."""
        responses = self._responses
        assert responses is not None, "worker not spawned"
        if not responses.poll():
            loop = asyncio.get_running_loop()
            readable = loop.create_future()
            fd = responses.fileno()
            loop.add_reader(fd, lambda: readable.done() or readable.set_result(None))
            try:
                await readable
            finally:
                loop.remove_reader(fd)
        data = responses.recv_bytes()
        self.metrics.ack_bytes.inc(len(data))
        return load_outcome(data, self.host.context)

    async def _read_acks(self) -> Ack:
        """Fold acks as they arrive; returns the worker's drained ack.

        A pipe EOF while the service is live means the worker died — recover
        it and keep reading.
        """
        while True:
            try:
                ack = await self._recv()
            except (EOFError, OSError):
                if not self.host._live:
                    raise ServiceError(
                        f"shard {self.index} worker went away during shutdown"
                    ) from None
                await self._recover()
                continue
            if ack[0] == "drained":
                return ack
            batch = self._pending.popleft()
            self._inflight.release()
            self.host._apply_ack(self, ack, batch)

    # -------------------------------------------------------------- recovery
    async def _recover(self) -> None:
        """Bring a dead worker back: respawn + WAL prefix replay."""
        host = self.host
        self._ready.clear()
        # Un-acked frames died with the worker; free their in-flight permits
        # so a ``submit`` blocked on one can proceed once ready.
        for _ in self._pending:
            self._inflight.release()
        solo = self.restarts + 1 > host.config.failure.max_shard_retries
        self._respawn()
        journal = host.journal
        if journal is None:
            self.sent_ops = 0
            host._shard_failed(
                self,
                "shard_worker",
                "WorkerLost",
                f"shard {self.index} worker died with no ingest journal; "
                "its un-acked events are lost (enable service.journal_dir "
                "for lossless worker recovery)",
            )
        else:
            records = journal.records_for_shard(self.index)[: self.sent_ops]
            host._count_replayed(await self._replay_prefix(records, solo))
        self._ready.set()
        if self._drain_requested:
            self._send(DRAIN_FRAME)

    async def _replay_prefix(self, records: List[JournalRecord], solo: bool) -> int:
        """Replay a journal prefix into a fresh worker; isolate proven poison.

        Bulk replay first (one pass, batched).  If the replay itself kills
        the fresh worker — or the shard has already exhausted
        ``failure.max_shard_retries`` — fall back to object-by-object replay:
        an object whose *solo* replay kills a fresh worker is proven poison,
        quarantined, and skipped by all further intake; everything else is
        replayed from scratch after each death (the dead worker's state is
        gone).  Returns the number of records the live worker absorbed.
        """

        def poison_events() -> int:
            return sum(
                1
                for record in records
                if record.kind == "event" and record.object_id in self._poisoned
            )

        self.poison_skipped = poison_events()
        clean = [r for r in records if r.object_id not in self._poisoned]
        if not solo:
            if not await self._replay_records(clean):
                return len(clean)
            self._respawn()  # the replay itself killed the fresh worker
        by_object: Dict[str, List[JournalRecord]] = {}
        for record in clean:
            by_object.setdefault(record.object_id, []).append(record)
        while True:
            survivors = [oid for oid in by_object if oid not in self._poisoned]
            died_at: Optional[str] = None
            for object_id in survivors:
                if await self._replay_records(by_object[object_id]):
                    died_at = object_id
                    break
            if died_at is None:
                return sum(len(by_object[oid]) for oid in survivors)
            self._quarantine_poison(died_at, by_object[died_at])
            self._respawn()
            self.poison_skipped = poison_events()

    async def _replay_records(self, records: List[JournalRecord]) -> bool:
        """Feed records to the worker in lockstep batches; True if it died."""
        assert self._requests is not None, "worker not spawned"
        max_batch = self.host.config.service.max_batch
        for start in range(0, len(records), max_batch):
            chunk = [op_for(record) for record in records[start : start + max_batch]]
            try:
                self._requests.send_bytes(self._encoder.encode_batch(chunk))
                ack = await self._recv()
            except (EOFError, OSError):
                return True
            # Replayed frames carry no live enqueue times: counters and
            # results fold in, latency is not observed.
            self.host._apply_ack(self, ack)
        return False

    def _quarantine_poison(self, object_id: str, records: List[JournalRecord]) -> None:
        """Dead-letter an object whose solo replay killed a fresh worker."""
        self._poisoned.add(object_id)
        log = self.host.failure_log
        points = sorted(
            (record.point() for record in records if record.kind == "event"),
            key=lambda point: point.t,
        )
        try:
            trajectory = RawTrajectory(points, object_id=object_id)
        except SemitriError:
            # No reconstructable trajectory (e.g. close-only record set):
            # count the loss, skip the store record.
            log.record_failure("shard_worker", "WorkerLost")
            return
        log.quarantine(
            TrajectoryFailure(
                trajectory=trajectory,
                stage="shard_worker",
                error=(
                    f"shard {self.index} worker died replaying {object_id!r} in "
                    "isolation; object quarantined as proven poison"
                ),
                attempts=self.restarts,
                events=[FailureEvent(stage="shard_worker", kind="WorkerLost", attempt=1)],
            )
        )
