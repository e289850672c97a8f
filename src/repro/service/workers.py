"""Process transport of the shard protocol: one worker process per shard.

:class:`ProcessShard` hosts a shard's :class:`~repro.service.shard.ShardCore`
in a dedicated worker process that is handed the parent's
:class:`~repro.parallel.context.GeoContext` as a worker argument (inherited
copy-on-write under fork, otherwise pickled and sent as the first message on
the worker's request pipe), so
annotation work escapes the parent's GIL.  The worker is ``decode_frame`` →
``core.absorb`` → ``dump_outcome``: it runs the same core and answers with
the same acks as an in-process shard, and everything transport-specific
lives here.

Wire discipline, chosen for amortized IPC on the hot path:

* **parent → worker** — batched frames over a ``multiprocessing`` pipe, one
  ``send_bytes`` per micro-batch.  A frame is a run of the WAL's binary
  records (:mod:`repro.faults.wire`: one fixed-width record per event, close
  or eviction, object ids interned per connection and defined in-band on
  first use), plus the one-record drain frame (closing the pipe stops the worker);
* **worker → parent** — the core's acks, written by the result codec
  (:func:`~repro.parallel.context.dump_outcome`, the batch pool's too) on a
  second pipe, one per frame and in frame order.  Both ends hold the same
  snapshot, so every region, road segment and POI a result links to travels
  as a reference into :meth:`~repro.parallel.context.GeoContext.places` and
  comes back as the parent's own object; a reference the parent's snapshot
  does not match raises instead of re-linking.  A reader task per shard
  folds acks into the service as they arrive (results stream back
  incrementally), reading each on the event loop once ``loop.add_reader``
  sees the pipe readable.

**The window.**  Un-acked frames are bounded in bytes, not in frames: a
frame is sent while the un-acked frame bytes stay within half the request
pipe's capacity (:meth:`~repro.parallel.process.WorkerProcess.request_capacity`,
read once per spawned worker), or when nothing is in flight.  On Linux's
default 64 KiB pipe that is about 740 records, more than an annotate cycle
of eight 64-event passes, so the parent keeps feeding a worker while it
flushes.  The other half of the pipe is headroom for what goes out
without waiting — each message's 4-byte length prefix, the id definitions
beyond the wait's lower bound of one record per item, and the drain frame —
so ``send_bytes`` never blocks the event loop while the worker is blocked
writing an ack the loop has not read.

**Worker loss.**  A worker that dies mid-stream surfaces as EOF on the ack
pipe.  The shard respawns it and replays exactly the journal prefix the dead
worker had been handed (``sent_ops``); duplicates of already-acked results
are dropped by the service's keep-first collection.  A replay that keeps
killing fresh workers is bisected object by object: an object whose *solo*
replay kills a fresh worker is proven poison — quarantined, and skipped at
the shard boundary from then on.  Without a journal the lost tail is
recorded and routed through the failure policy.

The worker process itself — start method, pipes, lifetime, stop — is a
:class:`~repro.parallel.process.WorkerProcess`, as a batch pool worker is.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
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
from repro.faults import wire
from repro.faults.failures import FailureEvent, TrajectoryFailure
from repro.faults.inject import FaultInjector, FaultPlan
from repro.faults.journal import JournalRecord
from repro.parallel.context import GeoContext, dump_outcome, load_outcome
from repro.parallel.process import SHARD_RETRIES, WorkerProcess

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
    "DRAIN_FRAME",
]

#: One decoded frame item: (kind, object id or eviction target, point or None).
FrameOp = Tuple[str, object, Optional[SpatioTemporalPoint]]


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
        budget).
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


#: The drain control frame: one record, no payload.
DRAIN_FRAME = wire.RecordEncoder().pack(wire.DRAIN)

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


def _shard_worker(
    context: GeoContext, per_shard_sessions: int, fault_plan: str
) -> Callable[[bytes], bytes]:
    """Build one shard worker's frame handler (runs in the worker process).

    Decode a frame, let the core absorb it, encode the ack.  Acks leave in
    frame order on a FIFO pipe, which is what lets the parent keep per-shard
    absorption order (and therefore canonical parity) identical to an
    in-process shard.  The worker ends when the parent closes the request pipe.
    """
    faults = (
        FaultInjector(FaultPlan.parse(fault_plan))
        if fault_plan
        else FaultInjector.from_env()
    )
    core = shard.ShardCore(context, per_shard_sessions, faults)

    def handle(frame: bytes) -> bytes:
        ops = decode_frame(frame)
        ack = core.close_out() if ops and ops[0][0] == "drain" else core.absorb(ops)
        return dump_outcome(ack, context)

    return handle


class ProcessShard(Shard):
    """Worker-process transport: frames out, codec acks back, WAL recovery.

    Owns the worker process and its two pipes, how many WAL-covered
    operations the worker has been handed (``sent_ops`` — the replay prefix
    after a worker loss) and the un-acked batches whose enqueue stamps the
    fold turns into latency observations.  ``submit`` waits while those
    batches' frame bytes (``inflight_bytes``) leave no room in the window,
    half the request pipe.
    """

    def __init__(self, host: "AnnotationService", index: int):
        super().__init__(host, index)
        self._worker: Optional[WorkerProcess] = None
        self._encoder = FrameEncoder()
        #: WAL-covered operations (events + closes) handed to the worker so
        #: far, poison-skips included — recovery replays exactly this prefix
        #: of the shard's journal.
        self.sent_ops = 0
        #: Un-acked batches with their frame sizes, popped FIFO as acks
        #: arrive (the pipe is ordered).
        self._pending: Deque[Tuple[List[List[object]], int]] = deque()
        #: Frame bytes of ``_pending``, what the window bounds.
        self.inflight_bytes = 0
        #: The window: half the live worker's request pipe.
        self._window = 0
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
        #: Set whenever an ack (or a respawn) frees window bytes.
        self._acked = asyncio.Event()
        self._reader: "asyncio.Task[Ack]" = asyncio.create_task(
            self._read_acks(), name=f"semitri-ipc-{self.index}"
        )

    def _spawn(self) -> None:
        """Start (or restart) the worker process on fresh pipes."""
        if self._worker is not None:
            self._worker.stop()
        # A fresh worker knows no object id: the frames to it define them anew.
        self._encoder = FrameEncoder()
        host = self.host
        self._worker = WorkerProcess(
            _shard_worker,
            (
                host.context,
                host._per_shard_sessions,
                host._faults.plan.render() if host._faults.enabled else "",
            ),
            name=f"semitri-shard-{self.index}",
        )
        self.pid = self._worker.pid
        self._window = self._worker.request_capacity() // 2
        # A fresh worker starts from an empty executor: the mirrored counters
        # (and any un-acked batches) died with the previous process.
        self.events_absorbed = self.open_sessions = self.sessions_evicted = 0
        self._pending.clear()
        self.inflight_bytes = 0

    def _respawn(self) -> None:
        """Count one worker loss and replace the worker with a fresh one."""
        self.host.failure_log.record_worker_loss()
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
        if self._worker is not None:
            self._worker.stop()
            self._worker = None

    # ------------------------------------------------------------------- IPC
    def _send(self, frame: bytes) -> None:
        """Ship one frame; a dead worker is the reader's to notice (EOF)."""
        if self._worker is not None:
            self._worker.send(frame)

    async def submit(self, batch: List[List[object]]) -> None:
        """Encode one micro-batch and hand it to the worker.

        ``sent_ops`` is advanced *before* the frame leaves, so a worker death
        at any point is recovered by replaying exactly that journal prefix.
        The window is waited for first, against one record per item (a
        frame's least size), so the frame is built for the live worker;
        both conditions are tested again after every wake-up.
        """
        floor = len(batch) * wire.RECORD.size
        while True:
            await self._ready.wait()
            if not self._pending or self.inflight_bytes + floor <= self._window:
                break
            self._acked.clear()
            await self._acked.wait()
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
            return
        frame = self._encoder.encode_batch(sendable)
        self._pending.append((sendable, len(frame)))
        self.inflight_bytes += len(frame)
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
        assert self._worker is not None, "worker not spawned"
        responses = self._worker.responses
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
            batch, size = self._pending.popleft()
            self.inflight_bytes -= size
            self._acked.set()
            self.host._apply_ack(self, ack, batch)

    # -------------------------------------------------------------- recovery
    async def _recover(self) -> None:
        """Bring a dead worker back: respawn + WAL prefix replay."""
        host = self.host
        self._ready.clear()
        solo = self.restarts + 1 > SHARD_RETRIES
        # Un-acked frames died with the worker: the respawn empties the
        # window, and a ``submit`` waiting on it goes on to wait for ready.
        self._respawn()
        self._acked.set()
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
            host.failure_log.record_wal_replayed(await self._replay_prefix(records, solo))
        self._ready.set()
        if self._drain_requested:
            self._send(DRAIN_FRAME)

    async def _replay_prefix(self, records: List[JournalRecord], solo: bool) -> int:
        """Replay a journal prefix into a fresh worker; isolate proven poison.

        Bulk replay first (one pass, batched).  If the replay itself kills
        the fresh worker — or the shard has already exhausted
        :data:`~repro.parallel.process.SHARD_RETRIES` — fall back to
        object-by-object replay: an object whose *solo* replay kills a fresh
        worker is proven poison, quarantined, and skipped by all further
        intake; everything else is replayed from scratch after each death (the
        dead worker's state is gone).  Returns the number of records the live
        worker absorbed.
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
        assert self._worker is not None, "worker not spawned"
        max_batch = self.host.config.service.max_batch
        for start in range(0, len(records), max_batch):
            chunk = [op_for(record) for record in records[start : start + max_batch]]
            self._worker.send(self._encoder.encode_batch(chunk))
            try:
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
