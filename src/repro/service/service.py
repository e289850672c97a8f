"""Annotation-as-a-service: an asyncio ingest tier over the stage-graph engine.

:class:`AnnotationService` multiplexes many concurrent GPS object streams into
sharded :class:`~repro.engine.executors.MicroBatchExecutor` instances — the
streaming session loop, fanned out so heavy traffic from many emitters does
not serialise behind one session registry.  The tier has three parts:

* the **router** (this module) — everything that happens to an event before
  and after a shard touches it: consistent-hash routing on the object id
  (:mod:`repro.service.routing`), the crash-safe ingest journal, bounded
  per-shard queues (:class:`_ShardQueue`: a deque the router appends to
  inline, plus explicit lists of who waits on it) whose
  ``await service.ingest(...)`` suspends the producer only when the queue is
  full, never drops, enqueue stamping, consumer micro-batching, the **one
  fold** every ack goes through (:meth:`AnnotationService._apply_ack` /
  :meth:`AnnotationService._apply_drained`), result collection and the
  deterministic single-transaction commit at :meth:`AnnotationService.drain`;
* the **shard core** (:class:`repro.service.shard.ShardCore`) — absorb a
  micro-batch, seal, close out, ack.  One implementation, wherever it runs;
* two **transports** — where a core runs and how operations and acks travel:
  :class:`~repro.service.shard.ThreadShard` (on the event loop: queue items
  by reference, acks as objects) and :class:`~repro.service.workers.ProcessShard`
  (a worker process per shard, handed the snapshot as a process argument:
  batched frames out, result-codec acks back, WAL-prefix replay when a worker
  dies — and no worker ever outlives the service process).
  ``config.service.transport`` chooses (``"auto"`` is ``process`` on
  multi-core hosts, ``thread`` on one core); once
  :meth:`AnnotationService.start` has built the shards, nothing in the
  router knows which it got.

The service process runs one thread, the loop's: absorbing a thread shard's
batch or folding any ack is one step no coroutine interleaves with (and the
loop serves nothing else meanwhile).

Which state lives where:

==========================  ================================================
router (event-loop thread)  ring, journal, queues, stats, failure log,
                            collected results + commit order, store
``Shard`` (parent side)     counters mirrored from acks: events absorbed,
                            open sessions, evictions, poison skips; and
                            the results the fold kept from the shard
``ShardCore``               executor + sessions, core-local failure log
                            (only its dead letters leave, on acks)
``ProcessShard`` only       worker process + pipes, ``sent_ops`` replay
                            ledger, un-acked batches, proven-poison set
==========================  ================================================

Per-shard absorption order equals enqueue order on either transport, so the
drained output is canonically byte-identical to a sequential
:func:`repro.api.annotate_many` over the delivered events — which is what the
cross-transport parity tests pin down.

The service takes a snapshot, as :meth:`Plan.compile
<repro.engine.plan.Plan.compile>` does: :func:`repro.api.serve` pairs raw
sources or another config with one.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.config import PipelineConfig
from repro.core.errors import ConfigurationError, ServiceError
from repro.core.pipeline import PipelineResult
from repro.core.points import SpatioTemporalPoint
from repro.engine.executors import _commit_with_retry
from repro.faults.failures import FailureLog, TrajectoryFailure
from repro.faults.inject import FaultInjector
from repro.faults.journal import IngestJournal
from repro.obs.metrics import MetricsRegistry, ServiceMetrics
from repro.parallel.context import GeoContext
from repro.service.routing import ConsistentHashRing
from repro.service.shard import CLOSE, EVENT, EVICT, Ack, Shard, ThreadShard, op_for
from repro.service.workers import ProcessShard
from repro.store.store import SemanticTrajectoryStore

__all__ = ["AnnotationService", "ServiceStats"]

#: One queued item: [kind, object id or eviction target, point, enqueue time]
#: (events and per-object control messages share the queue so control respects
#: the same ordering and backpressure as data).  A (mutable) list, not a
#: tuple: the enqueue timestamp is stamped by the queue itself at true
#: insertion time (see :meth:`_ShardQueue.append`).
_Item = List[object]

#: A shard as the router sees it: mirrored counters + start/submit/drain/close.
_AnyShard = Union[ThreadShard, ProcessShard]


class _ShardQueue:
    """One shard's bounded FIFO of queue items, and who is waiting on it.

    A plain deque plus explicit waiters: one consumer future (the shard's
    consumer waits for items) and a FIFO of producer futures (producers wait
    for room).  The router appends inline while there is room; only a full
    queue costs a producer an ``await``.

    ``append`` stamps the item at true insertion time, so a producer's
    backpressure wait stays out of the enqueue-to-absorbed latency histogram
    — that wait is the *producer's* admission delay, already visible as
    ``backpressure_waits``.
    """

    def __init__(self, maxsize: int):
        self.items: Deque[_Item] = deque()
        self.maxsize = maxsize
        self._taker: Optional["asyncio.Future[None]"] = None
        self._producers: Deque["asyncio.Future[None]"] = deque()
        #: Producers inside :meth:`room`, woken or not: they still owe an append.
        self._waiting = 0
        self._closed = False

    def full(self) -> bool:
        return len(self.items) >= self.maxsize

    def append(self, item: _Item) -> None:
        """Insert ``item`` (the caller made sure there is room) and stamp it."""
        item[3] = time.perf_counter()
        self.items.append(item)
        if self._taker is not None:
            self._wake_taker()

    async def room(self) -> None:
        """Wait until the queue has a free slot; waiters resume in FIFO order."""
        self._waiting += 1
        try:
            while self.full():
                waiter = asyncio.get_running_loop().create_future()
                self._producers.append(waiter)
                try:
                    await waiter
                except BaseException:
                    waiter.cancel()
                    if waiter.cancelled():
                        try:
                            self._producers.remove(waiter)
                        except ValueError:
                            pass  # already popped (and skipped) by a wake-up
                    elif not self.full():
                        # Woken, then cancelled before it could use the slot:
                        # the wake-up goes to the next producer in line.
                        self._wake_producers(1)
                    if self._closed:
                        self._wake_taker()  # the consumer may be waiting on this one
                    raise
        finally:
            self._waiting -= 1

    async def take(self, max_batch: int) -> Optional[List[_Item]]:
        """The next micro-batch, or ``None`` once closed and fully absorbed.

        Fairness: half the backlog per wake-up, at least 8 items, capped at
        ``max_batch`` — instead of greedily taking ``max_batch`` every time.
        A lightly loaded shard hands the loop back quickly (other shards'
        consumers get scheduled); a saturated one still reaches full batches.
        One waiting producer is woken per item taken.
        """
        items = self.items
        while not items:
            # A producer still waiting for room owes an item: absorb it too.
            if self._closed and not self._waiting:
                return None
            taker = self._taker = asyncio.get_running_loop().create_future()
            await taker
        count = min(max_batch, max(8, (len(items) + 1) // 2), len(items))
        popleft = items.popleft
        batch = [popleft() for _ in range(count)]
        if self._producers:
            self._wake_producers(count)
        return batch

    def close(self) -> None:
        """End of intake: :meth:`take` returns ``None`` once the queue is drained."""
        self._closed = True
        self._wake_taker()

    def _wake_taker(self) -> None:
        taker = self._taker
        if taker is not None:
            self._taker = None
            if not taker.done():
                taker.set_result(None)

    def _wake_producers(self, count: int) -> None:
        producers = self._producers
        while count and producers:
            waiter = producers.popleft()
            if not waiter.done():
                waiter.set_result(None)
                count -= 1


@dataclass
class ServiceStats:
    """Counters the service maintains across its lifetime."""

    events: int = 0
    """Events accepted into a shard queue."""

    results: int = 0
    """Sealed trajectories collected from the shards."""

    closed_objects: int = 0
    """Explicit per-object close requests."""

    backpressure_waits: int = 0
    """Ingest calls that found their shard queue full and had to await."""

    batches: int = 0
    """Micro-batches handed to shard executors."""

    errors: int = 0
    """Shard batches that failed while processing.

    Each failure is annotated with its shard and object ids, counted in the
    shard's metrics and routed through the failure policy (``fail_fast``
    re-raises at drain; isolating policies keep the shard alive) — see
    :attr:`AnnotationService.batch_failures` for the captured errors.
    """

    wal_appended: int = 0
    """Operations journaled to the crash-safe ingest WAL."""

    dedup_skipped: int = 0
    """Replayed trajectories skipped at commit because the store already
    holds them (the idempotency half of WAL recovery)."""


class AnnotationService:
    """Long-running ingest front end over sharded streaming executors.

    Typical usage::

        service = repro.serve(sources, config)   # or AnnotationService(context)
        async with service:
            await service.ingest("car-7", point)       # awaits when shard is full
            ...
            results = await service.drain()            # flush + close everything

    Parameters
    ----------
    context:
        The immutable :class:`~repro.parallel.context.GeoContext` snapshot
        whose frozen indexes every shard shares (one index build for the
        whole service).  Its ``config.service`` sizes the shard fan-out,
        queues and session budget.  :func:`repro.api.serve` is where raw
        sources or another config are paired with a snapshot.
    store / persist:
        When both are given, :meth:`drain` commits every sealed trajectory in
        one deterministic-order transaction.  Shards never touch the store.
    on_result:
        Callback invoked on the event-loop thread for every sealed trajectory
        as it is collected.
    fault_injector:
        An explicit :class:`~repro.faults.inject.FaultInjector` for
        deterministic chaos runs; defaults to whatever ``SEMITRI_FAULTS``
        describes (disabled when unset).
    """

    def __init__(
        self,
        context: GeoContext,
        store: Optional[SemanticTrajectoryStore] = None,
        persist: bool = False,
        on_result: Optional[Callable[[PipelineResult], None]] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self._context = context
        self._config = context.config
        service_config = self._config.service
        self._shard_count = service_config.resolved_shards
        self._max_batch = service_config.max_batch
        self._ring = ConsistentHashRing(self._shard_count, replicas=service_config.ring_replicas)
        self._shard_for = self._ring.shard_for
        self._store = store
        self._persist = persist and store is not None
        self._on_result = on_result

        self.stats = ServiceStats()
        # Filled by start(); the shard series and the eviction total read it.
        self._shards: List[_AnyShard] = []
        self._queues: List[_ShardQueue] = []
        self.registry = MetricsRegistry()
        self.metrics = ServiceMetrics(self.registry, self.stats, self._shards)
        self._faults = fault_injector if fault_injector is not None else FaultInjector.from_env()
        if store is not None and self._faults.enabled:
            store.bind_faults(self._faults)
        # The service's one failure log and single counting point: shard cores
        # ship their dead letters on acks and the fold counts them here.  Not
        # bound to the store — quarantines buffer until the drain flushes them.
        self._failure_log = FailureLog(self._config.failure, registry=self.registry)
        self._journal: Optional[IngestJournal] = None
        self._batch_failures: List[ServiceError] = []

        # Each shard gets its share of the session budget; everything else
        # (annotators, indexes, config) is the shared snapshot's.
        self._transport = service_config.resolved_transport
        self._per_shard_sessions = max(1, service_config.session_budget // self._shard_count)
        self._consumers: List["asyncio.Task[None]"] = []
        self._collected_ids: Set[str] = set()
        self._results: List[PipelineResult] = []
        # (object id, collection sequence) per result: the deterministic sort
        # key of the drain-time store commit.  Within one object the sequence
        # follows absorption order (one shard, serialized), so sorting by it
        # reproduces per-object sealing order no matter how shards interleave.
        self._order: List[Tuple[str, int]] = []
        self._state = "new"

    # ---------------------------------------------------------------- identity
    @property
    def shard_count(self) -> int:
        """Number of executor shards the service fans out to."""
        return self._shard_count

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration every shard runs."""
        return self._config

    @property
    def context(self) -> GeoContext:
        """The immutable geographic snapshot shared by every shard."""
        return self._context

    @property
    def results(self) -> List[PipelineResult]:
        """Every sealed trajectory collected so far (collection order)."""
        return list(self._results)

    @property
    def transport(self) -> str:
        """The resolved execution transport: ``"thread"`` or ``"process"``."""
        return self._transport

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of the shards' (last) worker processes; none for in-process shards."""
        return [shard.pid for shard in self._shards if shard.pid is not None]

    @property
    def delivered_events(self) -> int:
        """Events absorbed by shard executors (equals ``stats.events`` after drain).

        Events belonging to a quarantined poison object are *handled* by
        skipping them at the shard boundary; they count as delivered so the
        no-drop ledger still closes.
        """
        return sum(shard.events_absorbed + shard.poison_skipped for shard in self._shards)

    @property
    def dropped_events(self) -> int:
        """Accepted-but-never-absorbed events.

        Positive only while events are still queued or after a shard batch
        raised; a clean :meth:`drain` leaves it at zero — the service's
        no-drop contract.
        """
        return self.stats.events - self.delivered_events

    @property
    def open_session_count(self) -> int:
        """Open per-object sessions across every shard, as of the latest acks."""
        return sum(shard.open_sessions for shard in self._shards)

    @property
    def sessions_evicted(self) -> int:
        """Sessions closed by LRU budget pressure or explicit eviction."""
        return sum(shard.sessions_evicted for shard in self._shards)

    def queue_depths(self) -> List[int]:
        """Current per-shard queue depths (diagnostics)."""
        return [len(queue.items) for queue in self._queues]

    def shard_for(self, object_id: str) -> int:
        """The shard index the router assigns to ``object_id``."""
        return self._ring.shard_for(object_id)

    @property
    def failure_log(self) -> FailureLog:
        """The run-scoped failure log (counters, quarantine buffer)."""
        return self._failure_log

    @property
    def quarantined_count(self) -> int:
        """Trajectories the failure policy dead-lettered so far."""
        return self._failure_log.quarantined

    @property
    def batch_failures(self) -> List[ServiceError]:
        """Shard-batch failures captured so far (annotated with shard + objects)."""
        return list(self._batch_failures)

    @property
    def journal(self) -> Optional[IngestJournal]:
        """The crash-safe ingest journal, when ``service.journal_dir`` is set."""
        return self._journal

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the service registry."""
        return self.registry.render_prometheus()

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> "AnnotationService":
        """Open the journal, build and start the shards, queues and consumers.

        With ``config.service.journal_dir`` set, the crash-safe ingest
        journal opens here — and if a previous service died with un-drained
        events in that directory, they are **replayed through the normal
        ingest path** before new traffic, re-journaled under their original
        origin ids (so a crash mid-replay dedups instead of duplicating).
        """
        if self._state != "new":
            raise ServiceError(f"cannot start a service in state {self._state!r}")
        service_config = self._config.service
        if service_config.journal_dir:
            self._journal = IngestJournal(
                service_config.journal_dir,
                self._shard_count,
                fsync_batch=service_config.journal_fsync_batch,
            )
        self._queues.extend(
            _ShardQueue(service_config.queue_depth) for _ in range(self._shard_count)
        )
        # The one place a transport is chosen; from here on a shard is a shard.
        if self._transport == "process":
            self._shards.extend(ProcessShard(self, index) for index in range(self._shard_count))
        else:
            self._shards.extend(ThreadShard(self, index) for index in range(self._shard_count))
        for shard in self._shards:
            shard.start()
        self._consumers = [
            asyncio.create_task(self._consume(index), name=f"semitri-shard-{index}")
            for index in range(self._shard_count)
        ]
        self._state = "running"
        if self._journal is not None and self._journal.pending_records:
            await self._replay_journal()
        return self

    async def _replay_journal(self) -> None:
        """Feed a crashed predecessor's surviving WAL records back in."""
        assert self._journal is not None
        records = self._journal.pending_records
        for record in records:
            shard = self._shard_for(record.object_id)
            self._journal.append_replayed(shard, record)
            await self._enqueue(self._queues[shard], op_for(record))
            if record.kind == "event":
                self.stats.events += 1
            else:
                self.stats.closed_objects += 1
        # Only after every record is safely re-journaled may the recovered
        # files go; a crash in between replays from the re-journaled copies.
        self._journal.sync()
        self._journal.discard_recovered()
        self._failure_log.record_wal_replayed(len(records))

    async def __aenter__(self) -> "AnnotationService":
        return await self.start()

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.shutdown()

    async def drain(self) -> List[PipelineResult]:
        """Stop intake, flush every queue, close every session, commit.

        Returns **all** results collected since :meth:`start` — queued events
        are fully absorbed (FIFO per shard) before the remaining sessions are
        closed through the gap close-out path, so nothing is lost.  With
        persistence enabled the sealed trajectories are committed here, in
        one transaction, ordered by (object id, per-object sealing order) —
        a deterministic order independent of shard interleaving.
        """
        if self._state == "drained":
            return self.results
        if self._state != "running":
            raise ServiceError(f"cannot drain a service in state {self._state!r}")
        self._state = "draining"
        for queue in self._queues:
            queue.close()
        await asyncio.gather(*self._consumers)
        # Every shard closes out behind whatever it still has in flight, so it
        # seals in exactly the order it absorbed; the drained acks fold in
        # shard order.
        drained = await asyncio.gather(*(shard.drain() for shard in self._shards))
        for shard, ack in zip(self._shards, drained):
            self._apply_drained(shard, ack)
        if self._batch_failures and not self._config.failure.isolates:
            # fail_fast: the first batch error (they arrive as acks) surfaces
            # once everything in flight has settled.  The journal is kept.
            raise self._batch_failures[0]
        if self._journal is not None:
            self._journal.sync()
        if self._persist:
            self._commit_with_policy()
        if self._store is not None:
            self._failure_log.flush_to_store(self._store)
        if self._journal is not None:
            # The store now durably holds everything the journal covered; a
            # failed commit raises above and keeps the journal for recovery.
            self._journal.rotate()
        self._state = "drained"
        return self.results

    async def shutdown(self) -> List[PipelineResult]:
        """Drain (if still running) and release shards and journal.

        A service stuck in ``"draining"`` means a previous :meth:`drain`
        raised part-way (fail-fast batch or commit failure); shutdown then
        just releases resources so the original exception propagates instead
        of being masked by a "cannot drain" error.  The journal is *not*
        rotated on that path — the WAL stays on disk for recovery.
        """
        try:
            return await self.drain() if self._state == "running" else self.results
        finally:
            # Released even when the drain above raised.  A worker lost from
            # here on stays lost; closed shards are kept — their counters back
            # the post-shutdown ledger properties (delivered_events & co.).
            self._state = "closing"
            for shard in self._shards:
                await shard.close()
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            self._state = "closed"

    @property
    def _live(self) -> bool:
        """Whether a lost shard worker should still be recovered."""
        return self._state in ("running", "draining")

    # -------------------------------------------------------------------- feed
    async def ingest(self, object_id: str, point: SpatioTemporalPoint) -> None:
        """Feed one event; awaits (never drops) when the shard queue is full.

        With the ingest journal enabled the event is journaled *before* it is
        enqueued — once this call returns, a crashed service replays it.
        """
        if self._state != "running":
            raise self._not_running()
        shard = self._shard_for(object_id)
        if self._journal is not None:
            self._journal.append_event(shard, object_id, point)
            self.stats.wal_appended += 1
        queue = self._queues[shard]
        if len(queue.items) >= queue.maxsize:
            await self._wait_for_room(queue)
        queue.append([EVENT, object_id, point, 0.0])
        self.stats.events += 1

    async def ingest_many(self, events: Iterable[Tuple[str, SpatioTemporalPoint]]) -> int:
        """Feed several events in order; returns the number accepted."""
        accepted = 0
        for object_id, point in events:
            await self.ingest(object_id, point)
            accepted += 1
        return accepted

    async def close_object(self, object_id: str) -> None:
        """End of stream for one object: its open trajectory is sealed.

        The close rides the shard queue behind the object's queued events, so
        it takes effect exactly where the emitter hung up.
        """
        if self._state != "running":
            raise self._not_running()
        shard = self._shard_for(object_id)
        if self._journal is not None:
            self._journal.append_close(shard, object_id)
            self.stats.wal_appended += 1
        queue = self._queues[shard]
        if len(queue.items) >= queue.maxsize:
            await self._wait_for_room(queue)
        queue.append([CLOSE, object_id, None, 0.0])
        self.stats.closed_objects += 1

    async def evict_sessions(self, target_per_shard: int) -> None:
        """Ask every shard to shrink to ``target_per_shard`` open sessions.

        The eviction request is queued like any event, so it is applied after
        everything already accepted; evicted sessions seal (and annotate)
        their open trajectories exactly like a gap close-out.
        """
        if self._state != "running":
            raise ServiceError(f"cannot evict on a service in state {self._state!r}")
        if target_per_shard < 0:
            raise ConfigurationError("target_per_shard must be non-negative")
        # Fire-and-forget by design: the fold counts the evictions as the
        # shards' acks report them.
        for queue in self._queues:
            await self._enqueue(queue, [EVICT, target_per_shard, None, 0.0])

    # --------------------------------------------------------------- internals
    def _not_running(self) -> ServiceError:
        return ServiceError(
            f"cannot ingest on a service in state {self._state!r}; "
            "start() it first (or stop feeding after drain())"
        )

    async def _wait_for_room(self, queue: _ShardQueue) -> None:
        """Explicit backpressure: the producer suspends until the shard frees a
        slot.  Counted so operators can see producers waiting."""
        self.stats.backpressure_waits += 1
        await queue.room()

    async def _enqueue(self, queue: _ShardQueue, item: _Item) -> None:
        """What ``ingest`` / ``close_object`` spell out inline, for the cold paths."""
        if queue.full():
            await self._wait_for_room(queue)
        queue.append(item)

    async def _consume(self, index: int) -> None:
        queue = self._queues[index]
        shard = self._shards[index]
        max_batch = self._max_batch
        stats = self.stats
        while True:
            batch = await queue.take(max_batch)
            if batch is None:
                return
            stats.batches += 1
            await shard.submit(batch)
            # Yield between batches so co-resident consumers interleave even
            # when this queue never goes empty.
            await asyncio.sleep(0)

    # ---------------------------------------------------------------- the fold
    def _apply_ack(self, shard: Shard, ack: Ack, batch: Sequence[_Item] = ()) -> None:
        """Fold one absorb ack — from any transport, live or replayed — in.

        ``batch`` is the acked batch's queue items, whose enqueue stamps
        become latency observations; replayed batches carry none.
        """
        absorbed, open_sessions, evicted, quarantines = ack[-4:]
        if ack[0] == "ok":
            results: List[PipelineResult] = ack[1]  # type: ignore[assignment]
            finished = time.perf_counter()
            self.metrics.ingest_latency.observe_many(
                [finished - item[3] for item in batch]  # type: ignore[operator]
            )
            self._collect(shard, results)
        else:
            # An infrastructure-level batch failure the core survived; it
            # already told us how far it got.  Routed through the policy:
            # fail_fast surfaces it at drain, isolating policies keep the
            # shard alive for the other objects.
            kind, error, object_ids, op_count = ack[1:5]
            self._shard_failed(
                shard,
                "shard_batch",
                str(kind),
                f"shard {shard.index} failed a batch of {op_count} items "
                f"(objects {object_ids}): {error}",
            )
        shard.events_absorbed += absorbed  # type: ignore[operator]
        shard.open_sessions = open_sessions  # type: ignore[assignment]
        shard.sessions_evicted = evicted  # type: ignore[assignment]
        self._quarantine(quarantines)  # type: ignore[arg-type]

    def _apply_drained(self, shard: Shard, ack: Ack) -> None:
        """Fold the close-out ack (sealed rows of every open session) in."""
        _, sealed, quarantines, evicted = ack
        shard.open_sessions = 0
        shard.sessions_evicted = evicted  # type: ignore[assignment]
        self._quarantine(quarantines)  # type: ignore[arg-type]
        self._collect(shard, sealed)  # type: ignore[arg-type]

    def _shard_failed(self, shard: Shard, stage: str, kind: str, message: str) -> None:
        """Count one shard-level failure and keep it for the failure policy."""
        self.stats.errors += 1
        shard.metrics.errors.inc()
        self._failure_log.record_failure(stage, kind)
        self._batch_failures.append(ServiceError(message))

    def _quarantine(self, shipped: List[TrajectoryFailure]) -> None:
        """Count core-shipped dead letters here, the single counting point;
        the log buffers them for the drain-time store flush."""
        for failure in shipped:
            self._failure_log.quarantine(failure)

    def _collect(self, shard: Shard, sealed: List[PipelineResult]) -> None:
        """Collect one shard's results, keep-first across worker-loss replays.

        A replayed journal prefix re-seals trajectories that were already
        acked before the worker died; sealing is deterministic, so the
        duplicate arrives under the same trajectory id and is dropped here.
        Retried-then-successful results carry their failure history with
        them — absorbed on first collection only.
        """
        for result in sealed:
            trajectory_id = result.trajectory.trajectory_id
            if trajectory_id is not None:
                if trajectory_id in self._collected_ids:
                    continue
                self._collected_ids.add(trajectory_id)
            self._failure_log.absorb_result(result)
            self._order.append((result.trajectory.object_id, len(self._order)))
            self._results.append(result)
            shard.results_kept += 1
            self.stats.results += 1
            if self._on_result is not None:
                self._on_result(result)

    def _commit_with_policy(self) -> None:
        """Commit results, retrying per the failure policy.

        A failed commit rolls back inside the store (the write's scope is
        undone, see ``SemanticTrajectoryStore.__exit__``), so a retry
        re-sends the exact same batch; under ``fail_fast``/``skip`` the first failure raises and
        the journal (kept by :meth:`drain`) covers recovery.
        """
        _commit_with_retry(self._failure_log, self._commit_results, "service_commit")

    def _commit_results(self) -> None:
        assert self._store is not None
        ordered = sorted(
            range(len(self._results)), key=lambda position: self._order[position]
        )
        # WAL-replay idempotency: a crash after commit but before the journal
        # rotated replays already-committed trajectories; skip anything the
        # store has, so recovery never duplicates rows.
        fresh = []
        skipped = 0
        for position in ordered:
            result = self._results[position]
            if self._store.has_trajectory(result.trajectory.trajectory_id):
                skipped += 1
                continue
            fresh.append((result.trajectory, result.episodes))
        self._store.save_annotated_trajectories(fresh)
        # Counted only after a successful save, so commit retries do not
        # double-count the same skips.
        self.stats.dedup_skipped += skipped
