"""The shard protocol: one core, one ack shape, and the in-process transport.

A *shard* is one :class:`~repro.engine.executors.MicroBatchExecutor` plus the
per-object sessions routed to it.  Whatever hosts it, the service talks to it
through the same three transitions, implemented once in :class:`ShardCore`:

* **absorb** — apply one micro-batch of operations in order (``event`` /
  ``close`` / ``evict``) and answer with one ack:
  ``("ok", results, absorbed, open_sessions, evicted, quarantines)`` or, when
  the batch raised one of :data:`BATCH_ERRORS`,
  ``("error", kind, repr, object_ids, op_count, absorbed, open_sessions,
  evicted, quarantines)``;
* **close out** — seal every open session and answer
  ``("drained", results, quarantines, evicted)``;
* **quarantine** — dead letters of the core's own (never-read) failure log
  ride on every ack, so the service's log is the single counting point.

An operation is any sequence starting ``(kind, object id or eviction target,
point or None)`` — the router's queue items and the frames decoded by
:func:`repro.service.workers.decode_frame` both qualify, which is what lets a
thread shard take queue items *by reference* (no encoding, no pickling) while
a process shard feeds the identical core from the wire.

A *transport* decides where a core runs and how operations and acks travel.
It subclasses :class:`Shard` — the parent-side state every ack folds into —
and implements ``start`` / ``submit`` / ``drain`` / ``close``.  This module
holds the in-process one (:class:`ThreadShard`, whose core runs on the event
loop itself); the worker-process one is
:class:`repro.service.workers.ProcessShard`.  Transports are friends of the
router: they read its configuration and hand every ack to its one fold
(``AnnotationService._apply_ack``).
"""

from __future__ import annotations

import sqlite3
import weakref
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.errors import SemitriError
from repro.core.pipeline import PipelineResult
from repro.engine.executors import MicroBatchExecutor
from repro.engine.plan import Plan
from repro.faults.failures import FailureLog, TrajectoryFailure
from repro.faults.inject import FaultInjector
from repro.faults.journal import JournalRecord
from repro.parallel.context import GeoContext

if TYPE_CHECKING:
    from repro.service.service import AnnotationService

__all__ = ["BATCH_ERRORS", "CLOSE", "EVENT", "EVICT", "Shard", "ShardCore", "ThreadShard"]

#: Operation kinds (events and per-object control share one ordered stream).
EVENT, CLOSE, EVICT = "event", "close", "evict"

#: One operation: ``(kind, object id or eviction target, point or None, ...)``.
Op = Sequence[object]

#: One ack tuple, shaped as the module docstring lists.
Ack = Tuple[object, ...]

#: Exception types a batch may fail with that come back as an ``"error"`` ack
#: (counted, annotated with shard + object ids, routed through the failure
#: policy).  Deliberately narrow — anything outside this tuple (MemoryError,
#: KeyboardInterrupt, arbitrary C-extension crashes) propagates untouched.
BATCH_ERRORS = (
    SemitriError,
    sqlite3.Error,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    ArithmeticError,
    RuntimeError,
    OSError,
)


def op_for(record: JournalRecord) -> List[object]:
    """The queue item a journal record replays as (no live enqueue stamp)."""
    if record.kind == "event":
        return [EVENT, record.object_id, record.point(), 0.0]
    return [CLOSE, record.object_id, None, 0.0]


class ShardCore:
    """One shard's executor and the absorb / close-out transitions over it.

    Only ever touched by one thread: a thread shard's is the event loop's, a
    worker process is single-threaded.
    ``in_worker`` arms kill-style chaos, which must only ever fire inside a
    sacrificial worker process (an in-process core skips the hook entirely).
    """

    def __init__(
        self,
        context: GeoContext,
        max_sessions: int,
        faults: FaultInjector,
        in_worker: bool = False,
    ):
        config = replace(
            context.config,
            streaming=replace(context.config.streaming, max_sessions=max_sessions),
        )
        # Core-local failure log: its counters are never read; only the
        # buffered quarantines ship back.  Shard plans never persist — the
        # service commits at drain time, in one place.
        self._log = FailureLog(config.failure)
        self.executor = MicroBatchExecutor(
            Plan.compile(
                sources=context.sources,
                config=config,
                annotators=context.annotators,
                faults=faults,
                failure_log=self._log,
            )
        )
        self._on_event = faults.on_trajectory if in_worker else None

    def absorb(self, ops: Sequence[Op]) -> Ack:
        """Apply one micro-batch of operations, in order."""
        executor = self.executor
        on_event = self._on_event
        results: List[PipelineResult] = []
        absorbed = 0
        try:
            for op in ops:
                kind = op[0]
                if kind == EVENT:
                    object_id = str(op[1])
                    if on_event is not None:
                        # Streams have no trajectory boundary until sealing,
                        # so the kill hook fires per event.
                        on_event(object_id, worker=True)
                    results.extend(executor.ingest(object_id, op[2]))  # type: ignore[arg-type]
                    absorbed += 1
                elif kind == CLOSE:
                    results.extend(executor.close_object(str(op[1])))
                else:  # EVICT: the target open-session count rides in op[1]
                    results.extend(executor.evict_sessions(int(op[1])))  # type: ignore[call-overload]
        except BATCH_ERRORS as error:
            # Per-trajectory failures are already isolated inside the executor
            # (retry/quarantine per the failure policy); an error escaping a
            # whole batch is infrastructure-level.  The core survives and
            # reports how far it got (a batch replay would be unsafe — the
            # session pass already consumed some events; the WAL holds them).
            object_ids = sorted({str(op[1]) for op in ops if op[0] != EVICT})
            return (
                "error",
                type(error).__name__,
                repr(error),
                object_ids,
                len(ops),
                absorbed,
                executor.open_session_count,
                executor.sessions_evicted,
                self._pop_quarantines(),
            )
        return (
            "ok",
            results,
            absorbed,
            executor.open_session_count,
            executor.sessions_evicted,
            self._pop_quarantines(),
        )

    def close_out(self) -> Ack:
        """Close every open session (flushing the pending micro-batch first)."""
        sealed = self.executor.close_all()
        return ("drained", sealed, self._pop_quarantines(), self.executor.sessions_evicted)

    def _pop_quarantines(self) -> List[TrajectoryFailure]:
        """Drain the core log's buffered dead letters for shipping.

        Exceptions are stripped (arbitrary exception objects may not cross a
        process boundary; the repr travels on the record).
        """
        quarantines = self._log.drain_pending()
        for failure in quarantines:
            failure.exception = None
        return quarantines


class Shard:
    """Parent-side state of one shard: the counters every ack folds into.

    The core owns the truth; this mirror is what service properties and
    metrics read, so it trails in-flight batches by at most a transport's
    pipelining depth.
    """

    #: PID of the worker process hosting the core (``None``: in-process).
    pid: Optional[int] = None

    def __init__(self, host: "AnnotationService", index: int):
        # A proxy, not a reference: the router owns its shards, and a cycle
        # back would keep a finished service (results, sessions) alive until
        # the cyclic collector gets round to it.
        self.host: "AnnotationService" = weakref.proxy(host)
        self.index = index
        self.metrics = host.metrics.shard(index)
        self.events_absorbed = 0
        self.open_sessions = 0
        self.sessions_evicted = 0
        #: Events of proven-poison objects handled by skipping them at the
        #: shard boundary (worker-loss recovery); they count as delivered.
        self.poison_skipped = 0


class ThreadShard(Shard):
    """In-process transport: the core runs on the event-loop thread.

    Operations are the router's queue items passed by reference; the ack is
    an object, folded in the same step.  The loop (producers, HTTP) waits out
    each batch, and the consumer's yield between batches interleaves shards
    and feeders.  The GIL would serialize the annotation work anyway, so
    added shards buy isolation and fairness rather than throughput.
    """

    def __init__(self, host: "AnnotationService", index: int):
        super().__init__(host, index)
        self.core = ShardCore(host.context, host._per_shard_sessions, host._faults)

    def start(self) -> None:
        pass

    async def submit(self, batch: List[List[object]]) -> None:
        """Absorb one batch and fold its ack."""
        self.host._apply_ack(self, self.core.absorb(batch), batch)

    async def drain(self) -> Ack:
        """Close the core out; the drained ack is the caller's to fold."""
        return self.core.close_out()

    async def close(self) -> None:
        pass
