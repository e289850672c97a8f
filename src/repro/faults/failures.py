"""Failure bookkeeping: per-trajectory failure records and the failure log.

The executors turn stage exceptions into data here.  A retried-then-successful
trajectory carries its :class:`FailureEvent` history on the result
(``PipelineResult.fault_events``); an exhausted or poison trajectory becomes a
:class:`TrajectoryFailure` that the dead-letter quarantine absorbs.  One
:class:`FailureLog` per run reconciles everything — counters for tests, the
metrics registry for dashboards, and the store for the quarantine table.

Counting rule: failure events are counted exactly once, at the parent-side
collection points (sequential collect, ``merge_shard_results``, micro-batch
finish, service drain).  Worker processes only *accumulate* events onto the
objects they return; their own logs are never read.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.config import FailurePolicy
    from repro.core.points import RawTrajectory
    from repro.obs.metrics import MetricsRegistry
    from repro.store.store import SemanticTrajectoryStore

__all__ = [
    "FailureEvent",
    "TrajectoryFailure",
    "FailureLog",
    "tag_failure_stage",
    "failure_stage",
]

#: Attribute used to remember which stage an in-flight exception came from.
_STAGE_ATTR = "_semitri_failed_stage"


def tag_failure_stage(error: BaseException, stage: str) -> None:
    """Remember ``stage`` on ``error`` (first tag wins; never raises)."""
    try:
        if getattr(error, _STAGE_ATTR, None) is None:
            setattr(error, _STAGE_ATTR, stage)
    except Exception:  # noqa: BLE001 - exotic exception types without __dict__
        pass


def failure_stage(error: BaseException, default: str = "unknown") -> str:
    """The stage ``error`` was tagged with, or ``default``."""
    stage = getattr(error, _STAGE_ATTR, None)
    return stage if isinstance(stage, str) and stage else default


@dataclass(frozen=True)
class FailureEvent:
    """One failed attempt at one trajectory: where, what, and which try."""

    stage: str
    kind: str
    attempt: int
    error: str = ""


@dataclass
class TrajectoryFailure:
    """A trajectory the policy gave up on — the quarantine's input record.

    Crosses process boundaries, so ``exception`` (kept for in-process
    re-raising by single-item paths) is stripped to ``None`` before a worker
    pickles the record back to the parent.
    """

    trajectory: "RawTrajectory"
    stage: str
    error: str
    attempts: int
    events: List[FailureEvent] = field(default_factory=list)
    exception: Optional[BaseException] = None

    @property
    def object_id(self) -> str:
        return self.trajectory.object_id


class FailureLog:
    """Run-scoped reconciliation point for every failure event.

    Thread-safe: its counters and quarantine buffer sit behind one lock.  The
    service reports to its log from one thread, its event loop's; a shard
    core keeps a log of its own.  Counters are plain integers so tests
    reconcile exactly; when a metrics registry is attached,
    ``retries_total``, ``quarantined_total``, ``wal_replayed_total`` and
    ``worker_losses_total`` read them, and each failure is also counted in
    ``failures_total{stage,kind}``.
    Quarantined trajectories write through to the store when one is bound,
    or buffer until :meth:`flush_to_store` (the service buffers the
    quarantines its shards ship back and flushes them into its store at
    drain).  ``quarantined`` counts dead-letter *decisions*; the log keeps no
    store row ids, because a quarantine row lives or dies with the store scope
    it was written in — a caller's ``with store:`` that rolls back takes it
    away again, and the store, not the log, says which rows exist.
    """

    def __init__(
        self,
        policy: "FailurePolicy",
        store: Optional["SemanticTrajectoryStore"] = None,
        registry: Optional["MetricsRegistry"] = None,
    ):
        self.policy = policy
        self._store = store
        self._lock = threading.Lock()
        self._pending_store: List[TrajectoryFailure] = []
        self.failures = 0
        self.retries = 0
        self.quarantined = 0
        self.wal_replayed = 0
        self.worker_losses = 0
        # Held weakly: the registry's series read this log.
        self._registry = None if registry is None else weakref.ref(registry)
        if registry is not None:
            for count, help in (
                ("retries", "Per-trajectory retry attempts after a stage failure"),
                ("quarantined", "Trajectories dead-lettered to the quarantine table"),
                ("wal_replayed", "Ingest-journal records replayed during recovery"),
                ("worker_losses", "Worker processes (pool and shard) lost and recovered from"),
            ):
                registry.counter(f"{count}_total", help=help, read=partial(getattr, self, count))

    # -------------------------------------------------------------- recording
    def record_failure(self, stage: str, kind: str, retried: bool = False) -> None:
        """Count one failure event (and optionally the retry that followed)."""
        with self._lock:
            self.failures += 1
            if retried:
                self.retries += 1
        registry = self._registry() if self._registry is not None else None
        if registry is not None:
            registry.counter(
                "failures_total",
                help="Stage failures by stage and exception kind",
                stage=stage,
                kind=kind,
            ).inc()

    def record_worker_loss(self) -> None:
        """Count one lost worker process (pool or process shard) under ``skip``/``retry``."""
        with self._lock:
            self.worker_losses += 1

    def record_wal_replayed(self, count: int) -> None:
        """Count journal records replayed during service recovery."""
        if count <= 0:
            return
        with self._lock:
            self.wal_replayed += count

    def absorb_result(self, result: object) -> None:
        """Count the failure history a retried-then-successful result carries."""
        events = getattr(result, "fault_events", None)
        if not events:
            return
        for event in events:
            # Every event on a *successful* result was followed by a retry.
            self.record_failure(event.stage, event.kind, retried=True)

    # ------------------------------------------------------------- quarantine
    def quarantine(self, failure: TrajectoryFailure) -> None:
        """Count and persist (or buffer) one exhausted/poison trajectory."""
        for index, event in enumerate(failure.events):
            # The last attempt was terminal — no retry followed it.
            self.record_failure(
                event.stage, event.kind, retried=index < len(failure.events) - 1
            )
        if not failure.events:
            self.record_failure(failure.stage, "unknown")
        with self._lock:
            self.quarantined += 1
        if self._store is not None:
            self._store.save_quarantined([failure])
        else:
            with self._lock:
                self._pending_store.append(failure)

    def flush_to_store(self, store: "SemanticTrajectoryStore") -> None:
        """Persist buffered quarantines (used by stores bound after the fact)."""
        with self._lock:
            pending, self._pending_store = self._pending_store, []
        if pending:
            store.save_quarantined(pending)

    @property
    def pending_quarantines(self) -> List[TrajectoryFailure]:
        """Quarantines not yet persisted (no store bound)."""
        with self._lock:
            return list(self._pending_store)

    def drain_pending(self) -> List[TrajectoryFailure]:
        """Pop the buffered quarantines (shard workers ship them to the parent).

        Unlike :attr:`pending_quarantines` this *clears* the buffer: the
        process transport's workers call it after every frame so dead letters
        stream to the parent incrementally, which then quarantines them on its
        own log (the single counting point per the module counting rule).
        """
        with self._lock:
            pending, self._pending_store = self._pending_store, []
        return pending

    def snapshot(self) -> dict:
        """Counter snapshot for health endpoints and test assertions."""
        with self._lock:
            return {
                "failures": self.failures,
                "retries": self.retries,
                "quarantined": self.quarantined,
                "wal_replayed": self.wal_replayed,
                "worker_losses": self.worker_losses,
            }
