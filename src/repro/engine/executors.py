"""Executors that run a :class:`~repro.engine.plan.Plan`.

Three executors drive the same compiled stage graph:

* :class:`SequentialExecutor` — in-process, a chunk of trajectories at a time;
  the batch mode of :func:`repro.api.annotate_many` with one worker.  A
  persisting plan commits each chunk in one store transaction.
* :class:`ProcessPoolExecutor` — shards the batch by moving object, runs each
  shard in a worker process against the plan's immutable
  :class:`~repro.parallel.context.GeoContext` snapshot and merges the
  results back into input order; byte-identical to sequential execution.
* :class:`MicroBatchExecutor` — the streaming session loop: events are
  micro-batched into per-object sessions; sealed episodes and closed
  trajectories wait, in seal order, in the executor's annotate queue, and a
  flush sends every queued episode through the plan's incremental stage
  bodies as one group, then finishes (and persists) the closed trajectories.
  This is what :func:`repro.api.stream` returns.

Execution is **stage-major**, and batch and streaming run a stage the same
way: each episode stage takes the group of sealed episodes the executor holds
— every episode of a chunk of trajectories in batch (:func:`run_stages`), of
one annotate-queue flush in streaming — and each closed trajectory is then
finished on its own.  A group, because the annotation kernels cost the same
fixed ~150 numpy dispatches for one short episode as for a hundred.  While
fault injection is armed the group shrinks to one trajectory in batch
(:func:`_chunks`) and to one episode in streaming, so every injected fault
lands on the trajectory and attempt it names.

Sealing and annotating are separate steps of the streaming executor, so its
results are **delivered in seal order, by whichever call flushed them**:
through ``on_result`` and in the return value of the ``ingest`` /
``close_object`` call that happened to flush, at most
``_QUEUE_MAX_PASSES`` processing passes after the close.  ``flush()``,
``close_all()`` and ``evict_sessions()`` always flush and are the
synchronisation points.

Every batch decision has exactly one code path, all of it in this module:

========  ==================================================================
split     :func:`shard_by_object` into ``workers * 2`` size-balanced shards
ship      what crosses a process boundary pickles itself: the snapshot is
          the worker's argument (inherited under ``fork``, otherwise
          pickled as the first message on the request pipe), a request is
          the pickle of a shard's ``(input order, trajectory)`` pairs
          (coordinate columns, ``RawTrajectory.__reduce__``); outcomes come
          back through the result codec the process shard's acks use
          (:func:`~repro.parallel.context.dump_outcome`): the raw
          trajectories and the snapshot's places by reference, re-linked to
          the parent's own objects
run       :func:`run_stages` per chunk of ``_CHUNK_TRAJECTORIES`` trajectories
          or ``_CHUNK_POINTS`` GPS points, the same loop in-process and
          inside a worker, its store write-back one transaction; a chunk in
          which a stage or its commit raised is rolled back and re-run
          through :func:`run_stages_resilient`, one trajectory at a time
recover   one hand-out loop, largest shard first, over
          :class:`~repro.parallel.process.WorkerProcess` workers; EOF on a
          worker's response pipe blames the one shard it held, which raises
          under ``fail_fast`` and is retried, then bisected under
          ``skip``/``retry``
collect   :func:`merge_shard_results`, in input order: :func:`_deliver` per
          outcome, then (the pool's workers hold no store) one store commit
========  ==================================================================

Batch and streaming share three functions: :func:`_run_stage` runs any stage
body (fault hooks, one clock pair, the failure's stage tag), :func:`_finish_items`
runs closed trajectories' close-time bodies inside one store scope, and
:func:`_deliver` quarantines a failure or folds a result's retry history and
telemetry.  Stage timing is therefore owned here: every stage body is
measured in one place and recorded on the work items
(:meth:`WorkItem.record_stage`) under the stage's name, so the Figure 17
latency vocabulary is identical for every runtime.
"""

from __future__ import annotations

import heapq
import multiprocessing.connection
import pickle
import time
import weakref
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Callable,
    ContextManager,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.episodes import Episode
from repro.core.errors import ConfigurationError, SemitriError
from repro.core.pipeline import PipelineResult
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine.plan import Plan
from repro.engine.stages import ComputeEpisodesStage, SealedEpisode, Stage, WorkItem
from repro.faults.failures import (
    FailureEvent,
    FailureLog,
    TrajectoryFailure,
    failure_stage,
    tag_failure_stage,
)
from repro.obs.metrics import EngineCounters, MetricsRegistry
from repro.parallel.context import GeoContext, dump_outcome, load_outcome
from repro.parallel.process import SHARD_RETRIES, WorkerProcess
from repro.streaming.session import SealedTrajectory, Session, SessionManager

# One shard of work: (shard index, [(input order, trajectory), ...]).
Shard = Tuple[int, List[Tuple[int, RawTrajectory]]]

# Shards per pool worker: enough pending shards that a worker which finishes
# early always finds another one, at negligible scheduling and merge cost.
_SHARD_MULTIPLIER = 2


# A chunk of the batch loop closes at this many trajectories or GPS points,
# whichever comes first.  The annotation kernels cost ~150 numpy dispatches a
# call whatever the input (the map-matching kernel ~390 us, of which ~340 us
# are fixed — 100 points' worth) and the median move episode holds 7 points,
# so the fixed part is shared by handing a stage the episodes of many
# trajectories at once.  Over the cost ladder's fleet (132 trajectories, 415
# episodes, 12,000 points; ms, best of 7-9, 2-vCPU box), called per
#
#                  episode  trajectory  chunk of 4    16     32     64    all
#   match kernel    100.5      53.5        22.3      21.2   21.0   19.2   16.0
#   region join      38.2      34.5        26.7      20.3   19.2   21.9   23.1
#   annotate_many              191         123       104    100    110    125
#
# The gain is spent by 16-32 trajectories; beyond, the whole batch gets slower
# again, and the results of an unfinished chunk are memory held.  The point
# limit keeps a chunk of long trajectories the size of a chunk of typical ones
# (32 of the fleet's hold ~2,900 points).
_CHUNK_TRAJECTORIES = 32
_CHUNK_POINTS = 4096

# The streaming executor's annotate queue is flushed at the end of the
# processing pass in which its oldest entry has waited this many passes (or
# once the queued episodes hold ``_CHUNK_POINTS`` GPS points).  A 64-event
# pass from 64 objects seals one or two episodes, so annotating at every pass
# pays the kernels' fixed cost per episode; waiting is paid in result delay.
# One stream pass over the cost ladder's seed-1 fleet (12,000 events from 64
# interleaved emitters, 415 episodes, 132 trajectories; CPU ms, best of 15 with
# the rounds interleaved over N, 2-vCPU box), the matcher kernel calls in it,
# and how many operations after the call that closed its trajectory a result
# is delivered:
#
#   passes waited    at seal     1      2      4      8     16   unbounded
#   stream pass, ms    228     211    184    160    144    134      130
#   matcher calls      216     163    100     55     28     15        3
#   delay p50, ops       0      44     64    113    198    329    1,256
#   delay max, ops       0      65    128    256    461    822    4,364
#
# ("at seal" is the executor before the queue existed.)  The constant is the
# smallest bound that keeps 80% of what never flushing on age would save
# (98 ms): 8 keeps 86%, 4 keeps 69%.  A closed trajectory waits at most this
# many passes of its executor — ``8 * micro_batch_size`` events.
_QUEUE_MAX_PASSES = 8


# ---------------------------------------------------------------- stage loop
def _record_shares(stage: Stage, seconds: float, shares: Sequence[Tuple[WorkItem, int]]) -> None:
    """Attribute one measured stage run to its items in proportion to GPS points.

    One latency sample (and one span, when tracing) per entry, the samples
    summing to the measured time; a run over one entry keeps its exact time.
    An episode stage's (:attr:`~repro.engine.stages.Stage.absorbs`) shares
    are held on the items instead, and recorded as one sample (and one span,
    dated from the stage's first run) per item when it closes
    (:func:`_finish_items`), however many groups fed it.
    """
    total = sum(points for _, points in shares)
    for item, points in shares:
        share = seconds * points / total
        if stage.absorbs:
            item.hold_stage(stage.name, share)
        else:
            item.record_stage(stage.name, share)


def _run_stage(
    plan: Plan,
    stage: Stage,
    shares: Sequence[Tuple[WorkItem, int]],
    body: Callable[[], object],
) -> None:
    """Run one stage body: the one place any executor fires, times and tags a stage.

    ``shares`` are the body's ``(item, weight)`` entries.  While fault
    injection is armed the stage's hook fires once per entry; the body is
    timed once and the time shared out over the entries
    (:func:`_record_shares`).  A failure is tagged with the stage's name
    (:func:`~repro.faults.failures.tag_failure_stage`) and propagates:
    isolation, retries and quarantine are the callers'.
    """
    faults = plan.faults
    started = time.perf_counter()
    try:
        if faults.enabled:
            for item, _ in shares:
                faults.on_stage(stage.name, item.trajectory.object_id)
        body()
    except BaseException as error:
        tag_failure_stage(error, stage.name)
        raise
    _record_shares(stage, time.perf_counter() - started, shares)


def _finish_items(plan: Plan, items: Sequence[WorkItem]) -> None:
    """Run closed trajectories' close-time bodies, then seal their traces.

    Every stage's untimed :meth:`~repro.engine.stages.Stage.close_out`, and,
    where it :meth:`~repro.engine.stages.Stage.finishes`, its timed
    :meth:`~repro.engine.stages.Stage.finish`: the point layer's Viterbi
    decoding and the store write-back, which need the whole trajectory; an
    episode stage's held time is recorded here, as the item's one sample of
    it (``0.0``, and no span, for a streamed trajectory none of whose
    episodes it wanted).
    Item after item, so the rows land in single-writer order.  When the plan
    persists they all run inside **one** store scope, a savepoint: released
    (committed, at the outermost level) on success and rolled back if a body
    raises, so no trajectory is ever half-persisted and a failed chunk leaves
    nothing behind — inside a caller's ``with store:`` as well, whose other
    writes it leaves alone.  The sealed traces ride on the results; they are
    collected once, at delivery (:func:`_deliver`), so worker-side runs just
    ship their spans back on the pickled result.
    """
    scope: ContextManager[object] = (
        plan.store if plan.persist and plan.store is not None else nullcontext()
    )
    try:
        with scope:
            for item in items:
                for stage in plan.stages:
                    stage.close_out(item)
                    if stage.finishes(item):
                        _run_stage(plan, stage, [(item, 1)], partial(stage.finish, item))
                    if stage.absorbs:
                        item.release_stage(stage.name)
    except BaseException as error:
        # Untagged here means the failure came from the scope exit itself —
        # the store commit (first tag wins, so stage tags survive).
        tag_failure_stage(error, "store_commit")
        raise
    for item in items:
        item.finish_trace()


def run_stages(plan: Plan, trajectories: Sequence[RawTrajectory]) -> List[PipelineResult]:
    """Run a chunk of trajectories through every stage of the plan, stage-major.

    The single batch execution loop behind every batch executor, and what a
    streaming flush does with trajectories that are already closed: segment
    each trajectory, run each episode stage once over all of the chunk's
    episodes (:meth:`~repro.engine.stages.Stage.absorb_episodes`), so a
    columnar kernel pays its fixed cost once per chunk, then finish the items
    in one store scope (:func:`_finish_items`).  An episode stage fires for
    every item of the chunk, with or without a wanted episode, and its time
    is shared out over the items by GPS points: one latency sample per stage
    and trajectory, exact for a chunk of one.

    Failures are *tagged* (the originating stage rides on the exception, see
    :func:`~repro.faults.failures.tag_failure_stage`) but never handled:
    isolation, retries and quarantine live in :func:`_run_in_process` and
    :func:`run_stages_resilient`.
    """
    faults = plan.faults
    if faults.enabled:
        for trajectory in trajectories:
            faults.on_trajectory(trajectory.object_id)
    items = [WorkItem.start(trajectory, plan.telemetry) for trajectory in trajectories]
    shares = [(item, len(item.trajectory)) for item in items]
    for stage in plan.stages:
        if isinstance(stage, ComputeEpisodesStage):
            for item in items:
                _run_stage(plan, stage, [(item, 1)], partial(stage.run, item))
        elif stage.absorbs:
            wanted = [
                (item, episode)
                for item in items
                for episode in item.result.episodes
                if stage.wants_episode(item, episode)
            ]
            _run_stage(plan, stage, shares, partial(stage.absorb_episodes, wanted))
    _finish_items(plan, items)
    return [item.result for item in items]


def run_stages_resilient(
    plan: Plan,
    trajectory: RawTrajectory,
    prior_events: Sequence[FailureEvent] = (),
) -> "PipelineResult | TrajectoryFailure":
    """Run one trajectory under the plan's failure policy.

    ``fail_fast`` (the default) is a pass-through to :func:`run_stages` —
    exceptions propagate exactly as before.  Under ``skip``/``retry`` a stage
    exception fails only this trajectory: the run is retried up to
    ``max_retries`` times with deterministic exponential backoff, and
    exhaustion returns a :class:`TrajectoryFailure` (never raises) for the
    caller to quarantine.  A retried-then-successful result carries its
    failure history in ``fault_events``.

    ``prior_events`` are attempts that already failed elsewhere (the
    micro-batch executor's incremental pass): they count against the retry
    budget and lead the failure history, so the loop resumes after them.
    """
    policy = plan.failure_policy
    if not policy.isolates:
        return run_stages(plan, [trajectory])[0]
    events = list(prior_events)
    error: Optional[Exception] = None
    while True:
        if events:
            last = events[-1]
            if last.attempt > policy.retries:
                return TrajectoryFailure(
                    trajectory=trajectory,
                    stage=last.stage,
                    error=last.error,
                    attempts=last.attempt,
                    events=events,
                    exception=error,
                )
            delay = policy.backoff(last.attempt)
            if delay > 0:
                time.sleep(delay)
        try:
            [result] = run_stages(plan, [trajectory])
        except Exception as caught:
            error = caught
            events.append(
                FailureEvent(
                    stage=failure_stage(caught),
                    kind=type(caught).__name__,
                    attempt=events[-1].attempt + 1 if events else 1,
                    error=repr(caught),
                )
            )
            continue
        if events:
            result.fault_events = events
        return result


def _chunks(
    plan: Plan, items: Iterable[Tuple[int, RawTrajectory]]
) -> Iterator[List[Tuple[int, RawTrajectory]]]:
    """Cut a batch into the chunks the stage-major loop runs.

    A persisting plan is cut like any other: a chunk's write-back is one
    store transaction.  A chunk is one trajectory while fault injection is
    armed, so every injected fault lands on the trajectory and attempt it
    names.
    """
    single = plan.faults.enabled
    chunk: List[Tuple[int, RawTrajectory]] = []
    points = 0
    for entry in items:
        chunk.append(entry)
        points += len(entry[1])
        if single or len(chunk) >= _CHUNK_TRAJECTORIES or points >= _CHUNK_POINTS:
            yield chunk
            chunk, points = [], 0
    if chunk:
        yield chunk


def _run_in_process(
    plan: Plan, items: Iterable[Tuple[int, RawTrajectory]]
) -> List[Tuple[int, "PipelineResult | TrajectoryFailure"]]:
    """The one in-process batch loop: ``(input order, outcome)`` per trajectory.

    A chunk in which a stage or its store commit raised is discarded — its
    store scope rolled back, so none of its rows stay — and its trajectories
    go one by one through :func:`run_stages_resilient`, each in its own
    scope: under ``fail_fast`` that raises the tagged exception at the
    trajectory a per-trajectory loop would have stopped at, with exactly its
    predecessors committed; under ``skip``/``retry`` it retries or
    quarantines exactly the culprit and commits every innocent once.  Each
    scope is a savepoint, so the same holds inside a caller's ``with
    store:``: there "committed" means released into the caller's scope.
    """
    outputs: List[Tuple[int, "PipelineResult | TrajectoryFailure"]] = []
    for chunk in _chunks(plan, items):
        trajectories = [trajectory for _, trajectory in chunk]
        outcomes: Optional[Sequence["PipelineResult | TrajectoryFailure"]] = None
        if len(chunk) > 1:
            try:
                outcomes = run_stages(plan, trajectories)
            except Exception:
                pass  # raised again below, at the trajectory it belongs to
        if outcomes is None:
            outcomes = [run_stages_resilient(plan, trajectory) for trajectory in trajectories]
        outputs.extend(zip((order for order, _ in chunk), outcomes))
    return outputs


def shard_by_object(trajectories: Sequence[RawTrajectory], shard_count: int) -> List[Shard]:
    """Partition by object id into size-balanced shards, deterministically.

    Objects are assigned greedily (in first-appearance order) to the
    currently lightest shard, measured in GPS points — deterministic for a
    given input, robust to skewed per-object workloads and, on equal-load
    input, plain round-robin.  All trajectories of one object land in the
    same shard, which is what makes per-object sharding a pure reordering of
    the sequential output.
    """
    by_object: Dict[str, List[Tuple[int, RawTrajectory]]] = {}
    loads: Dict[str, int] = {}
    for order, trajectory in enumerate(trajectories):
        by_object.setdefault(trajectory.object_id, []).append((order, trajectory))
        loads[trajectory.object_id] = loads.get(trajectory.object_id, 0) + len(trajectory)
    shard_count = max(1, min(shard_count, len(by_object)))
    shards: List[List[Tuple[int, RawTrajectory]]] = [[] for _ in range(shard_count)]
    shard_loads = [0] * shard_count
    for object_id, items in by_object.items():
        target = min(range(shard_count), key=lambda index: (shard_loads[index], index))
        shards[target].extend(items)
        shard_loads[target] += loads[object_id]
    return [(index, items) for index, items in enumerate(shards) if items]


def _deliver(
    plan: Plan, outcome: "PipelineResult | TrajectoryFailure"
) -> Optional[PipelineResult]:
    """Fold one finished outcome into the plan's run state; its result, if any.

    The one delivery of every executor: an exhausted trajectory is
    quarantined (and ``None`` returned, as for a too-short fragment), a
    retried-then-successful result folds its failure history into the plan's
    failure log, and a result's telemetry is collected — latency into the
    registry, worker-emitted spans re-parented into the parent tracer.
    """
    if isinstance(outcome, TrajectoryFailure):
        plan.ensure_failure_log().quarantine(outcome)
        return None
    if outcome.fault_events:
        plan.ensure_failure_log().absorb_result(outcome)
    if plan.telemetry.enabled:
        plan.telemetry.collect(outcome)
    return outcome


def merge_shard_results(
    plan: Plan,
    outputs: Iterable[Tuple[int, "PipelineResult | TrajectoryFailure"]],
    commit: bool,
) -> List[PipelineResult]:
    """Collect a batch's ``(input order, outcome)`` pairs, in input order.

    The single parent-side collection point of the batch executors, however
    the outcomes were produced and in whatever order they arrive: each is
    delivered (:func:`_deliver`) by input position, which makes failure-log
    and span order independent of shard submission and completion order.
    Exhausted trajectories are absent from the output.

    With ``commit`` (the pool: its workers hold no store) the survivors' rows
    then go to the store in one transaction, in the exact order — contents
    and autoincrement identifiers — a single sequential writer would produce.
    Under a ``retry`` policy a failed commit is retried with backoff; the
    store rolled the failed attempt back, so the retry re-sends the identical
    batch.
    """
    ordered = dict(outputs)
    results: List[PipelineResult] = []
    for order in sorted(ordered):
        result = _deliver(plan, ordered[order])
        if result is not None:
            results.append(result)
    store = plan.store
    if commit and plan.persist and store is not None:
        rows = [(result.trajectory, result.episodes) for result in results]
        _commit_with_retry(
            plan.ensure_failure_log(), lambda: store.save_annotated_trajectories(rows)
        )
    return results


def _commit_with_retry(
    failure_log: FailureLog, commit: Callable[[], object], stage: str = "store_commit"
) -> None:
    """Run a merged store commit under the failure log's policy.

    A failed commit is rolled back by the store, so retrying re-executes the
    batch from scratch without duplicating rows.  ``fail_fast`` and ``skip``
    raise immediately — a commit failure is not a per-trajectory event, so
    skip-isolation does not apply.  Each failed attempt is recorded under the
    stage the error was tagged with, or ``stage``.
    """
    policy = failure_log.policy
    attempt = 0
    while True:
        attempt += 1
        try:
            commit()
            return
        except Exception as error:
            retryable = policy.mode == "retry" and attempt <= policy.max_retries
            failure_log.record_failure(
                failure_stage(error, stage), type(error).__name__, retried=retryable
            )
            if not retryable:
                raise
            delay = policy.backoff(attempt)
            if delay > 0:
                time.sleep(delay)


def _count_batch(
    plan: Plan,
    executor: str,
    trajectories: Sequence[RawTrajectory],
    results: Sequence[PipelineResult],
) -> None:
    """Fold one finished batch into the registry's engine throughput counters.

    The batch executors keep no running count, so they push whole batches
    after the fact; the micro-batch executor's series read its
    :class:`EngineStats`.  All three executor kinds expose the same
    ``engine_*_total`` series (labelled by executor) from one registry.
    """
    if plan.telemetry.metrics is None:
        return
    counters = EngineCounters(plan.telemetry.metrics, executor)
    counters.events.inc(sum(len(trajectory) for trajectory in trajectories))
    counters.results.inc(len(results))
    counters.episodes_sealed.inc(sum(len(result.episodes) for result in results))


# ------------------------------------------------------------------ executors
class SequentialExecutor:
    """In-process, one chunk of trajectories at a time — the batch reference executor.

    Each stage runs once per chunk (:func:`_run_in_process`), and a
    persisting plan commits each chunk in one transaction; a chunk in which a
    stage or its commit raised is redone one trajectory at a time.
    """

    #: Short identifier used in reporting (the ``executor`` metric label).
    kind = "sequential"

    def run(self, plan: Plan, trajectories: Sequence[RawTrajectory]) -> List[PipelineResult]:
        """Annotate the batch under the plan's failure policy.

        Under ``skip``/``retry`` an exhausted trajectory is quarantined and
        simply absent from the output; survivors keep their relative order
        (and their single-writer store row order).
        """
        outputs = _run_in_process(plan, enumerate(trajectories))
        merged = merge_shard_results(plan, outputs, commit=False)
        _count_batch(plan, self.kind, trajectories, merged)
        return merged

    def run_one(self, plan: Plan, trajectory: RawTrajectory) -> PipelineResult:
        """Annotate a single trajectory (inline write-back when persisting).

        A single-result API has no "skip" output, so even under an isolating
        policy an exhausted trajectory is quarantined *and* the terminal
        exception re-raised.
        """
        out = run_stages_resilient(plan, trajectory)
        _deliver(plan, out)
        if isinstance(out, TrajectoryFailure):
            raise out.exception or SemitriError(
                f"trajectory {trajectory.trajectory_id!r} exhausted its retries "
                f"in stage {out.stage!r}: {out.error}"
            )
        _count_batch(plan, self.kind, [trajectory], [out])
        return out


def _pool_worker(context: GeoContext) -> Callable[[bytes], bytes]:
    """Build one pool worker's shard handler (runs in the worker process).

    A request is the pickle of a shard's ``(input order, trajectory)`` pairs;
    the response is their outcomes as result-codec bytes
    (:func:`~repro.parallel.context.dump_outcome`): the shard's own input
    trajectories and the snapshot's places travel by reference.  Under an
    isolating policy, failed trajectories come back as
    :class:`TrajectoryFailure` records (their exception object stripped —
    arbitrary exceptions may not pickle; the repr travels) for the parent to
    quarantine; under ``fail_fast`` the stage exception itself comes back.
    Workers never persist (they cannot share the store connection), so the
    plan is compiled without a store.  It reads ``SEMITRI_FAULTS`` from the
    inherited environment, so injected chaos follows the shard into the pool.
    """
    plan = Plan.compile(context)

    def handle(request: bytes) -> bytes:
        try:
            items = pickle.loads(request)
            outputs = _run_in_process(plan, items)
            for _, out in outputs:
                if isinstance(out, TrajectoryFailure):
                    out.exception = None
            return dump_outcome(outputs, context, items)
        except Exception as error:
            try:
                return dump_outcome(error, context)
            except Exception:
                return dump_outcome(SemitriError(repr(error)), context)

    return handle


def _stop_workers(workers: List[WorkerProcess]) -> None:
    for worker in workers:  # every worker sees EOF at once, then each is reaped
        worker.requests.close()
    for worker in workers:
        worker.stop()


def _points(items: List[Tuple[int, RawTrajectory]]) -> int:
    return sum(len(trajectory) for _, trajectory in items)


class ProcessPoolExecutor:
    """Sharded execution on a pool of worker processes.

    The batch is partitioned by moving object into size-balanced shards; each
    shard is annotated in a worker against the plan's immutable
    :class:`GeoContext` snapshot and the results are merged back into input
    order, byte-identical to sequential execution.  The workers (started with
    one snapshot) are kept warm across ``run`` calls for plans built from the
    same snapshot — hold one executor and one
    :func:`repro.api.compile_plan` ``(context=...)`` plan to amortise worker
    start-up over many batches.
    """

    kind = "process"

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        self._size = workers
        self._workers: List[WorkerProcess] = []
        self._context: Optional[GeoContext] = None
        self._finalizer: Optional[weakref.finalize] = None

    @property
    def workers(self) -> int:
        """Number of worker processes the pool uses."""
        return self._size

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the worker processes and let go of their snapshot (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._workers = []
        self._context = None

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -------------------------------------------------------------- execution
    def run(self, plan: Plan, trajectories: Sequence[RawTrajectory]) -> List[PipelineResult]:
        trajectories = list(trajectories)
        if not trajectories:
            return []
        shards = shard_by_object(trajectories, self._size * _SHARD_MULTIPLIER)
        if len(shards) == 1:
            # A single shard gains nothing from the pool; run it inline, as a
            # worker would: on the plan without its write-back.
            inline = replace(
                plan,
                stages=tuple(stage for stage in plan.stages if not stage.writes_back),
                store=None,
                persist=False,
            )
            outputs = _run_in_process(inline, shards[0][1])
        else:
            outputs = self._run_shards(plan, shards)
        merged = merge_shard_results(plan, outputs, commit=True)
        _count_batch(plan, self.kind, trajectories, merged)
        return merged

    def _run_shards(
        self, plan: Plan, shards: List[Shard]
    ) -> List[Tuple[int, "PipelineResult | TrajectoryFailure"]]:
        """Hand shards to idle workers until every one has completed or is blamed.

        Largest shard first (LPT), one at a time, to whichever worker is
        idle, so a skewed shard cannot serialise the tail; completion order is
        irrelevant — the merge reorders by input position.

        A worker that dies shows up as EOF on its own response pipe, which
        names the one shard it held; the worker is replaced and only that
        shard is charged.  Under ``fail_fast`` the round then ends with a
        :class:`SemitriError`, as it does with a stage exception, once the
        shards still in flight have answered (the workers stay warm and hold
        nothing stale).  Under ``skip``/``retry`` the shard is resubmitted up
        to :data:`~repro.parallel.process.SHARD_RETRIES` times, then
        *bisected* — halves inherit the attempt count, so repeated losses
        binary-search down to one trajectory, which comes back as a
        ``WorkerLost`` :class:`TrajectoryFailure` with its raw events intact.
        Canonical bytes of every surviving trajectory are untouched: recovery
        only re-runs work that never completed.
        """
        policy = plan.failure_policy
        workers = self._start(plan.context)
        pending = [(-_points(items), index, items, 0) for index, items in shards]
        heapq.heapify(pending)
        next_index = max(index for index, _ in shards) + 1
        held: Dict[int, Tuple[int, List[Tuple[int, RawTrajectory]], int]] = {}
        collected: List[Tuple[int, "PipelineResult | TrajectoryFailure"]] = []
        error: Optional[BaseException] = None

        def hand_out() -> None:  # the next pending shard to each idle worker
            for slot, worker in enumerate(workers):
                if slot not in held and pending and error is None:
                    _, index, items, attempts = heapq.heappop(pending)
                    held[slot] = (index, items, attempts)
                    worker.send(pickle.dumps(items, pickle.HIGHEST_PROTOCOL))

        try:
            hand_out()
            while held:
                slots = {workers[slot].responses: slot for slot in held}
                for ready in multiprocessing.connection.wait(list(slots)):
                    slot = slots[ready]  # type: ignore[index]
                    index, items, attempts = held.pop(slot)
                    try:
                        response = ready.recv_bytes()  # type: ignore[union-attr]
                    except (EOFError, OSError):
                        workers[slot].stop()
                        workers[slot] = self._worker(plan.context, slot)
                        if not policy.isolates:
                            error = error or SemitriError(
                                f"worker process lost while annotating shard {index} "
                                f"({len(items)} trajectories)"
                            )
                            continue
                        plan.ensure_failure_log().record_worker_loss()
                        attempts += 1
                        if attempts <= SHARD_RETRIES:
                            parts = [items]  # whole-shard retry
                        elif len(items) > 1:
                            half = (len(items) + 1) // 2
                            parts = [items[:half], items[half:]]
                        else:
                            order, trajectory = items[0]
                            collected.append((order, _worker_lost(trajectory, attempts)))
                            parts = []
                        for part in parts:
                            heapq.heappush(pending, (-_points(part), next_index, part, attempts))
                            next_index += 1
                        hand_out()
                        continue
                    hand_out()  # before decoding, so the worker is not idle meanwhile
                    outcome = load_outcome(response, plan.context, items)
                    if isinstance(outcome, BaseException):
                        error = error or outcome
                    else:
                        collected.extend(outcome)
        except BaseException:
            self.close()  # a worker may still hold a shard whose response nobody reads
            raise
        if error is not None:
            raise error
        return collected

    def _start(self, context: GeoContext) -> List[WorkerProcess]:
        if self._context is not context:
            self.close()  # workers started with another snapshot are stale
            self._workers = [self._worker(context, slot) for slot in range(self._size)]
            self._context = context
            # If the executor is garbage collected without close(), stop the
            # worker processes instead of leaking them; finalize also runs at
            # interpreter exit.  The list does not refer back to the executor.
            self._finalizer = weakref.finalize(self, _stop_workers, self._workers)
        return self._workers

    @staticmethod
    def _worker(context: GeoContext, slot: int) -> WorkerProcess:
        # The snapshot is the worker's argument under every start method: a
        # forked worker finds the parent's object in inherited memory, any
        # other reads its pickle as the first message on its request pipe.
        return WorkerProcess(_pool_worker, (context,), name=f"semitri-pool-{slot}")


def _worker_lost(trajectory: RawTrajectory, attempts: int) -> TrajectoryFailure:
    """The quarantine record of a trajectory that alone kept killing workers."""
    return TrajectoryFailure(
        trajectory=trajectory,
        stage="worker",
        error="worker process lost while annotating this trajectory (SIGKILL/OOM)",
        attempts=attempts,
        events=[
            FailureEvent(stage="worker", kind="WorkerLost", attempt=attempt + 1)
            for attempt in range(attempts)
        ],
    )


# ------------------------------------------------------------- micro-batching
@dataclass
class EngineStats:
    """Counters a micro-batch executor maintains while processing the stream.

    When the plan's telemetry enables metrics, the ``engine_*_total`` registry
    counters labelled ``executor="micro_batch"`` read these fields; the batch
    executors push the same vocabulary (see
    :class:`repro.obs.metrics.EngineCounters`).
    """

    events: int = 0
    results: int = 0
    episodes_sealed: int = 0
    trajectories_discarded: int = 0
    processing_passes: int = 0


class MicroBatchExecutor:
    """The streaming session loop as a plan executor.

    Events are buffered into micro-batches
    (``plan.config.streaming.micro_batch_size``); each processing pass
    appends the buffered points to their per-object sessions and lets every
    touched session seal episodes.  Sealing only *queues*: sealed episodes and
    closed trajectories (gap, eviction or explicit close) wait in seal order
    in the annotate queue.  A flush routes all queued episodes through the
    plan's incremental stage bodies as one group and then walks the queue,
    firing ``on_episode`` per episode and running the close-time stage bodies
    per closed trajectory — HMM point annotation over the full stop sequence
    and, when the plan persists, store write-back inside one
    commit-on-success transaction scope — followed by ``on_result``.

    The queue is flushed at the end of a processing pass once its oldest entry
    has waited ``_QUEUE_MAX_PASSES`` passes or its episodes hold
    ``_CHUNK_POINTS`` GPS points, and by :meth:`flush`, :meth:`close_all` and
    :meth:`evict_sessions`.  Results are therefore delivered
    in seal order by whichever call flushed them; :meth:`flush` is the
    synchronisation point.  While fault injection is armed nothing waits:
    every call flushes what it queued, one episode at a time.
    """

    kind = "micro_batch"

    def __init__(
        self,
        plan: Plan,
        on_result: Optional[Callable[[PipelineResult], None]] = None,
        on_episode: Optional[Callable[[Episode], None]] = None,
    ):
        self._plan = plan
        self._streaming = plan.config.streaming
        self._on_result = on_result
        self._on_episode = on_episode
        self._sessions = SessionManager(plan.config)
        # Buffered events as (object_id, x, y, t): the point is unpacked at the door.
        self._pending: List[Tuple[str, float, float, float]] = []
        self._items: Dict[str, WorkItem] = {}
        # The annotate queue: everything sealed and not yet delivered, in seal
        # order — a sealed episode with its item, or a closed trajectory.
        self._queue: Deque["SealedEpisode | SealedTrajectory"] = deque()
        # The queued episodes no flush has routed through the stages yet, and
        # the GPS points they hold.
        self._unannotated: List[SealedEpisode] = []
        self._unannotated_points = 0
        # Processing passes the oldest queue entry has waited.
        self._queue_passes = 0
        # Trajectories whose incremental absorption failed under an isolating
        # policy: stage routing is suspended for them (events keep counting),
        # and close-time handling decides between batch-replay and quarantine.
        self._poisoned: Dict[str, List[FailureEvent]] = {}
        self.stats = EngineStats()
        if plan.telemetry.metrics is not None:
            self._register_metrics(plan.telemetry.metrics)

    def _register_metrics(self, registry: MetricsRegistry) -> None:
        """Publish this executor's own counts as series that read them.

        The reads hold what counts, never the executor (a cycle via the plan).
        """
        EngineCounters(registry, self.kind, self.stats)
        sessions = self._sessions
        registry.counter(
            "streaming_evictions_total",
            help="Sessions closed by LRU eviction",
            read=lambda: sessions.evicted_total,
        )
        registry.counter(
            "streaming_gap_closeouts_total",
            help="Trajectories sealed online by a time/distance gap",
            read=lambda: sessions.gap_closeouts,
        )
        registry.gauge(
            "streaming_open_sessions",
            help="Currently open per-object sessions",
            read=sessions.__len__,
        )
        registry.gauge(
            "streaming_pending_events",
            help="Events buffered in the current micro-batch",
            read=self._pending.__len__,
        )
        registry.gauge(
            "streaming_annotate_queue_depth",
            help="Sealed episodes and closed trajectories waiting for the next flush",
            read=self._queue.__len__,
        )

    # ------------------------------------------------------------- properties
    @property
    def plan(self) -> Plan:
        """The compiled plan this executor drives."""
        return self._plan

    @property
    def open_session_count(self) -> int:
        """Number of currently open per-object sessions."""
        return len(self._sessions)

    @property
    def sessions_evicted(self) -> int:
        """Sessions closed because the LRU capacity was exceeded."""
        return self._sessions.evicted_total

    @property
    def pending_event_count(self) -> int:
        """Events buffered in the current micro-batch."""
        return len(self._pending)

    @property
    def annotate_queue_depth(self) -> int:
        """Sealed episodes and closed trajectories waiting for the next flush."""
        return len(self._queue)

    # ------------------------------------------------------------------ feed
    def ingest(self, object_id: str, point: SpatioTemporalPoint) -> List[PipelineResult]:
        """Feed one event; returns the results a flush inside the call delivered.

        Most calls only buffer the event and return ``[]``; every
        ``micro_batch_size`` events the executor runs a processing pass,
        during which gap close-outs, LRU evictions and episode sealing
        happen.  What a pass seals is queued, not returned: the results of
        this and earlier calls arrive — through ``on_result`` and in the
        return value — with the pass that flushes the annotate queue, and
        :meth:`flush` returns everything sealed so far.
        """
        self._pending.append((object_id, point.x, point.y, point.t))
        self.stats.events += 1
        if len(self._pending) >= self._streaming.micro_batch_size:
            return self._process_pending()
        return []

    def ingest_many(
        self, events: Iterable[Tuple[str, SpatioTemporalPoint]]
    ) -> List[PipelineResult]:
        """Feed several events in order; returns every result delivered meanwhile."""
        results: List[PipelineResult] = []
        for object_id, point in events:
            results.extend(self.ingest(object_id, point))
        return results

    def flush(self) -> List[PipelineResult]:
        """Process the buffered micro-batch and deliver everything sealed so far.

        The synchronisation point of the delivery contract: the buffered
        events get their processing pass (sessions are not explicitly closed,
        but gap close-outs and LRU evictions triggered by those events happen
        here) and the annotate queue is flushed, so on return every trajectory
        closed so far has been delivered, by this call or an earlier one.
        """
        results = self._process_pending()
        results.extend(self._flush_queue())
        return results

    def close_object(self, object_id: str) -> List[PipelineResult]:
        """End of stream for one object: seal its open trajectory.

        The sealed trajectory joins the annotate queue; its result is
        delivered by the call that flushes the queue — this one only if a
        flush rule fires inside it.  Follow with :meth:`flush` to have it
        now.
        """
        results = self._process_pending()
        session = self._sessions.pop(object_id)
        if session is not None:
            self._close_session(session)
            results.extend(self._flush_if_due())
        return results

    def close_all(self) -> List[PipelineResult]:
        """End of stream for every object; returns all remaining results."""
        results = self._process_pending()
        for session in self._sessions.pop_all():
            self._close_session(session)
        results.extend(self._flush_queue())
        return results

    def evict_sessions(self, max_open: int) -> List[PipelineResult]:
        """Gracefully close least-recently-active sessions beyond ``max_open``.

        The memory-pressure hook the ingestion service drives: buffered
        events are processed first (so eviction cannot reorder absorption),
        then the LRU tail is sealed through the same close-out path a gap or
        an explicit close takes, and the annotate queue is flushed, so
        everything sealed so far is returned and nothing stays queued.
        """
        results = self._process_pending()
        for session in self._sessions.evict_lru(max_open):
            self._close_session(session)
        results.extend(self._flush_queue())
        return results

    # ------------------------------------------------------------- processing
    def _process_pending(self) -> List[PipelineResult]:
        if not self._pending:
            return []
        self.stats.processing_passes += 1
        # Take the batch before touching any session: if a push raises
        # mid-pass, already-absorbed events must not be replayed into their
        # sessions by the next pass.
        pending = self._pending[:]
        self._pending.clear()
        touched: Dict[str, Session] = {}
        taken = 0
        acquire = self._sessions.acquire
        try:
            for object_id, x, y, t in pending:
                session, evicted = acquire(object_id)
                for old in evicted:
                    touched.pop(old.object_id, None)
                    self._close_session(old)
                taken += 1
                sealed = session.push(x, y, t)
                if sealed is not None:
                    self._enqueue_closed(sealed)
                touched[object_id] = session
        finally:
            # Only an event that raised leaves a tail: the event itself stays
            # consumed, but its unprocessed neighbours go back to the head of
            # the event buffer and the sessions already fed still get their
            # advance.  Nothing here runs a stage body — sealing only
            # enqueues — so no second exception can mask the one propagating.
            self._pending[:0] = pending[taken:]
            self._advance_sessions(touched.values())
        if self._queue:
            self._queue_passes += 1
        return self._flush_if_due()

    def _advance_sessions(self, sessions: Iterable[Session]) -> None:
        """Let every session touched by a pass seal episodes, and queue them.

        The detector scanned each fix as it was pushed, so only a session
        whose last scan left a refinement due is advanced.  The refinement's
        time is added up on the trajectory's work item and recorded as the
        trajectory's one ``compute_episode`` sample when it seals
        (:meth:`_enqueue_closed`), the shape a batch result has.
        """
        clock = time.perf_counter
        items = self._items
        for session in sessions:
            trajectory = session.trajectory
            if trajectory is None:
                continue
            # The item, and its trace's root span, starts with the first pass
            # that touches the trajectory, whether or not it refines.
            item = items.get(trajectory.trajectory_id)
            if item is None:
                item = self._item_for(trajectory)
            if not session.refine_due:
                continue
            started = clock()
            episodes = session.advance()
            item.episode_seconds += clock() - started
            for episode in episodes:
                self._enqueue_episode(item, episode)

    def _close_session(self, session: Session) -> None:
        self._enqueue_closed(session.close())

    # ---------------------------------------------------------- annotate queue
    def _enqueue_episode(self, item: WorkItem, episode: Episode) -> None:
        self.stats.episodes_sealed += 1
        sealed = (item, episode)
        self._queue.append(sealed)
        self._unannotated.append(sealed)
        self._unannotated_points += len(episode)

    def _enqueue_closed(self, closed: List[SealedTrajectory]) -> None:
        for sealed in closed:
            if not sealed.discarded:
                item = self._item_for(sealed.trajectory)
                item.record_stage("compute_episode", item.episode_seconds + sealed.compute_seconds)
                for episode in sealed.final_episodes:
                    self._enqueue_episode(item, episode)
            self._queue.append(sealed)

    def _flush_if_due(self) -> List[PipelineResult]:
        """Flush the annotate queue if one of the flush rules says so."""
        if self._queue and (
            self._queue_passes >= _QUEUE_MAX_PASSES
            or self._unannotated_points >= _CHUNK_POINTS
            or self._plan.faults.enabled
        ):
            return self._flush_queue()
        return []

    def _flush_queue(self) -> List[PipelineResult]:
        """Annotate every queued episode as one group, then deliver in seal order.

        The walk fires ``on_episode`` for episode entries and finishes closed
        trajectories (``on_result``), exactly the sequence an executor that
        annotated at seal time would have produced.  With fault injection
        armed each episode is annotated alone, when the walk reaches it, so
        every injected fault lands on the episode and occurrence it names.

        An entry leaves the queue as the walk takes it: a ``fail_fast`` raise
        keeps the entries behind it queued for the next flush.  The group
        handed to the stages is consumed by the attempt either way.
        """
        single = self._plan.faults.enabled
        group, self._unannotated, self._unannotated_points = self._unannotated, [], 0
        if not single:
            self._absorb(group)
        results: List[PipelineResult] = []
        queue = self._queue
        try:
            while queue:
                entry = queue.popleft()
                if isinstance(entry, SealedTrajectory):
                    result = self._finish_trajectory(entry)
                    if result is not None:
                        results.append(result)
                    continue
                if single:
                    self._absorb([entry])
                if self._on_episode is not None:
                    self._on_episode(entry[1])
        finally:
            if not queue:
                self._queue_passes = 0
        return results

    def _finish_trajectory(self, sealed: SealedTrajectory) -> Optional[PipelineResult]:
        if sealed.discarded:
            self.stats.trajectories_discarded += 1
            self._items.pop(sealed.trajectory.trajectory_id, None)
            self._poisoned.pop(sealed.trajectory.trajectory_id, None)
            return None
        item = self._item_for(sealed.trajectory)
        plan = self._plan
        trajectory_id = item.trajectory.trajectory_id
        events = self._poisoned.pop(trajectory_id, None)
        if events is None:
            try:
                _finish_items(plan, [item])
            except Exception as error:
                if not plan.failure_policy.isolates:
                    self._items.pop(trajectory_id, None)
                    raise
                events = [
                    FailureEvent(
                        stage=failure_stage(error),
                        kind=type(error).__name__,
                        attempt=1,
                        error=repr(error),
                    )
                ]
        outcome: "PipelineResult | TrajectoryFailure" = item.result
        if events is not None:
            # Incremental absorption consumed the session's events, so a
            # failed streaming trajectory is retried by re-running the
            # *sealed* trajectory through the batch stage loop — which the
            # parity guarantee makes content-identical to an incremental
            # pass — with the failed attempt counted against the retry
            # budget.  Exhaustion quarantines the sealed trajectory with its
            # raw events; the trajectory id is the session's, so a later
            # replay-from-quarantine slots into the same identity.
            outcome = run_stages_resilient(plan, sealed.trajectory, prior_events=events)
            if isinstance(outcome, TrajectoryFailure):
                # Shard workers pickle buffered quarantines to the parent.
                outcome.exception = None

        self._items.pop(trajectory_id, None)
        result = _deliver(plan, outcome)
        if result is None:
            return None
        self.stats.results += 1
        if self._on_result is not None:
            self._on_result(result)
        return result

    # ------------------------------------------------------------- annotation
    def _absorb(self, sealed: Sequence[SealedEpisode]) -> None:
        """Route a group of sealed episodes through the plan's incremental stages.

        Called by :meth:`_flush_queue` only.  Each stage takes the wanted
        episodes of the group in one call through :func:`_run_stage`, which
        holds each item's share until the trajectory closes (one latency
        sample per trajectory and stage, as in batch).

        Under an isolating policy a stage failure poisons the trajectories of
        its group — routing is suspended for the rest of their episodes (they
        still append and count) and close-time handling re-runs each through
        the batch loop.  A failure that belongs to a single trajectory is that
        trajectory's first attempt, as it always was; one raised by a group of
        several cannot be pinned on any of them, so none is charged an attempt
        and the culprit fails again, alone, at its close.  Under ``fail_fast``
        the tagged exception propagates as before.
        """
        if not sealed:
            return
        plan = self._plan
        for item, episode in sealed:
            item.result.episodes.append(episode)
        for stage in plan.stages:
            wanted = [
                (item, episode)
                for item, episode in sealed
                if item.trajectory.trajectory_id not in self._poisoned
                and stage.wants_episode(item, episode)
            ]
            if not wanted:
                continue
            try:
                _run_stage(
                    plan,
                    stage,
                    [(item, len(episode)) for item, episode in wanted],
                    partial(stage.absorb_episodes, wanted),
                )
            except Exception as error:
                if not plan.failure_policy.isolates:
                    raise
                suspects = {item.trajectory.trajectory_id for item, _ in wanted}
                charged: List[FailureEvent] = []
                if len(suspects) == 1:
                    charged.append(
                        FailureEvent(
                            stage=stage.name,
                            kind=type(error).__name__,
                            attempt=1,
                            error=repr(error),
                        )
                    )
                for trajectory_id in suspects:
                    self._poisoned.setdefault(trajectory_id, []).extend(charged)

    def _item_for(self, trajectory: RawTrajectory) -> WorkItem:
        item = self._items.get(trajectory.trajectory_id)
        if item is None:
            item = WorkItem.start(trajectory, self._plan.telemetry)
            self._items[trajectory.trajectory_id] = item
        return item
