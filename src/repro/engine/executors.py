"""Executors that run a :class:`~repro.engine.plan.Plan`.

Three executors drive the same compiled stage graph:

* :class:`SequentialExecutor` — in-process, a chunk of trajectories at a time;
  the batch mode of :func:`repro.api.annotate_many` with one worker.  With
  ``deferred_writeback=True`` the store stages are skipped during execution
  and the batch is committed afterwards in one transaction — the pool's
  commit shape, in-process.
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

Execution is **stage-major**: a stage body takes a group — the ready items of
a chunk of trajectories in batch (:func:`run_stages`), the episodes of one
annotate-queue flush in streaming — because the annotation kernels cost the
same fixed ~150 numpy dispatches for one short episode as for a hundred.  The
group shrinks to one trajectory wherever per-trajectory grain is part of the
contract (:func:`_chunks`), and to one episode while fault injection is armed.

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
          the worker initializer's argument (inherited under ``fork``,
          pickled by ``multiprocessing`` otherwise), a shard is its
          trajectories (coordinate columns, ``RawTrajectory.__reduce__``);
          outcomes come back through the result codec the process shard's
          acks use (:func:`~repro.parallel.context.dump_outcome`): the raw
          trajectories and the snapshot's places by reference, re-linked to
          the parent's own objects
run       :func:`run_stages` per chunk of ``_CHUNK_TRAJECTORIES`` trajectories
          or ``_CHUNK_POINTS`` GPS points, the same loop in-process and
          inside a worker; a chunk in which a stage raised is re-run through
          :func:`run_stages_resilient`, one trajectory at a time
recover   one submission loop, largest shard first; a lost worker re-raises
          under ``fail_fast`` and is retried, bisected and solo-probed under
          ``skip``/``retry``
collect   :func:`merge_shard_results`, in input order: quarantine, failure
          history, telemetry, then one deferred store commit
========  ==================================================================

Stage timing is owned here: executors measure every stage body and record it
on the work items (:meth:`WorkItem.record_stage`) under the stage's name, so
the Figure 17 latency vocabulary is emitted from exactly one place for every
runtime.
"""

from __future__ import annotations

import abc
import multiprocessing
import multiprocessing.context
import sys
import time
import weakref
from collections import deque
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import ProcessPoolExecutor as _FuturesProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
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
from repro.engine.stages import SealedEpisode, WorkItem
from repro.faults.failures import (
    FailureEvent,
    FailureLog,
    TrajectoryFailure,
    failure_stage,
    tag_failure_stage,
)
from repro.parallel.context import GeoContext, dump_outcome, load_outcome
from repro.streaming.session import SealedTrajectory, Session, SessionManager, SessionUpdate

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
# the rounds interleaved over N, 2-vCPU box), the ``match_rows`` calls in it,
# and how many operations after the call that closed its trajectory a result
# is delivered:
#
#   passes waited    at seal     1      2      4      8     16   unbounded
#   stream pass, ms    228     211    184    160    144    134      130
#   match_rows calls   216     163    100     55     28     15        3
#   delay p50, ops       0      44     64    113    198    329    1,256
#   delay max, ops       0      65    128    256    461    822    4,364
#
# ("at seal" is the executor before the queue existed.)  The constant is the
# smallest bound that keeps 80% of what never flushing on age would save
# (98 ms): 8 keeps 86%, 4 keeps 69%.  A closed trajectory waits at most this
# many passes of its executor — ``8 * micro_batch_size`` events.
_QUEUE_MAX_PASSES = 8


# ---------------------------------------------------------------- stage loop
def _record_shares(name: str, seconds: float, shares: Sequence[Tuple[WorkItem, int]]) -> None:
    """Attribute one measured stage run to its items in proportion to GPS points.

    One latency sample (and one span, when tracing) per entry, the samples
    summing to the measured time; a run over one entry keeps its exact time.
    """
    total = sum(points for _, points in shares)
    for item, points in shares:
        item.record_stage(name, seconds * points / total)


def run_stages(
    plan: Plan,
    trajectories: Sequence[RawTrajectory],
    include_writeback: bool = True,
    worker: bool = False,
) -> List[PipelineResult]:
    """Run a chunk of trajectories through every stage of the plan, stage-major.

    The single batch execution loop behind every executor: each stage runs
    once over the chunk's ready items (:meth:`Stage.run_many`), so a stage
    with a columnar kernel pays its fixed cost once per chunk.  The stage's
    wall time is measured once and shared out by :func:`_record_shares`; a
    chunk of one keeps exact per-trajectory latencies.

    When the plan persists (and ``include_writeback`` is true) the whole run
    happens inside one store transaction scope — committed on success, rolled
    back if any stage raises.  :func:`_chunks` hands such a plan one trajectory
    at a time, so a trajectory is never half-persisted and no trajectory's
    rows depend on another's success.

    Failures are *tagged* here (the originating stage rides on the exception,
    see :func:`~repro.faults.failures.tag_failure_stage`) but never handled:
    isolation, retries and quarantine live in :func:`run_stages_resilient`.
    ``worker`` marks execution inside a pool worker process, which is the
    only place ``kill`` fault specs may fire.
    """
    faults = plan.faults
    if faults.enabled:
        for trajectory in trajectories:
            faults.on_trajectory(trajectory.object_id, worker=worker)
    items = [WorkItem.start(trajectory, plan.telemetry) for trajectory in trajectories]
    scope: ContextManager[object] = (
        plan.store if plan.persist and include_writeback and plan.store is not None
        else nullcontext()
    )
    try:
        with scope:
            for stage in plan.stages:
                if stage.writes_back and not include_writeback:
                    continue
                ready = [item for item in items if stage.ready(item)]
                if not ready:
                    continue
                started = time.perf_counter()
                try:
                    if faults.enabled:
                        for item in ready:
                            faults.on_stage(stage.name, item.trajectory.object_id)
                    stage.run_many(ready)
                except BaseException as error:
                    tag_failure_stage(error, stage.name)
                    raise
                _record_shares(
                    stage.name,
                    time.perf_counter() - started,
                    [(item, len(item.trajectory)) for item in ready],
                )
    except BaseException as error:
        # Untagged here means the failure came from the scope exit itself —
        # the deferred store commit (first tag wins, so stage tags survive).
        tag_failure_stage(error, "store_commit")
        raise
    # Seal the traces onto the results, but never collect here: collection into
    # the plan's registry/tracer happens exactly once per result, in the
    # parent process (merge_shard_results and the single-result paths), so
    # worker-side runs just ship their spans back on the pickled result.
    for item in items:
        item.finish_trace()
    return [item.result for item in items]


def run_stages_resilient(
    plan: Plan,
    trajectory: RawTrajectory,
    include_writeback: bool = True,
    worker: bool = False,
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
        return run_stages(plan, [trajectory], include_writeback=include_writeback, worker=worker)[0]
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
            [result] = run_stages(
                plan, [trajectory], include_writeback=include_writeback, worker=worker
            )
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
    plan: Plan, items: Iterable[Tuple[int, RawTrajectory]], include_writeback: bool
) -> Iterator[List[Tuple[int, RawTrajectory]]]:
    """Cut a batch into the chunks the stage-major loop runs.

    A chunk is one trajectory wherever per-trajectory grain is part of the
    contract: inline write-back (the store transaction commits or rolls back
    one trajectory) and armed fault injection (every injected fault lands on
    the trajectory and attempt it names).
    """
    single = plan.faults.enabled or (plan.persist and include_writeback)
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
    plan: Plan,
    items: Iterable[Tuple[int, RawTrajectory]],
    include_writeback: bool,
    worker: bool = False,
) -> List[Tuple[int, "PipelineResult | TrajectoryFailure"]]:
    """The one in-process batch loop: ``(input order, outcome)`` per trajectory.

    A chunk in which a stage raised is discarded and its trajectories go one
    by one through :func:`run_stages_resilient`: under ``fail_fast`` that
    raises the tagged exception at the trajectory a per-trajectory loop would
    have stopped at, under ``skip``/``retry`` it retries or quarantines
    exactly the culprit and gives every innocent its clean result.
    """
    outputs: List[Tuple[int, "PipelineResult | TrajectoryFailure"]] = []
    for chunk in _chunks(plan, items, include_writeback):
        trajectories = [trajectory for _, trajectory in chunk]
        outcomes: Optional[Sequence["PipelineResult | TrajectoryFailure"]] = None
        if len(chunk) > 1:
            try:
                outcomes = run_stages(
                    plan, trajectories, include_writeback=include_writeback, worker=worker
                )
            except Exception:
                pass  # raised again below, at the trajectory it belongs to
        if outcomes is None:
            outcomes = [
                run_stages_resilient(
                    plan, trajectory, include_writeback=include_writeback, worker=worker
                )
                for trajectory in trajectories
            ]
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


def _pool_mp_context() -> multiprocessing.context.BaseContext:
    """The explicit multiprocessing context every worker pool is built from.

    ``fork`` where it is the safe platform default (Linux: children inherit
    the read-only snapshot as copy-on-write memory), ``spawn`` everywhere else —
    macOS forks can crash inside frameworks the parent already loaded, and
    Windows has no fork.  Always explicit, so the choice never follows a
    process-wide ``set_start_method``.  Tests substitute ``spawn`` here to
    drive on Linux what those platforms run: workers that receive the
    snapshot as a pickle.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def merge_shard_results(
    plan: Plan,
    outputs: Iterable[Tuple[int, "PipelineResult | TrajectoryFailure"]],
    commit: bool,
) -> List[PipelineResult]:
    """Collect a batch's ``(input order, outcome)`` pairs, in input order.

    The single parent-side collection point of the batch executors, however
    the outcomes were produced and in whatever order they arrive: exhausted
    trajectories are quarantined (and absent from the output, like a
    too-short fragment), retried-then-successful results fold their failure
    history into the plan's failure log, and telemetry is collected — latency
    into the registry, worker-emitted spans re-parented into the parent
    tracer.  Walking the pairs by input position makes failure-log and span
    order independent of shard submission and completion order.

    With ``commit`` (deferred write-back) the survivors' rows then go to the
    store in one transaction, in the exact order — contents and autoincrement
    identifiers — a single sequential writer would produce.  Under a
    ``retry`` policy a failed commit is retried with backoff; the store
    rolled the failed attempt back, so the retry re-sends the identical batch.
    """
    ordered = dict(outputs)
    results: List[PipelineResult] = []
    for order in sorted(ordered):
        out = ordered[order]
        if isinstance(out, TrajectoryFailure):
            plan.ensure_failure_log().quarantine(out)
            continue
        if out.fault_events:
            plan.ensure_failure_log().absorb_result(out)
        if plan.telemetry.enabled:
            plan.telemetry.collect(out)
        results.append(out)
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
    """Run a deferred store commit under the failure log's policy.

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

    Counterpart of the live :class:`EngineStats` counters of the micro-batch
    executor: the batch executors count whole batches after the fact, so all
    three executor kinds expose the same ``engine_*_total`` series (labelled
    by executor) from one registry.
    """
    counters = plan.telemetry.engine_counters(executor)
    if counters is None:
        return
    counters.events.inc(sum(len(trajectory) for trajectory in trajectories))
    counters.results.inc(len(results))
    counters.episodes_sealed.inc(sum(len(result.episodes) for result in results))


# ------------------------------------------------------------------ executors
class Executor(abc.ABC):
    """Something that can run a compiled plan over a batch of trajectories."""

    #: Short identifier used in reporting (the ``executor`` metric label).
    kind: str = ""

    @abc.abstractmethod
    def run(self, plan: Plan, trajectories: Sequence[RawTrajectory]) -> List[PipelineResult]:
        """Annotate the batch; results come back in input order."""


class SequentialExecutor(Executor):
    """In-process, one trajectory at a time — the batch reference executor."""

    kind = "sequential"

    def __init__(self, deferred_writeback: bool = False):
        self._deferred = deferred_writeback

    def run(self, plan: Plan, trajectories: Sequence[RawTrajectory]) -> List[PipelineResult]:
        """Annotate the batch under the plan's failure policy.

        Under ``skip``/``retry`` an exhausted trajectory is quarantined and
        simply absent from the output; survivors keep their relative order
        (and their single-writer store row order).
        """
        deferred = self._deferred and plan.persist
        outputs = _run_in_process(plan, enumerate(trajectories), include_writeback=not deferred)
        merged = merge_shard_results(plan, outputs, commit=deferred)
        _count_batch(plan, self.kind, trajectories, merged)
        return merged

    def run_one(self, plan: Plan, trajectory: RawTrajectory) -> PipelineResult:
        """Annotate a single trajectory (inline write-back when persisting).

        A single-result API has no "skip" output, so even under an isolating
        policy an exhausted trajectory is quarantined *and* the terminal
        exception re-raised.
        """
        out = run_stages_resilient(plan, trajectory)
        if isinstance(out, TrajectoryFailure):
            plan.ensure_failure_log().quarantine(out)
            if out.exception is not None:
                raise out.exception
            raise SemitriError(
                f"trajectory {trajectory.trajectory_id!r} exhausted its retries "
                f"in stage {out.stage!r}: {out.error}"
            )
        if out.fault_events:
            plan.ensure_failure_log().absorb_result(out)
        if plan.telemetry.enabled:
            plan.telemetry.collect(out)
        _count_batch(plan, self.kind, [trajectory], [out])
        return out


# Worker-process state, set once by the pool initializer from its argument:
# the parent's own snapshot under ``fork`` (process arguments are inherited,
# never pickled), the copy ``multiprocessing`` pickled for it otherwise.
_WORKER_PLAN: Optional[Plan] = None


def _init_worker(context: GeoContext) -> None:
    global _WORKER_PLAN
    # Workers never persist (they cannot share the store connection), so the
    # worker-side plan is compiled without a store; write-back happens in the
    # parent after the merge.
    _WORKER_PLAN = Plan.from_context(context)


def _annotate_shard(items: List[Tuple[int, RawTrajectory]]) -> bytes:
    """Annotate one shard inside a worker process (never persists).

    Returns the ``(input order, outcome)`` pairs as result-codec bytes
    (:func:`~repro.parallel.context.dump_outcome`): the shard's own input
    trajectories and the snapshot's places travel by reference.  Under an
    isolating policy, failed trajectories come back as
    :class:`TrajectoryFailure` records (their exception object stripped —
    arbitrary exceptions may not pickle; the repr travels) for the parent to
    quarantine.  The worker-side plan reads ``SEMITRI_FAULTS`` from the
    inherited environment, so injected chaos follows the shard into the pool.
    """
    assert _WORKER_PLAN is not None, "worker used before initialization"
    outputs = _run_in_process(_WORKER_PLAN, items, include_writeback=False, worker=True)
    for _, out in outputs:
        if isinstance(out, TrajectoryFailure):
            out.exception = None
    return dump_outcome(outputs, _WORKER_PLAN.geo_context(), items)


class ProcessPoolExecutor(Executor):
    """Sharded execution on a pool of worker processes.

    The batch is partitioned by moving object into size-balanced shards; each
    shard is annotated in a worker against the plan's immutable
    :class:`GeoContext` snapshot and the results are merged back into input
    order, byte-identical to sequential execution.  The pool (primed with
    one snapshot) is kept warm across ``run`` calls for plans built from the
    same snapshot — hold one executor and one
    :func:`repro.api.compile_plan` ``(context=...)`` plan to amortise worker
    start-up over many batches.
    """

    kind = "process"

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        self._workers = workers
        self._pool: Optional[_FuturesProcessPool] = None
        self._pool_context: Optional[GeoContext] = None
        self._pool_finalizer: Optional[weakref.finalize] = None

    @property
    def workers(self) -> int:
        """Number of worker processes the pool uses."""
        return self._workers

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the worker pool and let go of its snapshot (idempotent)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()
            self._pool_finalizer = None
        self._pool = None
        self._pool_context = None

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -------------------------------------------------------------- execution
    def run(self, plan: Plan, trajectories: Sequence[RawTrajectory]) -> List[PipelineResult]:
        trajectories = list(trajectories)
        if not trajectories:
            return []
        shards = shard_by_object(trajectories, self._workers * _SHARD_MULTIPLIER)
        if len(shards) == 1:
            # A single shard gains nothing from the pool; run it inline.
            outputs = _run_in_process(plan, shards[0][1], include_writeback=False)
        else:
            outputs = self._run_shards(plan, shards)
        merged = merge_shard_results(plan, outputs, commit=True)
        _count_batch(plan, self.kind, trajectories, merged)
        return merged

    def _run_shards(
        self, plan: Plan, shards: List[Shard]
    ) -> List[Tuple[int, "PipelineResult | TrajectoryFailure"]]:
        """Submit shards to the pool until every one has completed or is blamed.

        Each round submits largest-first (LPT): the futures pool's shared
        call queue hands the next pending shard to whichever worker goes
        idle, so a skewed shard cannot serialise the tail.  Completion order
        is irrelevant — the merge reorders by input position.

        A ``BrokenExecutor`` (a worker died) poisons every in-flight future.
        The pool is torn down either way — siblings stopped — so no process
        leaks and the next round or call re-primes it.  Under ``fail_fast``
        the error is then re-raised.
        Under ``skip``/``retry`` results of already-completed shards are kept
        and only the unfinished shards are resubmitted.  A shard still
        pending after ``max_shard_retries`` whole-shard retries is *bisected*
        — halves inherit the attempt count, so repeated losses binary-search
        down to single-trajectory shards.  Because a broken multi-shard round
        cannot prove *which* shard killed the worker (queued siblings break
        too), an exhausted singleton is never quarantined by association:
        it is resubmitted **solo**, and only a shard that breaks the pool
        while running alone comes back as a ``WorkerLost``
        :class:`TrajectoryFailure` with its raw events intact.  Canonical
        bytes of every surviving trajectory are untouched: recovery only
        re-runs work that never completed.
        """
        policy = plan.failure_policy
        pending: Dict[int, List[Tuple[int, RawTrajectory]]] = dict(shards)
        attempts: Dict[int, int] = dict.fromkeys(pending, 0)
        next_index = max(pending) + 1
        collected: List[Tuple[int, "PipelineResult | TrajectoryFailure"]] = []
        while pending:
            pool = self._ensure_pool(plan.geo_context())
            # Exhausted singletons run solo, one per round: a broken solo
            # round pins the blame on that exact shard, so innocents caught
            # in a round a poison shard breaks are retried, not quarantined.
            suspects = sorted(
                index
                for index, items in pending.items()
                if len(items) == 1 and attempts[index] > policy.max_shard_retries
            )
            round_shards = (
                {suspects[0]: pending[suspects[0]]} if suspects else dict(pending)
            )
            submission = sorted(
                round_shards.items(),
                key=lambda entry: (-sum(len(t) for _, t in entry[1]), entry[0]),
            )
            futures: Dict[Future, int] = {}
            lost: Optional[BrokenExecutor] = None
            try:
                try:
                    for index, items in submission:
                        futures[pool.submit(_annotate_shard, items)] = index
                except BrokenExecutor as error:
                    # A worker died while shards were still being queued
                    # (spawned workers start one by one, during submission).
                    lost = error
                for future, index in futures.items():
                    try:
                        outcomes = load_outcome(future.result(), plan.geo_context(), pending[index])
                    except BrokenExecutor as error:
                        lost = error
                        continue
                    collected.extend(outcomes)
                    del pending[index]
            finally:
                # A no-op unless an exception is propagating (a fail_fast
                # stage error): shards still queued are not worth running.
                for future in futures:
                    future.cancel()
            if lost is None:
                continue
            # The stdlib pool registers a worker only when its start() returns
            # (for a spawned worker: once it has booted), so the pool's own
            # teardown after a death misses one that was still starting, which
            # would then wait on the dead call queue for ever.
            workers = list(pool._processes.values())
            self.close()
            for worker in workers:
                worker.terminate()
            if not policy.isolates:
                raise lost
            plan.ensure_failure_log().record_worker_loss()
            solo = len(round_shards) == 1
            for index in round_shards:
                if index not in pending:
                    continue  # completed before the pool broke
                items = pending[index]
                attempt = attempts[index] + 1
                attempts[index] = attempt
                if attempt <= policy.max_shard_retries:
                    continue  # whole-shard retry next round
                if solo and len(items) == 1:
                    # Proven poison: it alone was running when the worker
                    # died, and its retry budget is spent.
                    del pending[index]
                    order, trajectory = items[0]
                    collected.append(
                        (
                            order,
                            TrajectoryFailure(
                                trajectory=trajectory,
                                stage="worker",
                                error=(
                                    "worker process lost while annotating this "
                                    "trajectory (SIGKILL/OOM)"
                                ),
                                attempts=attempt,
                                events=[
                                    FailureEvent(
                                        stage="worker", kind="WorkerLost", attempt=prior + 1
                                    )
                                    for prior in range(attempt)
                                ],
                            ),
                        )
                    )
                elif len(items) > 1:
                    del pending[index]
                    half = (len(items) + 1) // 2
                    for part in (items[:half], items[half:]):
                        pending[next_index] = part
                        attempts[next_index] = attempt
                        next_index += 1
                # else: an exhausted singleton from a multi-shard round —
                # kept pending; the suspect path above will run it solo.
        return collected

    def _ensure_pool(self, context: GeoContext) -> _FuturesProcessPool:
        if self._pool is not None:
            if self._pool_context is context:
                return self._pool
            self.close()  # a pool primed with another snapshot is stale
        # The snapshot is the initializer's argument under every start method:
        # a forked worker finds the parent's object in inherited memory (the
        # arguments of a forked process are never pickled), any other worker
        # receives the pickle multiprocessing makes of them.
        self._pool = _FuturesProcessPool(
            max_workers=self._workers,
            mp_context=_pool_mp_context(),
            initializer=_init_worker,
            initargs=(context,),
        )
        self._pool_context = context
        # If the executor is garbage collected without close(), stop the
        # worker processes instead of leaking them; finalize also runs at
        # interpreter exit.  The pool does not refer back to the executor.
        self._pool_finalizer = weakref.finalize(self, self._pool.shutdown, wait=False)
        return self._pool


# ------------------------------------------------------------- micro-batching
@dataclass
class EngineStats:
    """Counters a micro-batch executor maintains while processing the stream.

    Historically micro-batch-only.  When the plan's telemetry enables
    metrics, the same vocabulary is also published as ``engine_*_total``
    registry counters labelled by executor kind — for **all three**
    executors, so sequential and process-pool throughput is observable with
    the same series (see :class:`repro.obs.metrics.EngineCounters`).
    """

    events: int = 0
    results: int = 0
    episodes_sealed: int = 0
    trajectories_discarded: int = 0
    processing_passes: int = 0


class MicroBatchExecutor(Executor):
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
    ``_CHUNK_POINTS`` GPS points, and by :meth:`flush`, :meth:`close_all`,
    :meth:`evict_sessions` and :meth:`run`.  Results are therefore delivered
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
        self._counters = plan.telemetry.engine_counters(self.kind)
        self._streaming_metrics = plan.telemetry.streaming_metrics()
        self._sessions = SessionManager(plan.config, metrics=self._streaming_metrics)
        self._pending: List[Tuple[str, SpatioTemporalPoint]] = []
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

    # -------------------------------------------------------------- execution
    def run(self, plan: Plan, trajectories: Sequence[RawTrajectory]) -> List[PipelineResult]:
        """Replay a batch of trajectories through the streaming loop.

        Each trajectory's points are fed as events for its object, then the
        object is closed, so results come back in input order with content
        (episodes, annotations) identical to the other executors.  Trajectory
        identifiers are re-assigned by the per-object session numbering,
        which can differ from externally assigned ids — for full canonical
        byte-parity, feed the original raw event stream through
        :meth:`ingest_many` / :meth:`close_all` instead, as the parity suite
        does.
        """
        if plan is not self._plan:
            raise ConfigurationError(
                "a MicroBatchExecutor is bound to the plan it was built with; "
                "construct a new executor for a different plan"
            )
        results: List[PipelineResult] = []
        for trajectory in trajectories:
            for point in trajectory.points:
                results.extend(self.ingest(trajectory.object_id, point))
            results.extend(self.close_object(trajectory.object_id))
        results.extend(self._flush_queue())
        return results

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
        self._pending.append((object_id, point))
        self.stats.events += 1
        if self._counters is not None:
            self._counters.events.inc()
            assert self._streaming_metrics is not None
            self._streaming_metrics.pending_events.set(len(self._pending))
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
        if self._counters is not None:
            self._counters.processing_passes.inc()
            assert self._streaming_metrics is not None
            self._streaming_metrics.pending_events.set(0)
        # Take the batch before touching any session: if a push raises
        # mid-pass, already-absorbed events must not be replayed into their
        # sessions by the next pass.
        pending, self._pending = self._pending, []
        touched: Dict[str, Session] = {}
        taken = 0
        try:
            for object_id, point in pending:
                session, evicted = self._sessions.acquire(object_id)
                for old in evicted:
                    touched.pop(old.object_id, None)
                    self._close_session(old)
                taken += 1
                update = session.push(point)
                if update.sealed:
                    self._enqueue_closed(update)
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

        The detector's time is added up on the trajectory's work item with one
        clock read per session — each read ends one session's interval and
        starts the next's — and recorded as the trajectory's one
        ``compute_episode`` sample when it seals (:meth:`_enqueue_closed`),
        the shape a batch result has.
        """
        now = time.perf_counter()
        for session in sessions:
            trajectory = session.trajectory
            if trajectory is None:
                continue
            item = self._item_for(trajectory)
            episodes = session.advance()
            later = time.perf_counter()
            item.episode_seconds += later - now
            now = later
            for episode in episodes:
                self._enqueue_episode(item, episode)

    def _close_session(self, session: Session) -> None:
        self._enqueue_closed(session.close())

    # ---------------------------------------------------------- annotate queue
    def _enqueue_episode(self, item: WorkItem, episode: Episode) -> None:
        self.stats.episodes_sealed += 1
        if self._counters is not None:
            self._counters.episodes_sealed.inc()
        sealed = (item, episode)
        self._queue.append(sealed)
        self._unannotated.append(sealed)
        self._unannotated_points += len(episode)

    def _enqueue_closed(self, update: SessionUpdate) -> None:
        for sealed in update.sealed:
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
        if self._streaming_metrics is not None:
            self._streaming_metrics.annotate_queue_depth.set(len(self._queue))
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
            if self._streaming_metrics is not None:
                self._streaming_metrics.annotate_queue_depth.set(len(queue))
        return results

    def _finish_trajectory(self, sealed: SealedTrajectory) -> Optional[PipelineResult]:
        if sealed.discarded:
            self.stats.trajectories_discarded += 1
            if self._counters is not None:
                self._counters.trajectories_discarded.inc()
            self._items.pop(sealed.trajectory.trajectory_id, None)
            self._poisoned.pop(sealed.trajectory.trajectory_id, None)
            return None
        item = self._item_for(sealed.trajectory)
        plan = self._plan
        trajectory_id = item.trajectory.trajectory_id
        events = self._poisoned.pop(trajectory_id, None)
        if events is None:
            try:
                self._finish_item(item)
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
        result: Optional[PipelineResult] = item.result
        if events is not None:
            # Incremental absorption consumed the session's events, so a
            # failed streaming trajectory is retried by re-running the
            # *sealed* trajectory through the batch stage loop — which the
            # parity guarantee makes content-identical to an incremental
            # pass — with the failed attempt counted against the retry
            # budget.  Exhaustion quarantines the sealed trajectory with its
            # raw events; the trajectory id is the session's, so a later
            # replay-from-quarantine slots into the same identity.
            out = run_stages_resilient(plan, sealed.trajectory, prior_events=events)
            if isinstance(out, TrajectoryFailure):
                # Shard workers pickle buffered quarantines to the parent.
                out.exception = None
                plan.ensure_failure_log().quarantine(out)
                result = None
            else:
                plan.ensure_failure_log().absorb_result(out)
                result = out

        self._items.pop(trajectory_id, None)
        if result is None:
            return None
        self.stats.results += 1
        if result is item.result:
            item.finish_trace()
        if plan.telemetry.enabled:
            plan.telemetry.collect(result)
        if self._counters is not None:
            self._counters.results.inc()
        if self._on_result is not None:
            self._on_result(result)
        return result

    def _finish_item(self, item: WorkItem) -> None:
        """Run close-out and close-time stage bodies (with write-back scope)."""
        plan = self._plan
        faults = plan.faults
        scope: ContextManager[object] = (
            plan.store if plan.persist and plan.store is not None else nullcontext()
        )
        try:
            with scope:
                for stage in plan.stages:
                    stage.close_out(item)
                    if stage.finishes(item):
                        started = time.perf_counter()
                        try:
                            if faults.enabled:
                                faults.on_stage(stage.name, item.trajectory.object_id)
                            stage.finish(item)
                        except BaseException as error:
                            tag_failure_stage(error, stage.name)
                            raise
                        item.record_stage(stage.name, time.perf_counter() - started)
        except BaseException as error:
            tag_failure_stage(error, "store_commit")
            raise

    # ------------------------------------------------------------- annotation
    def _absorb(self, sealed: Sequence[SealedEpisode]) -> None:
        """Route a group of sealed episodes through the plan's incremental stages.

        Called by :meth:`_flush_queue` only.  Each stage takes the wanted
        episodes of the group in one call, timed once (:func:`_record_shares`:
        one latency sample per episode and stage).

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
        faults = plan.faults
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
            started = time.perf_counter()
            try:
                if faults.enabled:
                    for item, _ in wanted:
                        faults.on_stage(stage.name, item.trajectory.object_id)
                stage.absorb_episodes(wanted)
            except Exception as error:
                tag_failure_stage(error, stage.name)
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
                continue
            _record_shares(
                stage.name,
                time.perf_counter() - started,
                [(item, len(episode)) for item, episode in wanted],
            )

    def _item_for(self, trajectory: RawTrajectory) -> WorkItem:
        item = self._items.get(trajectory.trajectory_id)
        if item is None:
            item = WorkItem.start(trajectory, self._plan.telemetry)
            self._items[trajectory.trajectory_id] = item
        return item
