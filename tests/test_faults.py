"""Tests for the fault-tolerance layer (:mod:`repro.faults`).

The acceptance story: under ``FailurePolicy(mode="retry")`` and a seeded
:class:`FaultPlan`, a run completes with every non-poison trajectory
canonically byte-identical to a fault-free run, poison trajectories in the
dead-letter quarantine with their raw events intact, and the failure-log
counters reconciling exactly — across the sequential, process-pool and
micro-batch executors and the service tier (whose crash-safe WAL recovery is
exercised in :mod:`tests.test_service_recovery`).
"""

from __future__ import annotations

import asyncio
import glob
import multiprocessing
import os
from typing import List

import pytest

import repro
from repro.core import PipelineConfig
from repro.core.config import FailurePolicy
from repro.core.errors import ConfigurationError, InjectedFault, ServiceError
from repro.engine.executors import (
    MicroBatchExecutor,
    ProcessPoolExecutor,
    SequentialExecutor,
    run_stages_resilient,
)
from repro.engine import executors
from repro.engine.plan import Plan
from repro.faults import (
    DISABLED_FAULTS,
    FailureEvent,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    IngestJournal,
    JournalRecord,
    TrajectoryFailure,
    failure_stage,
    tag_failure_stage,
)
from repro.parallel.canonical import canonical_bytes
from repro.parallel import process
from repro.parallel.context import GeoContext
from repro.service import AnnotationService
from repro.service import shard as shard_module
from repro.store.store import SemanticTrajectoryStore


def _config(**failure_overrides: object) -> PipelineConfig:
    """Vehicle defaults with a failure policy override and zero backoff."""
    overrides = {"failure.backoff_base": 0.0}
    overrides.update({f"failure.{key}": value for key, value in failure_overrides.items()})
    return PipelineConfig.for_vehicles().with_overrides(overrides)


def _plan(
    sources,
    config: PipelineConfig,
    plan_text: str = "",
    store: SemanticTrajectoryStore = None,
    persist: bool = False,
) -> Plan:
    faults = FaultInjector(FaultPlan.parse(plan_text)) if plan_text else DISABLED_FAULTS
    return Plan.compile(GeoContext(sources, config), store=store, persist=persist, faults=faults)


# ------------------------------------------------------------------- grammar
class TestFaultPlanGrammar:
    def test_spec_parse_render_roundtrip(self):
        for text in (
            "raise@map_match:n=3",
            "raise@map_match:times=-1,obj=car-3",
            "kill:n=2",
            "commit",
            "stall@poi_annotation:n=5,secs=0.2",
            "raise:p=0.5,fuse=/tmp/x.fuse",
        ):
            spec = FaultSpec.parse(text)
            assert FaultSpec.parse(spec.render()) == spec

    def test_plan_parse_render_roundtrip_with_seed(self):
        plan = FaultPlan.parse("seed=42;raise@map_match:n=2;kill:times=1")
        assert plan.seed == 42
        assert len(plan.specs) == 2
        assert FaultPlan.parse(plan.render()) == plan
        assert not FaultPlan()
        assert plan

    def test_invalid_specs_rejected(self):
        for text in (
            "explode",  # unknown kind
            "raise:n=0",  # n must be >= 1
            "raise:times=0",
            "raise:p=1.5",
            "stall@x",  # stall needs secs
            "raise:nonsense",  # not key=value
            "raise:wat=1",  # unknown key
        ):
            with pytest.raises(ConfigurationError):
                FaultSpec.parse(text)
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("seed=abc;raise")


class TestFailurePolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(mode="explode")
        with pytest.raises(ConfigurationError):
            FailurePolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            FailurePolicy(backoff_base=-0.1)

    def test_isolation_and_retry_budget(self):
        assert not FailurePolicy().isolates
        assert FailurePolicy(mode="skip").isolates
        assert FailurePolicy(mode="skip").retries == 0
        assert FailurePolicy(mode="retry", max_retries=3).retries == 3

    def test_backoff_is_deterministic_exponential(self):
        policy = FailurePolicy(mode="retry", backoff_base=0.1)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)


class TestFailureTagging:
    def test_first_tag_wins(self):
        error = ValueError("boom")
        tag_failure_stage(error, "map_match")
        tag_failure_stage(error, "store_commit")
        assert failure_stage(error) == "map_match"
        assert failure_stage(ValueError("untouched")) == "unknown"


# ------------------------------------------------------------------ injector
class TestFaultInjector:
    def test_disabled_singleton_is_inert(self):
        assert not DISABLED_FAULTS.enabled
        DISABLED_FAULTS.on_stage("map_match", "obj")
        DISABLED_FAULTS.on_commit()

    def test_nth_and_times_semantics(self):
        injector = FaultInjector(FaultPlan.parse("raise@map_match:n=2,times=2"))
        injector.on_stage("map_match", "a")  # 1st occurrence: below n
        with pytest.raises(InjectedFault):
            injector.on_stage("map_match", "a")  # 2nd: armed, fires
        with pytest.raises(InjectedFault):
            injector.on_stage("map_match", "a")  # 3rd: second firing
        injector.on_stage("map_match", "a")  # budget spent
        injector.on_stage("other_stage", "a")  # never matches
        assert injector.fired_total() == 2

    def test_probability_is_seeded_and_reproducible(self):
        def firing_pattern(seed: int) -> List[bool]:
            injector = FaultInjector(FaultPlan.parse(f"seed={seed};raise:p=0.5,times=-1"))
            pattern = []
            for _ in range(64):
                try:
                    injector.on_stage("map_match", "obj")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert firing_pattern(3) == firing_pattern(3)
        assert any(firing_pattern(3)) and not all(firing_pattern(3))
        assert firing_pattern(3) != firing_pattern(4)

    def test_fuse_spends_spec_across_injectors(self, tmp_path):
        fuse = str(tmp_path / "once.fuse")
        first = FaultInjector(FaultPlan.parse(f"raise:times=-1,fuse={fuse}"))
        second = FaultInjector(FaultPlan.parse(f"raise:times=-1,fuse={fuse}"))
        with pytest.raises(InjectedFault):
            first.on_stage("map_match", "a")
        assert os.path.exists(fuse)
        # Both the firing injector and a fresh one (another process, in real
        # runs) see the fuse as spent.
        first.on_stage("map_match", "a")
        second.on_stage("map_match", "a")

    def test_kill_specs_never_fire_outside_workers(self):
        injector = FaultInjector(FaultPlan.parse("kill:times=-1"))
        injector.on_trajectory("obj")  # the parent process (sequential, thread shards): inert
        assert injector.fired_total() == 0


# ------------------------------------------------- sequential executor faults
class TestSequentialIsolation:
    def test_fail_fast_propagates_unchanged(self, annotation_sources, car_dataset):
        plan = _plan(annotation_sources, _config(mode="fail_fast"), "raise@map_match:n=1")
        with pytest.raises(InjectedFault):
            SequentialExecutor().run(plan, car_dataset.trajectories)
        assert plan.failure_log.quarantined == 0

    def test_skip_quarantines_poison_and_preserves_survivors(
        self, annotation_sources, car_dataset
    ):
        trajectories = car_dataset.trajectories
        poison = trajectories[0].object_id
        config = _config(mode="skip")
        store = SemanticTrajectoryStore()

        reference = SequentialExecutor().run(
            _plan(annotation_sources, config), trajectories
        )
        plan = _plan(
            annotation_sources, config, f"raise@map_match:obj={poison},times=-1", store=store
        )
        results = SequentialExecutor().run(plan, trajectories)

        poison_count = sum(1 for t in trajectories if t.object_id == poison)
        assert len(results) == len(trajectories) - poison_count
        survivors_ref = [r for r in reference if r.trajectory.object_id != poison]
        assert canonical_bytes(results) == canonical_bytes(survivors_ref)

        log = plan.failure_log
        assert log.quarantined == poison_count
        assert log.failures == poison_count  # skip mode: one attempt each
        assert log.retries == 0
        # The dead letters landed in the store with their raw events intact.
        assert store.quarantine_count() == poison_count
        rows = store.quarantined(object_id=poison)
        assert all(row["stage"] == "map_match" for row in rows)
        assert all("InjectedFault" in row["error"] for row in rows)
        replayable = store.load_quarantined_trajectory(rows[0]["quarantine_id"])
        original = next(t for t in trajectories if t.trajectory_id == rows[0]["trajectory_id"])
        assert [(p.x, p.y, p.t) for p in replayable.points] == [
            (p.x, p.y, p.t) for p in original.points
        ]
        store.close()

    def test_retry_recovers_transient_fault_byte_identical(
        self, annotation_sources, car_dataset
    ):
        trajectories = car_dataset.trajectories
        config = _config(mode="retry", max_retries=2)
        reference = SequentialExecutor().run(
            _plan(annotation_sources, config), trajectories
        )
        plan = _plan(annotation_sources, config, "raise@map_match:n=1,times=1")
        results = SequentialExecutor().run(plan, trajectories)

        assert canonical_bytes(results) == canonical_bytes(reference)
        log = plan.failure_log
        assert (log.failures, log.retries, log.quarantined) == (1, 1, 0)

    def test_retry_exhaustion_quarantines_with_full_history(
        self, annotation_sources, car_dataset
    ):
        trajectory = car_dataset.trajectories[0]
        config = _config(mode="retry", max_retries=2)
        plan = _plan(
            annotation_sources,
            config,
            f"raise@map_match:obj={trajectory.object_id},times=-1",
        )
        results = SequentialExecutor().run(plan, [trajectory])
        assert results == []
        log = plan.failure_log
        assert log.quarantined == 1
        assert log.failures == 3  # initial attempt + 2 retries
        assert log.retries == 2  # the terminal attempt was not retried
        [failure] = log.pending_quarantines
        assert [event.attempt for event in failure.events] == [1, 2, 3]
        assert failure.trajectory is trajectory

    def test_prior_events_count_against_the_retry_budget(
        self, annotation_sources, car_dataset
    ):
        """``prior_events`` resume the attempt loop instead of restarting it."""
        trajectory = car_dataset.trajectories[0]
        earlier = FailureEvent(stage="map_match", kind="InjectedFault", attempt=1, error="boom")
        poison = f"raise@map_match:obj={trajectory.object_id},times=-1"

        # skip: the budget is one attempt, already spent — nothing is re-run.
        plan = _plan(annotation_sources, _config(mode="skip"), poison)
        out = run_stages_resilient(plan, trajectory, prior_events=[earlier])
        assert isinstance(out, TrajectoryFailure)
        assert (out.attempts, out.stage, out.error, out.events) == (
            1,
            "map_match",
            "boom",
            [earlier],
        )
        assert plan.faults.fired_total() == 0

        # retry x2: two attempts are left, numbered 2 and 3, history leads.
        plan = _plan(annotation_sources, _config(mode="retry", max_retries=2), poison)
        out = run_stages_resilient(plan, trajectory, prior_events=[earlier])
        assert isinstance(out, TrajectoryFailure)
        assert [event.attempt for event in out.events] == [1, 2, 3]
        assert out.events[0] is earlier and out.attempts == 3

        # ... and a success after a prior failure carries that failure.
        plan = _plan(annotation_sources, _config(mode="retry", max_retries=2))
        out = run_stages_resilient(plan, trajectory, prior_events=[earlier])
        assert not isinstance(out, TrajectoryFailure)
        assert out.fault_events == [earlier]

        # fail_fast stays a pass-through.
        plan = _plan(annotation_sources, _config(mode="fail_fast"), poison)
        with pytest.raises(InjectedFault):
            run_stages_resilient(plan, trajectory, prior_events=[earlier])

    def test_run_one_quarantines_then_raises(self, annotation_sources, car_dataset):
        trajectory = car_dataset.trajectories[0]
        plan = _plan(
            annotation_sources,
            _config(mode="retry", max_retries=1),
            f"raise@map_match:obj={trajectory.object_id},times=-1",
        )
        with pytest.raises(InjectedFault):
            SequentialExecutor().run_one(plan, trajectory)
        assert plan.failure_log.quarantined == 1


# ---------------------------------------------------------------- commit faults
class TestCommitFaults:
    def test_commit_fault_rolls_back_then_retry_commits_once(
        self, annotation_sources, car_dataset
    ):
        trajectories = car_dataset.trajectories[:4]
        config = _config(mode="retry", max_retries=2)
        store = SemanticTrajectoryStore()
        plan = _plan(annotation_sources, config, "commit:n=1,times=1", store=store, persist=True)
        results = SequentialExecutor().run(plan, trajectories)
        assert len(results) == len(trajectories)
        # The rolled-back first commit left nothing behind; the retry
        # committed the identical trajectory exactly once.
        assert store.trajectory_ids() == [t.trajectory_id for t in trajectories]
        log = plan.failure_log
        assert (log.failures, log.retries, log.quarantined) == (1, 1, 0)
        store.close()

    def test_pooled_commit_fault_rolls_back_then_retry_commits_once(
        self, annotation_sources, car_dataset
    ):
        """The pool's one merged commit is retried the same way."""
        trajectories = car_dataset.trajectories[:4]
        config = _config(mode="retry", max_retries=2)
        store = SemanticTrajectoryStore()
        plan = _plan(annotation_sources, config, "commit:n=1,times=1", store=store, persist=True)
        with ProcessPoolExecutor(workers=2) as executor:
            results = executor.run(plan, trajectories)
        assert len(results) == len(trajectories)
        assert store.trajectory_ids() == [t.trajectory_id for t in trajectories]
        log = plan.failure_log
        assert (log.failures, log.retries, log.quarantined) == (1, 1, 0)
        store.close()

    def test_commit_fault_under_fail_fast_raises_and_rolls_back(
        self, annotation_sources, car_dataset
    ):
        store = SemanticTrajectoryStore()
        plan = _plan(
            annotation_sources,
            _config(mode="fail_fast"),
            "commit:n=1,times=1",
            store=store,
            persist=True,
        )
        with pytest.raises(InjectedFault):
            SequentialExecutor().run(plan, car_dataset.trajectories[:2])
        assert store.trajectory_ids() == []
        store.close()

    def test_pooled_commit_fault_under_fail_fast_raises_and_rolls_back(
        self, annotation_sources, car_dataset
    ):
        store = SemanticTrajectoryStore()
        plan = _plan(
            annotation_sources,
            _config(mode="fail_fast"),
            "commit:n=1,times=1",
            store=store,
            persist=True,
        )
        with ProcessPoolExecutor(workers=2) as executor, pytest.raises(InjectedFault):
            executor.run(plan, car_dataset.trajectories[:2])
        assert store.trajectory_ids() == []
        store.close()


# ------------------------------------------------------- process-pool recovery
class TestProcessPoolRecovery:
    def test_transient_worker_faults_retry_to_parity(
        self, annotation_sources, car_dataset, monkeypatch
    ):
        trajectories = car_dataset.trajectories
        config = _config(mode="retry", max_retries=2)
        reference = SequentialExecutor().run(
            _plan(annotation_sources, config), trajectories
        )
        # Workers build their injector from the inherited environment; each
        # worker process fires the transient spec once and retries in place.
        monkeypatch.setenv("SEMITRI_FAULTS", "raise@map_match:n=1,times=1")
        plan = Plan.compile(GeoContext(annotation_sources, config))
        with ProcessPoolExecutor(workers=2) as executor:
            results = executor.run(plan, trajectories)
        assert canonical_bytes(results) == canonical_bytes(reference)
        log = plan.failure_log
        assert log.quarantined == 0
        assert log.failures >= 1
        assert log.retries == log.failures

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_kill_recovers_and_preserves_survivor_bytes(
        self, annotation_sources, car_dataset, tmp_path, monkeypatch, start_method
    ):
        """Recovery replaces the one dead worker, under fork and under spawn."""
        monkeypatch.setattr(
            process, "mp_context", lambda: multiprocessing.get_context(start_method)
        )
        trajectories = car_dataset.trajectories
        config = _config(mode="retry")
        reference = SequentialExecutor().run(
            _plan(annotation_sources, config), trajectories
        )
        # The fuse makes the SIGKILL a one-shot across worker generations —
        # without it every replacement worker would die at its 2nd trajectory.
        fuse = tmp_path / "kill.fuse"
        monkeypatch.setenv("SEMITRI_FAULTS", f"kill:n=2,times=1,fuse={fuse}")
        plan = Plan.compile(GeoContext(annotation_sources, config))
        with ProcessPoolExecutor(workers=2) as executor:
            results = executor.run(plan, trajectories)
        assert fuse.exists()
        assert canonical_bytes(results) == canonical_bytes(reference)
        log = plan.failure_log
        assert log.worker_losses >= 1
        assert log.quarantined == 0
        assert executor._workers == [] and not glob.glob("/dev/shm/semitri-*")

    def test_fail_fast_stage_error_propagates_and_keeps_the_pool(
        self, annotation_sources, car_dataset, monkeypatch
    ):
        """A stage exception is not a lost worker: no teardown, no recovery."""
        trajectories = car_dataset.trajectories
        poison = trajectories[-1].object_id
        monkeypatch.setenv("SEMITRI_FAULTS", f"raise@map_match:obj={poison},times=-1")
        plan = Plan.compile(GeoContext(annotation_sources, _config(mode="fail_fast")))
        with ProcessPoolExecutor(workers=2) as executor:
            with pytest.raises(InjectedFault):
                executor.run(plan, trajectories)
            pool = list(executor._workers)
            assert pool
            assert plan.failure_log.worker_losses == plan.failure_log.quarantined == 0
            survivors = [t for t in trajectories if t.object_id != poison]
            results = executor.run(plan, survivors)
            assert executor._workers == pool  # still warm
        monkeypatch.delenv("SEMITRI_FAULTS")
        reference = SequentialExecutor().run(
            _plan(annotation_sources, _config(mode="fail_fast")), survivors
        )
        assert canonical_bytes(results) == canonical_bytes(reference)

    def test_a_worker_codec_error_comes_back_not_as_a_lost_worker(
        self, annotation_sources, car_dataset, monkeypatch
    ):
        """A failing response encoding is the worker's exception, raised as is."""
        monkeypatch.setattr(process, "mp_context", lambda: multiprocessing.get_context("fork"))
        dump_outcome = executors.dump_outcome

        def broken(outcome, context, items=()):
            if isinstance(outcome, list):  # shard results; the exception still encodes
                raise ValueError("result codec broke")
            return dump_outcome(outcome, context, items)

        monkeypatch.setattr(executors, "dump_outcome", broken)  # inherited by the fork
        plan = Plan.compile(GeoContext(annotation_sources, _config(mode="skip")))
        with ProcessPoolExecutor(workers=2) as executor:
            with pytest.raises(ValueError, match="result codec broke"):
                executor.run(plan, car_dataset.trajectories)
        assert plan.failure_log.worker_losses == plan.failure_log.quarantined == 0

    def test_poison_kill_bisects_down_to_quarantine(
        self, annotation_sources, car_dataset, monkeypatch
    ):
        trajectories = car_dataset.trajectories
        poison = trajectories[0].object_id
        config = _config(mode="retry")
        reference = SequentialExecutor().run(
            _plan(annotation_sources, config), trajectories
        )
        # No fuse: every worker that starts the poison object dies, so
        # recovery must bisect the shard down to the single trajectory.
        monkeypatch.setenv("SEMITRI_FAULTS", f"kill:obj={poison},times=-1")
        plan = Plan.compile(GeoContext(annotation_sources, config))
        with ProcessPoolExecutor(workers=2) as executor:
            results = executor.run(plan, trajectories)
        poison_count = sum(1 for t in trajectories if t.object_id == poison)
        survivors_ref = [r for r in reference if r.trajectory.object_id != poison]
        assert canonical_bytes(results) == canonical_bytes(survivors_ref)
        log = plan.failure_log
        assert log.quarantined == poison_count
        assert log.worker_losses >= 2  # whole-shard retry, then bisection rounds
        for failure in log.pending_quarantines:
            assert failure.trajectory.object_id == poison
            assert failure.events and all(e.kind == "WorkerLost" for e in failure.events)

    def test_one_plan_shares_one_failure_log_across_runs(
        self, annotation_sources, car_dataset, monkeypatch
    ):
        poison = car_dataset.trajectories[0].object_id
        monkeypatch.setenv("SEMITRI_FAULTS", f"raise@map_match:obj={poison},times=-1")
        plan = Plan.compile(GeoContext(annotation_sources, _config(mode="skip")))
        with ProcessPoolExecutor(workers=2) as executor:
            first = executor.run(plan, car_dataset.trajectories)
            second = executor.run(plan, car_dataset.trajectories)
        poison_count = sum(1 for t in car_dataset.trajectories if t.object_id == poison)
        assert len(first) == len(second) == len(car_dataset.trajectories) - poison_count
        assert plan.failure_log.quarantined == 2 * poison_count


# ------------------------------------------------------- micro-batch isolation
class TestMicroBatchIsolation:
    def _run_stream(self, plan: Plan, trajectories) -> List[object]:
        executor = MicroBatchExecutor(plan)
        results: List[object] = []
        for trajectory in trajectories:
            for point in trajectory.points:
                results.extend(executor.ingest(trajectory.object_id, point))
            results.extend(executor.close_object(trajectory.object_id))
        results.extend(executor.flush())
        return results

    def test_poison_object_quarantines_and_spares_the_stream(
        self, annotation_sources, car_dataset
    ):
        trajectories = car_dataset.trajectories[:6]
        poison = trajectories[0].object_id
        config = _config(mode="skip")
        reference = self._run_stream(_plan(annotation_sources, config), trajectories)
        assert len(reference) == len(trajectories)
        # landuse_join absorbs episodes incrementally for every trajectory,
        # so the poison fires on the incremental path (routing suspends, the
        # close-time handler quarantines) regardless of stop/move mix.
        plan = _plan(
            annotation_sources, config, f"raise@landuse_join:obj={poison},times=-1"
        )
        results = self._run_stream(plan, trajectories)
        survivors_ref = [r for r in reference if r.trajectory.object_id != poison]
        assert canonical_bytes(results) == canonical_bytes(survivors_ref)
        log = plan.failure_log
        assert log.quarantined == sum(1 for t in trajectories if t.object_id == poison)
        for failure in log.pending_quarantines:
            assert failure.trajectory.points  # raw events intact for replay

    def test_transient_incremental_fault_replays_to_parity(
        self, annotation_sources, car_dataset
    ):
        trajectories = car_dataset.trajectories[:6]
        config = _config(mode="retry", max_retries=2)
        reference = self._run_stream(_plan(annotation_sources, config), trajectories)
        assert len(reference) == len(trajectories)
        plan = _plan(annotation_sources, config, "raise@map_match:n=1,times=1")
        results = self._run_stream(plan, trajectories)
        assert canonical_bytes(results) == canonical_bytes(reference)
        log = plan.failure_log
        assert log.quarantined == 0
        assert log.failures == 1 and log.retries == 1

    def test_fail_fast_still_raises_incrementally(self, annotation_sources, car_dataset):
        plan = _plan(annotation_sources, _config(mode="fail_fast"), "raise@map_match:n=1")
        with pytest.raises(InjectedFault):
            self._run_stream(plan, car_dataset.trajectories[:2])


# -------------------------------------------------------------- service faults
def _service_config(**overrides: object) -> PipelineConfig:
    merged = {
        "streaming.micro_batch_size": 5,
        "streaming.apply_cleaning": True,
        "service.shards": 2,
        "failure.backoff_base": 0.0,
    }
    merged.update(overrides)
    return PipelineConfig.for_vehicles().with_overrides(merged)


def _feed_and_drain(service: AnnotationService, streams) -> None:
    async def run() -> None:
        async with service:
            for object_id, points in sorted(streams.items()):
                for point in points:
                    await service.ingest(object_id, point)
                await service.close_object(object_id)
            await service.drain()

    asyncio.run(run())


def _streams(dataset):
    grouped = {}
    for trajectory in dataset.trajectories:
        grouped.setdefault(trajectory.object_id, []).append(trajectory)
    streams = {}
    for object_id, trajectories in grouped.items():
        trajectories.sort(key=lambda t: t.points[0].t)
        streams[object_id] = [p for t in trajectories for p in t.points]
    return streams


class TestServiceFaults:
    def test_poison_object_quarantined_and_metrics_reconcile(
        self, annotation_sources, car_dataset
    ):
        streams = _streams(car_dataset)
        poison = sorted(streams)[0]
        config = _service_config(**{"failure.mode": "retry", "failure.max_retries": 1})
        store = SemanticTrajectoryStore()
        injector = FaultInjector(
            FaultPlan.parse(f"raise@landuse_join:obj={poison},times=-1")
        )
        service = AnnotationService(
            GeoContext(annotation_sources, config),
            store=store,
            persist=True,
            fault_injector=injector,
        )
        _feed_and_drain(service, streams)

        assert service.dropped_events == 0
        assert {r.trajectory.object_id for r in service.results} == set(streams) - {poison}
        log = service.failure_log
        assert log.quarantined >= 1
        # The shard-thread quarantines flushed into the store at drain.
        assert store.quarantine_count() == log.quarantined
        assert all(row["object_id"] == poison for row in store.quarantined())
        # Plain-integer counters and the registry metrics agree exactly.
        registry = service.registry
        assert registry.value("quarantined_total") == log.quarantined
        assert registry.value("retries_total") == log.retries
        snapshot = log.snapshot()
        assert snapshot["failures"] == log.failures >= log.quarantined
        rendered = service.render_prometheus()
        assert "semitri_failures_total" in rendered or "failures_total" in rendered
        store.close()

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_batch_infrastructure_error_routed_through_policy(
        self, annotation_sources, car_dataset, monkeypatch, transport
    ):
        """A batch that raises inside the shard core comes back as an error
        ack and is counted, annotated and policy-routed — on either transport
        (a forked worker process inherits the substituted core)."""
        if transport == "process" and process.mp_context().get_start_method() != "fork":
            pytest.skip("substituting the worker's core relies on fork inheritance")
        streams = _streams(car_dataset)

        class FlakyCore(shard_module.ShardCore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                ingest = self.executor.ingest
                fired = []

                def flaky_ingest(object_id, point):
                    if not fired:
                        fired.append(object_id)
                        raise RuntimeError("shard infrastructure blew up")
                    return ingest(object_id, point)

                self.executor.ingest = flaky_ingest

        monkeypatch.setattr(shard_module, "ShardCore", FlakyCore)

        def run_with(mode: str) -> AnnotationService:
            config = _service_config(
                **{
                    "failure.mode": mode,
                    "service.shards": 1,
                    "service.max_batch": 8,
                    "service.transport": transport,
                }
            )
            service = repro.serve(annotation_sources, config=config)
            _feed_and_drain(
                service, {object_id: points[:30] for object_id, points in streams.items()}
            )
            return service

        # Isolating mode: the shard survives, the failure is annotated with
        # shard and object ids, and counters record it.
        service = run_with("skip")
        assert service.stats.errors == 1
        assert service.metrics.shard(0).errors.value == 1
        assert len(service.batch_failures) == 1
        message = str(service.batch_failures[0])
        assert "shard 0" in message and "RuntimeError" in message
        assert service.failure_log.failures >= 1
        assert service.results  # the other batches still annotated
        assert service.dropped_events > 0  # the failed batch's tail is not absorbed

        # fail_fast: the same error surfaces out of drain as a ServiceError.
        with pytest.raises(ServiceError, match="shard 0"):
            run_with("fail_fast")


    def test_commit_fault_after_a_recovery_start_keeps_the_wal(
        self, annotation_sources, car_dataset, tmp_path
    ):
        """Drain fails, the next service recovers and fails its drain too:
        ``shutdown`` promises the WAL stays, so a third service still replays
        every record and commits what an undisturbed run commits."""
        streams = dict(sorted(_streams(car_dataset).items())[:3])
        operations = sum(len(points) for points in streams.values()) + len(streams)
        config = _service_config(
            **{
                "service.journal_dir": str(tmp_path / "wal"),
                "service.journal_fsync_batch": 1,
                "service.transport": "thread",
            }
        )

        def service(store, faulty: bool) -> AnnotationService:
            plan = FaultPlan.parse("commit:times=-1" if faulty else "")
            return AnnotationService(
                GeoContext(annotation_sources, config),
                store=store,
                persist=True,
                fault_injector=FaultInjector(plan),
            )

        with pytest.raises(InjectedFault):
            _feed_and_drain(service(SemanticTrajectoryStore(), faulty=True), streams)
        second = service(SemanticTrajectoryStore(), faulty=True)
        with pytest.raises(InjectedFault):
            _feed_and_drain(second, {})  # start() replays, the commit fails again
        assert second.failure_log.wal_replayed == operations

        store = SemanticTrajectoryStore()
        third = service(store, faulty=False)
        _feed_and_drain(third, {})
        assert third.failure_log.wal_replayed == operations
        assert third.dropped_events == 0
        assert list((tmp_path / "wal").iterdir()) == []  # drained: rotated and removed

        reference_store = SemanticTrajectoryStore()
        reference = repro.serve(
            annotation_sources,
            config=config.with_overrides({"service.journal_dir": ""}),
            store=reference_store,
            persist=True,
        )
        _feed_and_drain(reference, streams)
        assert store.trajectory_ids() == reference_store.trajectory_ids() != []
        assert store.stop_move_summary() == reference_store.stop_move_summary()
        assert store.annotation_count() == reference_store.annotation_count()
        store.close()
        reference_store.close()


# ------------------------------------------------------------- ingest journal
class TestIngestJournal:
    def test_append_scan_roundtrip_and_rotation(self, tmp_path):
        from repro.core.points import SpatioTemporalPoint

        directory = str(tmp_path / "wal")
        journal = IngestJournal(directory, shards=2, fsync_batch=1)
        assert journal.pending_records == []
        origin = journal.append_event(0, "car-1", SpatioTemporalPoint(1.0, 2.0, 3.0))
        journal.append_event(1, "car-2", SpatioTemporalPoint(4.0, 5.0, 6.0))
        journal.append_close(0, "car-1")
        assert origin == (journal.epoch, 0, 1)
        journal.close()

        recovered = IngestJournal(directory, shards=2, fsync_batch=1)
        records = recovered.pending_records
        assert [(r.kind, r.object_id) for r in records] == [
            ("event", "car-1"),
            ("close", "car-1"),
            ("event", "car-2"),
        ]
        assert records[0].point().x == 1.0
        assert recovered.epoch == journal.epoch + 1
        recovered.discard_recovered()
        recovered.rotate()
        recovered.close()
        assert IngestJournal(directory, shards=2).pending_records == []

    def test_torn_final_record_is_dropped_not_fatal(self, tmp_path):
        from repro.core.points import SpatioTemporalPoint

        directory = tmp_path / "wal"
        journal = IngestJournal(str(directory), shards=1, fsync_batch=1)
        journal.append_event(0, "car-1", SpatioTemporalPoint(1.0, 2.0, 3.0))
        journal.append_event(0, "car-1", SpatioTemporalPoint(4.0, 5.0, 6.0))
        journal.close()
        [path] = list(directory.glob("shard-*.wal"))
        data = path.read_bytes()
        path.write_bytes(data[:-17])  # crash mid-write of the second record
        recovered = IngestJournal(str(directory), shards=1)
        assert [r.point().as_tuple() for r in recovered.pending_records] == [(1.0, 2.0, 3.0)]
        recovered.close()

    def test_replayed_records_dedup_keep_first(self, tmp_path):
        from repro.core.points import SpatioTemporalPoint

        directory = str(tmp_path / "wal")
        journal = IngestJournal(directory, shards=1, fsync_batch=1)
        journal.append_event(0, "car-1", SpatioTemporalPoint(1.0, 2.0, 3.0))
        journal.close()
        # A crash mid-replay leaves the record both in the old epoch's file
        # and re-journaled in the new one; the next recovery sees it once.
        second = IngestJournal(directory, shards=1, fsync_batch=1)
        [record] = second.pending_records
        second.append_replayed(0, record)
        second.close()  # crash before discard_recovered: both files remain
        third = IngestJournal(directory, shards=1)
        assert len(third.pending_records) == 1
        assert third.pending_records[0].origin == record.origin
        third.close()

    def test_close_keeps_a_file_that_holds_only_rejournaled_records(self, tmp_path):
        """Crash, recovery (records re-journaled, old epoch discarded), then a
        close with no append of the new epoch's own: the file is the only
        copy of the replayed records and must stay."""
        from repro.core.points import SpatioTemporalPoint

        directory = tmp_path / "wal"
        first = IngestJournal(str(directory), shards=1, fsync_batch=1)
        for n in range(5):
            first.append_event(0, "car-1", SpatioTemporalPoint(float(n), 0.0, float(n)))
        first.close()  # crashed before any drain
        second = IngestJournal(str(directory), shards=1, fsync_batch=1)
        for record in second.pending_records:
            second.append_replayed(0, record)
        second.sync()
        second.discard_recovered()
        second.close()  # failed drain, then shutdown
        assert [path.name for path in directory.iterdir()] == ["shard-0.e2.wal"]
        third = IngestJournal(str(directory), shards=1)
        assert [r.origin for r in third.pending_records] == [(1, 0, n) for n in range(1, 6)]
        third.discard_recovered()
        third.close()  # header-only files still go
        assert list(directory.iterdir()) == []

    def test_journal_record_codec_roundtrip(self, tmp_path):
        """Re-journaled records come back equal, origin included, with their
        numbers coerced to float64 as ``float()`` would."""
        event = JournalRecord(origin=(1, 0, 1), kind="event", object_id="x", x=1, y=2, t=3)
        close = JournalRecord(origin=(1, 0, 2), kind="close", object_id="x")
        journal = IngestJournal(str(tmp_path), shards=1)
        journal.append_replayed(0, event)
        journal.append_replayed(0, close)
        records = journal.records_for_shard(0)
        journal.close()
        assert records == [event, close]
        assert all(type(value) is float for value in (records[0].x, records[0].y, records[0].t))
