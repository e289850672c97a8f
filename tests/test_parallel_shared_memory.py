"""The start-method suite: one way across a process boundary, driven both ways.

A pool worker takes the :class:`GeoContext` snapshot as the argument of its
initializer — under ``fork`` it finds the parent's object in inherited
memory and nothing is serialised, under ``spawn`` it receives the pickle
``multiprocessing`` makes of a process's arguments.  Linux runs ``fork``, so
the tests that need the pickled snapshot substitute ``spawn`` through the
``_pool_mp_context`` seam — the configuration macOS and Windows really run.

* a pickled snapshot is the snapshot: equal index arrays for all three
  sources, identical canonical bytes;
* canonical output bytes are identical under ``fork`` and under ``spawn``
  and equal to sequential;
* ``fork`` never serialises the snapshot, ``spawn`` does;
* a SIGKILLed worker of a spawned pool raises under ``fail_fast`` and is
  recovered from under ``skip``, on a fresh pool either way.

(The module keeps the name it had when the snapshot travelled through a
shared-memory segment under ``spawn``, so the surviving test ids keep
tracking.  The service's half of the suite is
``test_service_process.py::test_transport_parity_canonical_bytes_and_store_rows``.)
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import signal
import time
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro import api
from repro.core import PipelineConfig, SeMiTriPipeline
from repro.engine import ProcessPoolExecutor, SequentialExecutor, executors, shard_by_object
from repro.parallel import (
    GeoContext,
    attach_context,
    canonical_bytes,
    canonical_digest,
    share_context,
)

TEST_WORKERS = max(2, int(os.environ.get("SEMITRI_TEST_WORKERS", "2")))


@pytest.fixture(scope="module")
def flat_context(annotation_sources) -> GeoContext:
    return GeoContext.build(annotation_sources, PipelineConfig.for_people())


def _start_pools_with(monkeypatch, start_method: str) -> None:
    """Make every pool built in this test start its workers with ``start_method``."""
    monkeypatch.setattr(
        executors, "_pool_mp_context", lambda: multiprocessing.get_context(start_method)
    )


@pytest.fixture()
def spawn_pool(monkeypatch):
    _start_pools_with(monkeypatch, "spawn")


@pytest.fixture(scope="module")
def small_batch(people_dataset):
    return people_dataset.all_trajectories


@pytest.fixture(scope="module")
def sequential_bytes(small_batch, annotation_sources) -> bytes:
    results = SeMiTriPipeline(PipelineConfig.for_people()).annotate_many(
        small_batch, annotation_sources
    )
    return canonical_bytes(results)


# ------------------------------------------------------- the pickled snapshot
class TestShareContext:
    def test_pickled_snapshot_has_equal_arrays_and_annotates_identically(
        self, flat_context, small_batch, sequential_bytes
    ):
        """The spawn contract, without starting a process."""
        copy = pickle.loads(pickle.dumps(flat_context))
        for name in ("regions", "road_network", "pois"):
            ours = getattr(flat_context.sources, name).flat_index().array_blocks()
            theirs = getattr(copy.sources, name).flat_index().array_blocks()
            assert list(ours) == list(theirs), name
            for key, array in ours.items():
                assert array.dtype == theirs[key].dtype, (name, key)
                assert np.array_equal(array, theirs[key]), (name, key)
        results = SequentialExecutor().run(api.compile_plan(context=copy), small_batch)
        assert canonical_bytes(results) == sequential_bytes

    def test_attached_context_annotates_identically(
        self, flat_context, small_batch, sequential_bytes
    ):
        """The two names the frozen benchmark probe calls are that pickle pair."""
        shared = share_context(flat_context)
        context, handle = attach_context(shared.spec)
        shared.close()
        assert handle is None and context is not flat_context
        results = SequentialExecutor().run(api.compile_plan(context=context), small_batch)
        assert canonical_bytes(results) == sequential_bytes


# ----------------------------------------------------------------- sharding
class TestSharding:
    def test_shards_partition_the_batch(self, small_batch):
        reference = sorted((order, t.trajectory_id) for order, t in enumerate(small_batch))
        shards = shard_by_object(small_batch, 3)
        seen = sorted((order, t.trajectory_id) for _, items in shards for order, t in items)
        assert seen == reference

    def test_objects_never_split_across_shards(self, small_batch):
        owner = {}
        for index, items in shard_by_object(small_batch, 3):
            for _, trajectory in items:
                assert owner.setdefault(trajectory.object_id, index) == index


# ------------------------------------------------- fork x spawn byte parity
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pool_parity_across_start_methods(
    start_method, small_batch, flat_context, sequential_bytes, monkeypatch
):
    """Canonical bytes are identical whichever way the snapshot travels."""
    _start_pools_with(monkeypatch, start_method)
    plan = api.compile_plan(context=flat_context)
    with ProcessPoolExecutor(workers=TEST_WORKERS) as executor:
        results = executor.run(plan, small_batch)
        assert executor._pool is not None  # really pooled, not the one-shard shortcut
    assert canonical_bytes(results) == sequential_bytes
    assert canonical_digest(results) == hashlib.sha256(sequential_bytes).hexdigest()


def test_fork_pool_never_serialises_the_snapshot(
    flat_context, small_batch, sequential_bytes, monkeypatch, unpicklable_snapshot
):
    """Arguments of a forked process are inherited, not pickled."""
    _start_pools_with(monkeypatch, "fork")
    with ProcessPoolExecutor(workers=2) as executor:
        results = executor.run(api.compile_plan(context=flat_context), small_batch)
        assert executor._pool is not None
    assert canonical_bytes(results) == sequential_bytes


def test_spawn_pool_pickles_the_snapshot(
    flat_context, small_batch, sequential_bytes, spawn_pool, monkeypatch
):
    """The other half: a spawned worker gets the pickle of its arguments."""
    pickled = []

    def counting(self, protocol):
        pickled.append(protocol)
        return object.__reduce_ex__(self, protocol)

    monkeypatch.setattr(GeoContext, "__reduce_ex__", counting)
    with ProcessPoolExecutor(workers=2) as executor:
        results = executor.run(api.compile_plan(context=flat_context), small_batch)
    assert len(pickled) >= 1
    assert canonical_bytes(results) == sequential_bytes


# -------------------------------------------------- worker loss under spawn
@pytest.mark.usefixtures("spawn_pool")
class TestWorkerLoss:
    def test_crash_under_fail_fast_raises_and_reprimes(self, flat_context, small_batch):
        """``fail_fast`` takes the same submission loop and tears the pool down."""
        executor = ProcessPoolExecutor(workers=2)
        plan = api.compile_plan(context=flat_context)
        assert not plan.failure_policy.isolates
        executor.run(plan, small_batch[:4])  # prime the pool
        assert executor._pool is not None
        victim = next(iter(executor._pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        with pytest.raises(BrokenExecutor):
            while time.monotonic() < deadline:  # the pool notices on submit
                executor.run(plan, small_batch[:4])
        # The except-path close() tore the pool down, and a fresh run
        # re-primes cleanly.
        assert executor._pool is None
        results = executor.run(plan, small_batch[:4])
        assert len(results) == 4
        executor.close()

    def test_crash_under_skip_recovers_on_a_fresh_pool(
        self, annotation_sources, small_batch, sequential_bytes
    ):
        """The isolating branch of the same loop: re-prime, resubmit, finish."""
        config = PipelineConfig.for_people().with_overrides({"failure.mode": "skip"})
        plan = api.compile_plan(context=GeoContext.build(annotation_sources, config))
        with ProcessPoolExecutor(workers=2) as executor:
            executor.run(plan, small_batch)  # prime the pool
            poisoned = executor._pool
            assert poisoned is not None
            victim = next(iter(poisoned._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while plan.failure_log.worker_losses == 0 and time.monotonic() < deadline:
                results = executor.run(plan, small_batch)  # the pool notices on submit
            assert plan.failure_log.worker_losses >= 1
            assert plan.failure_log.quarantined == 0
            assert canonical_bytes(results) == sequential_bytes
            assert executor._pool not in (None, poisoned)
