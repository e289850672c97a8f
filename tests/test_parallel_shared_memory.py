"""The start-method suite: one way across a process boundary, driven both ways.

A pool worker takes the :class:`GeoContext` snapshot as its argument —
under ``fork`` it finds the parent's object in inherited memory and nothing
is serialised, under ``spawn`` it reads the pickle of its arguments as the
first message on its request pipe.  Linux runs ``fork``, so
the tests that need the pickled snapshot substitute ``spawn`` through the
one start-method seam, ``repro.parallel.process.mp_context`` — the
configuration macOS and Windows really run.

* a pickled snapshot is the snapshot: equal index arrays for all three
  sources, identical canonical bytes;
* canonical output bytes are identical under ``fork`` and under ``spawn``
  and equal to sequential;
* ``fork`` never serialises the snapshot, ``spawn`` does;
* a SIGKILLed worker of a spawned pool raises under ``fail_fast`` and is
  recovered from under ``skip``; either way only the dead worker is replaced;
* pool workers die with a SIGKILLed parent, under ``fork`` and ``spawn``;
* a spawned worker that dies before it reads its arguments is EOF to its
  parent, not a hang.

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
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.core import PipelineConfig
from repro.core.errors import SemitriError
from repro.engine import ProcessPoolExecutor, SequentialExecutor, shard_by_object
from repro.parallel import (
    GeoContext,
    attach_context,
    canonical_bytes,
    canonical_digest,
    process,
    share_context,
)

TEST_WORKERS = max(2, int(os.environ.get("SEMITRI_TEST_WORKERS", "2")))


@pytest.fixture(scope="module")
def flat_context(annotation_sources) -> GeoContext:
    return GeoContext.build(annotation_sources, PipelineConfig.for_people())


def _start_pools_with(monkeypatch, start_method: str) -> None:
    """Make every pool built in this test start its workers with ``start_method``."""
    monkeypatch.setattr(
        process, "mp_context", lambda: multiprocessing.get_context(start_method)
    )


@pytest.fixture()
def spawn_pool(monkeypatch):
    _start_pools_with(monkeypatch, "spawn")


@pytest.fixture(scope="module")
def small_batch(people_dataset):
    return people_dataset.all_trajectories


@pytest.fixture(scope="module")
def sequential_bytes(small_batch, annotation_sources) -> bytes:
    results = api.annotate_many(small_batch, annotation_sources, PipelineConfig.for_people())
    return canonical_bytes(results)


# ------------------------------------------------------- the pickled snapshot
class TestShareContext:
    def test_pickled_snapshot_has_equal_arrays_and_annotates_identically(
        self, flat_context, small_batch, sequential_bytes
    ):
        """The spawn contract, without starting a process."""
        copy = pickle.loads(pickle.dumps(flat_context))
        for name in ("regions", "road_network", "pois"):
            ours = getattr(flat_context.sources, name).flat_index()
            theirs = getattr(copy.sources, name).flat_index()
            assert (ours.segment_columns is None) == (theirs.segment_columns is None), name
            pairs = zip(
                ours.entry_columns + (ours.segment_columns or ()),
                theirs.entry_columns + (theirs.segment_columns or ()),
            )
            for column, twin in pairs:
                assert column.dtype == twin.dtype and np.array_equal(column, twin), name
            assert [p.place_id for p in ours.payloads] == [p.place_id for p in theirs.payloads]
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
        assert executor._workers  # really pooled, not the one-shard shortcut
    assert canonical_bytes(results) == sequential_bytes
    assert canonical_digest(results) == hashlib.sha256(sequential_bytes).hexdigest()


def test_fork_pool_never_serialises_the_snapshot(
    flat_context, small_batch, sequential_bytes, monkeypatch, unpicklable_snapshot
):
    """Arguments of a forked process are inherited, not pickled."""
    _start_pools_with(monkeypatch, "fork")
    with ProcessPoolExecutor(workers=2) as executor:
        results = executor.run(api.compile_plan(context=flat_context), small_batch)
        assert executor._workers
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
        """``fail_fast`` blames the dead worker's shard and replaces only that worker."""
        executor = ProcessPoolExecutor(workers=2)
        plan = api.compile_plan(context=flat_context)
        assert not plan.failure_policy.isolates
        executor.run(plan, small_batch[:4])  # warm the workers
        victim, survivor = executor._workers
        os.kill(victim.pid, signal.SIGKILL)
        with pytest.raises(SemitriError, match="worker process lost"):
            executor.run(plan, small_batch[:4])
        # The dead worker was reaped and replaced; its sibling stayed warm.
        assert victim.process.exitcode == -signal.SIGKILL
        assert victim not in executor._workers and survivor in executor._workers
        results = executor.run(plan, small_batch[:4])
        assert len(results) == 4
        executor.close()

    def test_crash_under_skip_recovers_on_a_fresh_pool(
        self, annotation_sources, small_batch, sequential_bytes
    ):
        """The isolating branch of the same loop: replace, resubmit, finish."""
        config = PipelineConfig.for_people().with_overrides({"failure.mode": "skip"})
        plan = api.compile_plan(context=GeoContext.build(annotation_sources, config))
        with ProcessPoolExecutor(workers=2) as executor:
            executor.run(plan, small_batch)  # warm the workers
            victim, survivor = executor._workers
            os.kill(victim.pid, signal.SIGKILL)
            results = executor.run(plan, small_batch)
            assert plan.failure_log.worker_losses == 1
            assert plan.failure_log.quarantined == 0
            assert canonical_bytes(results) == sequential_bytes
            assert victim.process.exitcode == -signal.SIGKILL
            assert victim not in executor._workers and survivor in executor._workers


# ------------------------------------------------------ worker lifetime
def _process_alive(pid: int) -> bool:
    """Whether ``pid`` still runs (an un-reaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] not in (b"Z", b"X")
    except OSError:
        return False


# Warms a 2-worker pool under the start method named by argv[1], prints the
# worker pids, then SIGKILLs itself: no ``finally``, no atexit hook runs.
_DOOMED_PARENT = textwrap.dedent(
    """
    import multiprocessing, os, signal, sys
    from repro import api
    from repro.core import AnnotationSources, PipelineConfig
    from repro.datasets import PrivateCarSimulator, SyntheticWorld, WorldConfig
    from repro.engine import ProcessPoolExecutor
    from repro.parallel import GeoContext, process

    process.mp_context = lambda: multiprocessing.get_context(sys.argv[1])
    world = SyntheticWorld(WorldConfig(size=3000.0, poi_count=100, seed=5))
    sources = AnnotationSources(
        regions=world.region_source(), road_network=world.road_network(),
        pois=world.poi_source(),
    )
    cars = PrivateCarSimulator(world, car_count=2, trips_per_car=1, seed=5).generate()
    context = GeoContext.build(sources, PipelineConfig.for_vehicles())
    executor = ProcessPoolExecutor(workers=2)
    executor.run(api.compile_plan(context=context), cars.trajectories)
    print(*(worker.pid for worker in executor._workers), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pool_workers_die_with_their_parent(start_method):
    """Each worker holds only its own pipe ends, so a dead parent reads as EOF."""
    src = str(Path(api.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    parent = subprocess.Popen(
        [sys.executable, "-c", _DOOMED_PARENT, start_method],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    pids = []
    try:
        assert parent.stdout is not None
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert parent.wait(timeout=60) == -signal.SIGKILL and len(pids) == 2
        deadline = time.monotonic() + 5.0
        while any(map(_process_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_process_alive, pids)), "pool workers outlived their parent"
    finally:
        for pid in [parent.pid, *pids]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        parent.wait()
        parent.stdout.close()  # type: ignore[union-attr]


# Starts one spawned worker whose bootstrap fails: a spawned child re-imports
# ``__main__``, and a script read from stdin cannot be.  The worker's argument
# is larger than a pipe buffer, and its handler would answer if it were built.
_DIES_BOOTSTRAPPING = textwrap.dedent(
    """
    import multiprocessing, operator
    from repro.parallel import process

    process.mp_context = lambda: multiprocessing.get_context("spawn")
    worker = process.WorkerProcess(
        operator.methodcaller, ("removeprefix", b"x" * (1 << 20)), "bootstrap"
    )
    worker.send(b"ping")
    try:
        worker.responses.recv_bytes()
    except EOFError:
        print("EOF", flush=True)
    worker.stop()
    """
)


def test_a_spawned_worker_that_dies_bootstrapping_reads_as_eof():
    """A worker lost before it read its arguments is EOF to its parent, not a hang."""
    src = str(Path(api.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    parent = subprocess.Popen(
        [sys.executable, "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = parent.communicate(_DIES_BOOTSTRAPPING, timeout=30)
        assert out.split() == ["EOF"], err[-2000:]
    finally:
        try:
            os.killpg(parent.pid, signal.SIGKILL)  # the worker and any helper with it
        except ProcessLookupError:
            pass
        parent.wait()
