"""Zero-copy shared-memory snapshot transport and size-aware sharding.

The snapshot's transport follows the pool's start method: inherited under
``fork``, one shared segment otherwise.  Linux runs ``fork``, so the tests
that need the segment path substitute ``spawn`` through the
``_pool_mp_context`` seam — the configuration macOS and Windows really run.

* :class:`SharedArrayBundle` round-trips named numpy blocks through one
  POSIX segment with read-only zero-copy views on the attach side;
* :func:`share_context` / :func:`attach_context` rebuild a
  :class:`GeoContext` whose flat-index arrays *alias* the shared segment
  (asserted with :func:`numpy.shares_memory`) instead of copying;
* canonical output bytes are identical under ``fork`` and under ``spawn``
  and equal to sequential;
* no ``/dev/shm`` segment survives an executor close, a dropped
  (garbage-collected) executor or a SIGKILLed worker.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro import api
from repro.core import PipelineConfig, SeMiTriPipeline
from repro.engine import ProcessPoolExecutor, SequentialExecutor, executors, shard_by_object
from repro.parallel import (
    GeoContext,
    SharedArrayBundle,
    canonical_bytes,
    canonical_digest,
    attach_context,
    share_context,
)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory not available"
)

TEST_WORKERS = max(2, int(os.environ.get("SEMITRI_TEST_WORKERS", "2")))


def _segment_paths(name):
    return glob.glob(f"/dev/shm/{name}") + glob.glob(f"/dev/shm/psm_{name}")


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


# ------------------------------------------------------------ bundle basics
class TestSharedArrayBundle:
    def test_round_trip_values_and_read_only_views(self):
        arrays = {
            "floats": np.linspace(0.0, 1.0, 512),
            "ints": np.arange(128, dtype=np.int64).reshape(8, 16),
            "tiny": np.array([1.5, 2.5]),
        }
        with SharedArrayBundle.create(arrays) as bundle:
            attached = SharedArrayBundle.attach(bundle.manifest)
            try:
                assert attached.keys() == tuple(arrays)
                for key, array in arrays.items():
                    view = attached[key]
                    assert np.array_equal(view, array)
                    assert view.shape == array.shape
                    assert view.dtype == array.dtype
                    assert not view.flags.writeable
                    with pytest.raises((ValueError, RuntimeError)):
                        view[(0,) * view.ndim] = 99.0
            finally:
                attached.close()

    def test_blocks_are_cache_line_aligned(self):
        arrays = {"a": np.ones(3), "b": np.ones(5), "c": np.ones(7)}
        with SharedArrayBundle.create(arrays) as bundle:
            for block in bundle.manifest.blocks:
                assert block.offset % 64 == 0

    def test_unknown_key_and_contiguity_validation(self):
        with SharedArrayBundle.create({"a": np.ones(4)}) as bundle:
            with pytest.raises(KeyError):
                bundle["missing"]
        with pytest.raises(ValueError):
            SharedArrayBundle.create({"f": np.ones((8, 8))[:, ::2]})
        with pytest.raises(ValueError):
            SharedArrayBundle.create({"o": np.array([object()], dtype=object)})

    def test_close_unlinks_segment_even_with_live_views(self):
        bundle = SharedArrayBundle.create({"a": np.arange(64, dtype=np.float64)})
        segment = bundle.segment_name
        view = bundle["a"]  # still referenced when the segment goes away
        assert _segment_paths(segment)
        bundle.close()
        assert bundle.closed
        assert not _segment_paths(segment)
        assert view[1] == 1.0  # the mapping stays valid until process exit
        bundle.close()  # idempotent

    def test_dropped_bundle_is_unlinked_by_finalizer(self):
        bundle = SharedArrayBundle.create({"a": np.ones(32)})
        segment = bundle.segment_name
        del bundle
        gc.collect()
        assert not _segment_paths(segment)


# ------------------------------------------------------ context share/attach
class TestShareContext:
    def test_manifest_names_match_precompiled_blocks(self, flat_context):
        blocks = flat_context.precompiled_blocks()
        assert blocks  # the snapshot always pre-compiles the flat index columns
        with share_context(flat_context) as shared:
            manifest = shared.spec.manifest
            assert manifest is not None
            named = set(manifest.keys()) & set(blocks)
            # Every *large* precompiled block travels via the segment under
            # its human-readable name; only sub-256-byte stragglers pickle
            # inline.
            assert named
            for key in named:
                assert blocks[key].nbytes >= 256

    def test_attached_views_alias_the_segment(self, flat_context):
        with share_context(flat_context) as shared:
            context, bundle = attach_context(shared.spec)
            try:
                assert bundle is not None
                attached_blocks = context.precompiled_blocks()
                shared_keys = set(shared.spec.manifest.keys()) & set(attached_blocks)
                assert shared_keys
                for key in shared_keys:
                    view = attached_blocks[key]
                    assert np.shares_memory(view, bundle[key])  # zero-copy
                    assert not view.flags.writeable
                    assert np.array_equal(
                        view, flat_context.precompiled_blocks()[key]
                    )
            finally:
                bundle.close()

    def test_skeleton_is_smaller_than_a_full_pickle(self, flat_context):
        import pickle

        full = len(pickle.dumps(flat_context, protocol=pickle.HIGHEST_PROTOCOL))
        with share_context(flat_context) as shared:
            assert len(shared.spec.skeleton) < full
            assert shared.spec.shared_bytes > 0

    def test_attached_context_annotates_identically(
        self, flat_context, small_batch, sequential_bytes
    ):
        with share_context(flat_context) as shared:
            context, bundle = attach_context(shared.spec)
            try:
                plan = api.compile_plan(context=context)
                results = SequentialExecutor().run(plan, small_batch)
                assert canonical_bytes(results) == sequential_bytes
            finally:
                bundle.close()


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
        segment = executor.shared_segment_name
        if start_method == "spawn":
            assert segment is not None and _segment_paths(segment)
        else:
            assert segment is None
        assert canonical_bytes(results) == sequential_bytes
        assert canonical_digest(results) == canonical_digest_from(sequential_bytes)
    if segment is not None:
        assert not _segment_paths(segment)


def canonical_digest_from(payload: bytes) -> str:
    import hashlib

    return hashlib.sha256(payload).hexdigest()


# ------------------------------------------------------------------ cleanup
@pytest.mark.usefixtures("spawn_pool")
class TestSegmentCleanup:
    def test_close_unlinks_segment(self, flat_context, small_batch):
        executor = ProcessPoolExecutor(workers=TEST_WORKERS)
        executor.run(api.compile_plan(context=flat_context), small_batch)
        segment = executor.shared_segment_name
        assert segment is not None and _segment_paths(segment)
        executor.close()
        assert not _segment_paths(segment)
        assert executor.shared_segment_name is None

    def test_dropped_executor_unlinks_segment(self, flat_context, small_batch):
        executor = ProcessPoolExecutor(workers=2)
        executor.run(api.compile_plan(context=flat_context), small_batch[:4])
        segment = executor.shared_segment_name
        assert segment is not None and _segment_paths(segment)
        del executor
        gc.collect()
        assert not _segment_paths(segment)

    def test_worker_crash_under_fail_fast_raises_and_unlinks_segment(
        self, flat_context, small_batch
    ):
        """``fail_fast`` takes the same submission loop and tears the pool down."""
        from concurrent.futures import BrokenExecutor

        executor = ProcessPoolExecutor(workers=2)
        plan = api.compile_plan(context=flat_context)
        assert not plan.failure_policy.isolates
        executor.run(plan, small_batch[:4])  # prime the pool + segment
        segment = executor.shared_segment_name
        assert segment is not None and _segment_paths(segment)
        assert executor._pool is not None
        victim = next(iter(executor._pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        with pytest.raises(BrokenExecutor):
            while time.monotonic() < deadline:  # the pool notices on submit
                executor.run(plan, small_batch[:4])
        # The except-path close() tore everything down: pool gone, segment
        # unlinked, and a fresh run re-primes cleanly.
        assert executor._pool is None
        assert not _segment_paths(segment)
        results = executor.run(plan, small_batch[:4])
        assert len(results) == 4
        executor.close()
        assert not glob.glob("/dev/shm/semitri-*")

    def test_worker_crash_under_skip_recovers_on_a_fresh_segment(
        self, annotation_sources, small_batch, sequential_bytes
    ):
        """The isolating branch of the same loop: re-prime, resubmit, finish."""
        config = PipelineConfig.for_people().with_overrides({"failure.mode": "skip"})
        plan = api.compile_plan(context=GeoContext.build(annotation_sources, config))
        with ProcessPoolExecutor(workers=2) as executor:
            executor.run(plan, small_batch)  # prime the pool + segment
            segment = executor.shared_segment_name
            assert segment is not None and executor._pool is not None
            victim = next(iter(executor._pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while plan.failure_log.worker_losses == 0 and time.monotonic() < deadline:
                results = executor.run(plan, small_batch)  # the pool notices on submit
            assert plan.failure_log.worker_losses >= 1
            assert plan.failure_log.quarantined == 0
            assert canonical_bytes(results) == sequential_bytes
            assert not _segment_paths(segment)  # the poisoned pool's segment is gone
            assert executor.shared_segment_name not in (None, segment)
        assert not glob.glob("/dev/shm/semitri-*")

    def test_no_stray_segments_after_module(self):
        gc.collect()
        assert not glob.glob("/dev/shm/semitri-*")
