"""Crash-recovery tests for the service-tier ingest journal (WAL).

The headline guarantee: a service SIGKILLed mid-drain — after every event is
durably journaled but before anything is committed — recovers by replaying
the WAL through the normal ingest path, and the recovered store is
row-identical to an uninterrupted run on the same streams.  And whatever the
fsync batch, every operation whose ``ingest`` / ``close_object`` returned
before the kill is in the WAL.

The kill tests fork a real child process (Linux container, ``os.fork``
available) and land an actual ``SIGKILL``, so nothing — no ``finally``
blocks, no interpreter shutdown — gets a chance to tidy up.
No ``pytest-asyncio`` in the container: each process drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
from pathlib import Path
from typing import Dict, List

import repro
from repro.core import PipelineConfig
from repro.core.points import SpatioTemporalPoint
from repro.faults.journal import IngestJournal
from repro.parallel.canonical import canonical_bytes
from repro.service import AnnotationService
from repro.store.store import SemanticTrajectoryStore


def _config(journal_dir: str) -> PipelineConfig:
    return PipelineConfig.for_vehicles().with_overrides(
        {
            "streaming.micro_batch_size": 5,
            "streaming.apply_cleaning": True,
            "service.shards": 2,
            "service.journal_dir": journal_dir,
            # fsync every append: once ingest() returns, the event is durable.
            "service.journal_fsync_batch": 1,
        }
    )


def _streams(car_dataset) -> Dict[str, List[SpatioTemporalPoint]]:
    grouped: Dict[str, list] = {}
    for trajectory in car_dataset.trajectories:
        grouped.setdefault(trajectory.object_id, []).append(trajectory)
    streams: Dict[str, List[SpatioTemporalPoint]] = {}
    for object_id, trajectories in sorted(grouped.items()):
        trajectories.sort(key=lambda trajectory: trajectory.points[0].t)
        streams[object_id] = [
            point for trajectory in trajectories for point in trajectory.points
        ]
    return streams


def _feed_and_drain(
    service: AnnotationService, streams: Dict[str, List[SpatioTemporalPoint]]
) -> None:
    async def run() -> None:
        async with service:
            for object_id in sorted(streams):
                for point in streams[object_id]:
                    await service.ingest(object_id, point)
                await service.close_object(object_id)
            await service.drain()

    asyncio.run(run())


def _assert_stores_identical(
    recovered: SemanticTrajectoryStore, reference: SemanticTrajectoryStore
) -> None:
    assert recovered.trajectory_ids() == reference.trajectory_ids()
    assert recovered.stop_move_summary() == reference.stop_move_summary()
    assert recovered.annotation_count() == reference.annotation_count()
    assert recovered.category_histogram() == reference.category_histogram()
    for trajectory_id in reference.trajectory_ids():
        recovered_rows = recovered.episodes_for(trajectory_id)
        reference_rows = reference.episodes_for(trajectory_id)
        strip = lambda rows: [  # noqa: E731
            {key: value for key, value in row.items() if key != "episode_id"}
            for row in rows
        ]
        assert strip(recovered_rows) == strip(reference_rows), trajectory_id
        for recovered_row, reference_row in zip(recovered_rows, reference_rows):
            assert recovered.annotations_for(
                recovered_row["episode_id"]
            ) == reference.annotations_for(reference_row["episode_id"])


def test_sigkill_mid_drain_replays_wal_to_identical_store(
    annotation_sources, car_dataset, tmp_path
):
    """SIGKILL after journaling, before commit: replay rebuilds the store
    exactly as an uninterrupted run would have written it."""
    journal_dir = str(tmp_path / "wal")
    store_path = str(tmp_path / "recovered.sqlite")
    streams = _streams(car_dataset)
    config = _config(journal_dir)

    pid = os.fork()
    if pid == 0:
        # --- child: ingest everything, then die mid-drain -------------------
        # Exit only via os._exit / SIGKILL so the parent's pytest machinery
        # (capture buffers, atexit hooks) is never run twice.
        try:

            async def doomed() -> None:
                store = SemanticTrajectoryStore(store_path)
                service = repro.serve(
                    annotation_sources, config=config, store=store, persist=True
                )
                # Die at the exact point drain() would start committing: every
                # accepted event and close is already fsync'd in the WAL, the
                # store transaction has not begun, the journal not rotated.
                def kill_instead_of_commit() -> None:
                    os.kill(os.getpid(), signal.SIGKILL)

                service._commit_with_policy = kill_instead_of_commit
                async with service:
                    for object_id in sorted(streams):
                        for point in streams[object_id]:
                            await service.ingest(object_id, point)
                        await service.close_object(object_id)
                    await service.drain()

            asyncio.run(doomed())
            os._exit(3)  # drain returned: the kill never landed
        except BaseException:
            os._exit(4)

    # --- parent: verify the crash, then recover -----------------------------
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status), f"child exited with status {status!r} instead"
    assert os.WTERMSIG(status) == signal.SIGKILL

    wal_files = sorted(Path(journal_dir).glob("*.wal"))
    assert wal_files, "the crashed service left no WAL behind"

    recovered_store = SemanticTrajectoryStore(store_path)
    # The kill landed before the commit: the store is empty.
    assert recovered_store.trajectory_ids() == []

    recovery = repro.serve(
        annotation_sources, config=config, store=recovered_store, persist=True
    )

    async def recover() -> None:
        async with recovery:  # start() replays the WAL through normal ingest
            await recovery.drain()

    asyncio.run(recover())
    total_events = sum(len(points) for points in streams.values())
    assert recovery.failure_log.wal_replayed == total_events + len(streams)  # + closes
    assert recovery.dropped_events == 0

    # Uninterrupted reference run on the same streams (journal disabled).
    reference_store = SemanticTrajectoryStore()
    reference = repro.serve(
        annotation_sources,
        config=config.with_overrides({"service.journal_dir": ""}),
        store=reference_store,
        persist=True,
    )
    _feed_and_drain(reference, streams)

    by_recovery = {r.trajectory.trajectory_id: r for r in recovery.results}
    by_reference = {r.trajectory.trajectory_id: r for r in reference.results}
    assert set(by_recovery) == set(by_reference)
    for trajectory_id, expected in by_reference.items():
        assert canonical_bytes([by_recovery[trajectory_id]]) == canonical_bytes(
            [expected]
        ), trajectory_id
    _assert_stores_identical(recovered_store, reference_store)

    # A successful drain rotates the journal: nothing left to replay.
    assert sorted(Path(journal_dir).glob("*.wal")) == []
    recovered_store.close()
    reference_store.close()


def test_every_returned_operation_survives_a_process_crash_at_the_default_fsync_batch(
    annotation_sources, car_dataset, tmp_path
):
    """SIGKILL right after 100 returned ``ingest`` / ``close_object`` calls,
    with fsyncs 1,024 records apart: all 100 are pending on restart."""
    journal_dir = str(tmp_path / "wal")
    config = _config(journal_dir).with_overrides(
        {"service.journal_fsync_batch": 1024, "service.transport": "thread"}
    )
    operations = [
        (object_id, point)
        for object_id, points in _streams(car_dataset).items()
        for point in [*points[:30], None]  # None: close the object
    ][:100]
    assert len(operations) == 100

    pid = os.fork()
    if pid == 0:
        try:

            async def doomed() -> None:
                service = repro.serve(annotation_sources, config=config)
                await service.start()
                for object_id, point in operations:
                    if point is None:
                        await service.close_object(object_id)
                    else:
                        await service.ingest(object_id, point)
                os.kill(os.getpid(), signal.SIGKILL)

            asyncio.run(doomed())
            os._exit(3)
        except BaseException:
            os._exit(4)

    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status), f"child exited with status {status!r} instead"
    assert os.WTERMSIG(status) == signal.SIGKILL

    journal = IngestJournal(journal_dir, 2)
    pending = sorted(
        (record.object_id, record.kind, record.t) for record in journal.pending_records
    )
    journal.close()
    expected = sorted(
        (object_id, "close", 0.0) if point is None else (object_id, "event", point.t)
        for object_id, point in operations
    )
    assert pending == expected


def test_replaying_an_already_committed_wal_dedups_against_the_store(
    annotation_sources, car_dataset, tmp_path
):
    """Crash *after* commit but *before* rotation: the replayed trajectories
    are already in the store, so recovery skips them instead of duplicating."""
    journal_dir = str(tmp_path / "wal")
    store_path = str(tmp_path / "store.sqlite")
    backup_dir = tmp_path / "wal-backup"
    streams = _streams(car_dataset)
    config = _config(journal_dir)

    store = SemanticTrajectoryStore(store_path)
    service = repro.serve(
        annotation_sources, config=config, store=store, persist=True
    )

    async def run_and_snapshot_wal() -> None:
        async with service:
            for object_id in sorted(streams):
                for point in streams[object_id]:
                    await service.ingest(object_id, point)
                await service.close_object(object_id)
            # Snapshot the WAL as it looks just before drain commits+rotates —
            # exactly the on-disk state of a crash between the two steps.
            service.journal.sync()
            shutil.copytree(journal_dir, backup_dir)
            await service.drain()

    asyncio.run(run_and_snapshot_wal())
    committed_ids = store.trajectory_ids()
    committed_summary = store.stop_move_summary()
    assert committed_ids
    store.close()

    # Simulate the torn crash window: the commit survived, rotation did not.
    shutil.rmtree(journal_dir)
    shutil.copytree(backup_dir, journal_dir)

    reopened = SemanticTrajectoryStore(store_path)
    recovery = repro.serve(
        annotation_sources, config=config, store=reopened, persist=True
    )

    async def recover() -> None:
        async with recovery:
            await recovery.drain()

    asyncio.run(recover())
    assert recovery.failure_log.wal_replayed > 0
    assert recovery.stats.dedup_skipped == len(committed_ids)
    # Keep-first: the store still holds exactly the originally committed rows.
    assert reopened.trajectory_ids() == committed_ids
    assert reopened.stop_move_summary() == committed_summary
    reopened.close()
