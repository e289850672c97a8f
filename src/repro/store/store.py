"""SQLite-backed semantic trajectory store.

The store persists raw trajectories, episodes and their annotations, and
exposes the query helpers the analytics layer and the latency benchmark need.
It accepts ``":memory:"`` (the default) for tests and benchmarks or a file
path for durable storage.
"""

from __future__ import annotations

import json
import sqlite3
import time
from itertools import count, repeat
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.annotations import Annotation, GeographicReferenceAnnotation, ValueAnnotation
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import StoreError
from repro.core.points import RawTrajectory
from repro.store.schema import SCHEMA_STATEMENTS

if TYPE_CHECKING:  # pragma: no cover - metrics and faults are optional at runtime
    from repro.faults.failures import TrajectoryFailure
    from repro.faults.inject import FaultInjector
    from repro.obs.metrics import MetricsRegistry, StoreMetrics


class SemanticTrajectoryStore:
    """Persists trajectories, episodes and annotations in SQLite.

    The store is also a transaction scope, mirroring the semantics of
    :class:`sqlite3.Connection` itself: inside a ``with store:`` block every
    write is deferred into one transaction that is **committed on a clean
    exit and rolled back when the block raises**.  Scopes nest (the
    outermost one decides), and the engine's write-back path wraps each
    trajectory's persistence in one scope so a trajectory is never
    half-stored.  Leaving a scope does *not* close the connection — call
    :meth:`close` for that.
    """

    def __init__(self, path: str = ":memory:"):
        self._connection = sqlite3.connect(path)
        self._connection.execute("PRAGMA foreign_keys = ON")
        for statement in SCHEMA_STATEMENTS:
            self._connection.execute(statement)
        self._connection.commit()
        self._tx_depth = 0
        self._tx_failed = False
        self._metrics: Optional["StoreMetrics"] = None
        self._faults: Optional["FaultInjector"] = None

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish transaction and row counters into a metrics registry.

        Called by :meth:`Plan.compile` when the pipeline configuration enables
        metrics; an unbound store (the default) skips all counting.
        """
        from repro.obs.metrics import StoreMetrics  # deferred: keep store import light

        self._metrics = StoreMetrics(registry)

    def bind_faults(self, injector: "FaultInjector") -> None:
        """Arm commit-time fault injection (chaos runs only).

        Called by :meth:`Plan.compile` when an enabled injector is in play;
        every commit first consults the injector, which may raise
        :class:`~repro.core.errors.InjectedFault` instead.  The failed commit
        is rolled back, so a retry re-executes the writes from scratch
        without duplicating rows.
        """
        self._faults = injector

    def _fire_commit_fault(self) -> None:
        if self._faults is not None:
            self._faults.on_commit()

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "SemanticTrajectoryStore":
        self._tx_depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tx_depth -= 1
        if self._tx_depth > 0:
            if exc_type is not None:
                # An inner scope failed: its deferred writes cannot be rolled
                # back independently (one connection, one transaction), so
                # even if the caller swallows the exception the outer scope
                # must not commit the half-written state.
                self._tx_failed = True
            return  # inner scope: the outermost scope decides
        failed, self._tx_failed = self._tx_failed, False
        if exc_type is not None or failed:
            self._connection.rollback()
            if self._metrics is not None:
                self._metrics.rollbacks.inc()
            if exc_type is None:
                # A write failed mid-scope, its error was swallowed by the
                # caller and the scope exited cleanly: committing now would
                # persist an inconsistent prefix, so refuse loudly instead.
                raise StoreError("transaction scope failed earlier; rolled back")
        else:
            try:
                self._fire_commit_fault()
                self._connection.commit()
            except Exception:
                self._connection.rollback()
                if self._metrics is not None:
                    self._metrics.rollbacks.inc()
                raise
            if self._metrics is not None:
                self._metrics.commits.inc()

    @property
    def in_transaction_scope(self) -> bool:
        """True while inside a ``with store:`` deferred-commit scope."""
        return self._tx_depth > 0

    # ----------------------------------------------------- transaction plumbing
    def _commit(self) -> None:
        """Commit now, unless a surrounding scope defers it to scope exit."""
        if self._tx_depth == 0:
            try:
                self._fire_commit_fault()
                self._connection.commit()
            except Exception:
                self._connection.rollback()
                if self._metrics is not None:
                    self._metrics.rollbacks.inc()
                raise
            if self._metrics is not None:
                self._metrics.commits.inc()

    def _rollback(self) -> None:
        """Roll back after a failed write.

        Inside a scope this also discards the scope's earlier deferred
        writes, so the scope is marked failed and will not commit.
        """
        self._connection.rollback()
        if self._tx_depth > 0:
            # Not a terminal rollback: the outermost scope exit rolls back
            # (and counts) the whole failed transaction once.
            self._tx_failed = True
        elif self._metrics is not None:
            self._metrics.rollbacks.inc()

    # ------------------------------------------------------------------ writes
    def save_trajectory(self, trajectory: RawTrajectory, store_points: bool = True) -> None:
        """Persist a raw trajectory (and optionally all of its GPS records).

        The trajectory row and all of its GPS records are written in a single
        transaction, with the records inserted through one ``executemany``.
        """
        cursor = self._connection.cursor()
        try:
            self._write_trajectory(cursor, trajectory, store_points)
        except sqlite3.IntegrityError as error:
            self._rollback()
            raise StoreError(
                f"trajectory {trajectory.trajectory_id!r} is already stored"
            ) from error
        except sqlite3.Error:
            self._rollback()
            raise
        self._commit()
        if self._metrics is not None:
            self._metrics.observe_write(1 + (len(trajectory) if store_points else 0))

    def save_episode(self, episode: Episode) -> int:
        """Persist one episode (and its annotations); returns its store identifier."""
        return self.save_episodes([episode])[0]

    def save_episodes(self, episodes: Iterable[Episode]) -> List[int]:
        """Persist several episodes and their annotations; returns their identifiers.

        All episode rows plus a single batched ``executemany`` for every
        attached annotation go into one transaction — the write shape the
        streaming engine relies on for per-trajectory persistence throughput.
        """
        episodes = list(episodes)
        cursor = self._connection.cursor()
        try:
            episode_ids = self._write_episodes(cursor, episodes)
        except sqlite3.Error:
            self._rollback()
            raise
        self._commit()
        if self._metrics is not None:
            annotations = sum(len(episode.annotations) for episode in episodes)
            self._metrics.observe_write(len(episodes) + annotations)
        return episode_ids

    def save_annotated_trajectories(
        self,
        items: Iterable[Tuple[RawTrajectory, Sequence[Episode]]],
        store_points: bool = True,
    ) -> List[List[int]]:
        """Persist several ``(trajectory, episodes)`` pairs in one transaction.

        Rows are written in exactly the order the sequential pipeline produces
        them — trajectory row, its GPS records, its episode rows, their
        annotations, then the next trajectory — so autoincrement identifiers
        (and therefore the full store contents) match a single-writer run.
        This is the commit path of the sharded store writer: shards buffer
        their results and the merged batch lands here through the same
        ``executemany`` statements the incremental writers use, atomically.
        """
        cursor = self._connection.cursor()
        episode_ids: List[List[int]] = []
        rows_written = 0
        try:
            for trajectory, episodes in items:
                episodes = list(episodes)
                self._write_trajectory(cursor, trajectory, store_points)
                episode_ids.append(self._write_episodes(cursor, episodes))
                rows_written += 1 + (len(trajectory) if store_points else 0)
                rows_written += len(episodes)
                rows_written += sum(len(episode.annotations) for episode in episodes)
        except sqlite3.IntegrityError as error:
            self._rollback()
            raise StoreError(f"batched write rejected: {error}") from error
        except sqlite3.Error:
            self._rollback()
            raise
        self._commit()
        if self._metrics is not None:
            self._metrics.observe_write(rows_written)
        return episode_ids

    def save_annotations(self, episode_id: int, annotations: Sequence[Annotation]) -> None:
        """Persist annotations for an already-stored episode (one transaction)."""
        rows = [self._annotation_row(episode_id, annotation) for annotation in annotations]
        try:
            self._connection.executemany(
                "INSERT INTO annotations (episode_id, kind, place_id, category, label, value, "
                "confidence) VALUES (?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        except sqlite3.Error:
            self._rollback()
            raise
        self._commit()
        if self._metrics is not None:
            self._metrics.observe_write(len(rows))

    # -------------------------------------------------------------- quarantine
    def save_quarantined(self, failures: Iterable["TrajectoryFailure"]) -> List[int]:
        """Dead-letter failed trajectories; returns their quarantine row ids.

        Each row carries the failing stage, the exception repr, the attempt
        count and the **raw GPS events** (JSON ``[[x, y, t], ...]``) so a
        fixed pipeline can replay the trajectory later
        (:meth:`load_quarantined_trajectory`).  Callers quarantine *outside*
        transaction scopes (a rolled-back drain must not take the dead
        letters down with it), so the rows commit immediately.
        """
        cursor = self._connection.cursor()
        row_ids: List[int] = []
        rows = 0
        try:
            for failure in failures:
                trajectory = failure.trajectory
                cursor.execute(
                    "INSERT INTO quarantine (object_id, trajectory_id, stage, error, "
                    "attempts, quarantined_at, events) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        trajectory.object_id,
                        trajectory.trajectory_id,
                        failure.stage,
                        failure.error,
                        failure.attempts,
                        time.time(),
                        json.dumps(list(zip(trajectory.xs, trajectory.ys, trajectory.ts))),
                    ),
                )
                row_ids.append(int(cursor.lastrowid))
                rows += 1
        except sqlite3.Error:
            self._rollback()
            raise
        self._commit()
        if self._metrics is not None and rows:
            self._metrics.observe_write(rows)
        return row_ids

    def quarantine_count(self) -> int:
        """Number of quarantined trajectories."""
        return self._scalar("SELECT COUNT(*) FROM quarantine")

    def quarantined(self, object_id: Optional[str] = None) -> List[Dict[str, object]]:
        """Quarantine rows (as dictionaries), optionally for one object."""
        query = (
            "SELECT quarantine_id, object_id, trajectory_id, stage, error, attempts, "
            "quarantined_at, events FROM quarantine"
        )
        params: Tuple = ()
        if object_id is not None:
            query += " WHERE object_id = ?"
            params = (object_id,)
        rows = self._connection.execute(query + " ORDER BY quarantine_id", params).fetchall()
        keys = (
            "quarantine_id",
            "object_id",
            "trajectory_id",
            "stage",
            "error",
            "attempts",
            "quarantined_at",
            "events",
        )
        return [dict(zip(keys, row)) for row in rows]

    def load_quarantined_trajectory(self, quarantine_id: int) -> RawTrajectory:
        """Rebuild the raw trajectory a quarantine row carries, for replay."""
        row = self._connection.execute(
            "SELECT object_id, trajectory_id, events FROM quarantine WHERE quarantine_id = ?",
            (quarantine_id,),
        ).fetchone()
        if row is None:
            raise StoreError(f"unknown quarantine row {quarantine_id}")
        events = json.loads(row[2])
        if not events:
            raise StoreError(f"quarantine row {quarantine_id} carries no events")
        xs, ys, ts = zip(*events)
        return RawTrajectory.from_columns(xs, ys, ts, object_id=row[0], trajectory_id=row[1])

    def release_quarantined(self, quarantine_id: int) -> None:
        """Delete one quarantine row (after a successful replay)."""
        cursor = self._connection.execute(
            "DELETE FROM quarantine WHERE quarantine_id = ?", (quarantine_id,)
        )
        if cursor.rowcount == 0:
            raise StoreError(f"unknown quarantine row {quarantine_id}")
        self._commit()

    @staticmethod
    def _write_trajectory(
        cursor: sqlite3.Cursor, trajectory: RawTrajectory, store_points: bool
    ) -> None:
        """Write one trajectory row (and its GPS records) on an open cursor.

        Shared by the incremental and batched write paths so the statements
        (and therefore the row shapes) cannot drift apart; transaction
        handling stays with the caller.
        """
        cursor.execute(
            "INSERT INTO trajectories (trajectory_id, object_id, start_time, end_time, "
            "point_count, path_length) VALUES (?, ?, ?, ?, ?, ?)",
            (
                trajectory.trajectory_id,
                trajectory.object_id,
                trajectory.start_time,
                trajectory.end_time,
                len(trajectory),
                trajectory.length(),
            ),
        )
        if store_points:
            trajectory_id = trajectory.trajectory_id
            cursor.executemany(
                "INSERT INTO gps_records (trajectory_id, seq, x, y, t) VALUES (?, ?, ?, ?, ?)",
                zip(
                    repeat(trajectory_id),
                    count(),
                    trajectory.xs,
                    trajectory.ys,
                    trajectory.ts,
                ),
            )

    @classmethod
    def _write_episodes(cls, cursor: sqlite3.Cursor, episodes: Iterable[Episode]) -> List[int]:
        """Write episode rows plus one batched annotation ``executemany``."""
        episode_ids: List[int] = []
        annotation_rows: List[Tuple] = []
        for episode in episodes:
            center = episode.center()
            cursor.execute(
                "INSERT INTO episodes (trajectory_id, kind, start_index, end_index, time_in, "
                "time_out, center_x, center_y) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    episode.trajectory.trajectory_id,
                    episode.kind.value,
                    episode.start_index,
                    episode.end_index,
                    episode.time_in,
                    episode.time_out,
                    center.x,
                    center.y,
                ),
            )
            episode_id = int(cursor.lastrowid)
            episode_ids.append(episode_id)
            annotation_rows.extend(
                cls._annotation_row(episode_id, annotation)
                for annotation in episode.annotations
            )
        if annotation_rows:
            cursor.executemany(
                "INSERT INTO annotations (episode_id, kind, place_id, category, label, "
                "value, confidence) VALUES (?, ?, ?, ?, ?, ?, ?)",
                annotation_rows,
            )
        return episode_ids

    @staticmethod
    def _annotation_row(episode_id: int, annotation: Annotation) -> Tuple:
        place_id = None
        category = None
        label = None
        value = None
        if isinstance(annotation, GeographicReferenceAnnotation):
            place_id = annotation.place_id
            category = annotation.category
        elif isinstance(annotation, ValueAnnotation):
            label = annotation.label
            value = str(annotation.value)
        return (
            episode_id,
            annotation.kind.value,
            place_id,
            category,
            label,
            value,
            annotation.confidence,
        )

    # ------------------------------------------------------------------- reads
    def trajectory_count(self) -> int:
        """Number of stored trajectories."""
        return self._scalar("SELECT COUNT(*) FROM trajectories")

    def gps_record_count(self) -> int:
        """Number of stored GPS records."""
        return self._scalar("SELECT COUNT(*) FROM gps_records")

    def episode_count(self, kind: Optional[EpisodeKind] = None) -> int:
        """Number of stored episodes, optionally filtered by kind."""
        if kind is None:
            return self._scalar("SELECT COUNT(*) FROM episodes")
        return self._scalar("SELECT COUNT(*) FROM episodes WHERE kind = ?", (kind.value,))

    def annotation_count(self) -> int:
        """Number of stored annotations."""
        return self._scalar("SELECT COUNT(*) FROM annotations")

    def has_trajectory(self, trajectory_id: str) -> bool:
        """Whether a trajectory is already committed (WAL-replay dedup)."""
        return bool(
            self._scalar(
                "SELECT COUNT(*) FROM trajectories WHERE trajectory_id = ?", (trajectory_id,)
            )
        )

    def load_trajectory(self, trajectory_id: str) -> RawTrajectory:
        """Reconstruct a raw trajectory from its stored GPS records."""
        meta = self._connection.execute(
            "SELECT object_id FROM trajectories WHERE trajectory_id = ?", (trajectory_id,)
        ).fetchone()
        if meta is None:
            raise StoreError(f"unknown trajectory {trajectory_id!r}")
        rows = self._connection.execute(
            "SELECT x, y, t FROM gps_records WHERE trajectory_id = ? ORDER BY seq",
            (trajectory_id,),
        ).fetchall()
        if not rows:
            raise StoreError(f"trajectory {trajectory_id!r} was stored without GPS records")
        xs, ys, ts = zip(*rows)
        return RawTrajectory.from_columns(
            xs, ys, ts, object_id=meta[0], trajectory_id=trajectory_id
        )

    def trajectory_ids(self) -> List[str]:
        """Identifiers of all stored trajectories."""
        rows = self._connection.execute(
            "SELECT trajectory_id FROM trajectories ORDER BY trajectory_id"
        ).fetchall()
        return [row[0] for row in rows]

    def episodes_for(self, trajectory_id: str) -> List[Dict[str, object]]:
        """Episode rows (as dictionaries) for one trajectory, in time order."""
        rows = self._connection.execute(
            "SELECT episode_id, kind, start_index, end_index, time_in, time_out, center_x, "
            "center_y FROM episodes WHERE trajectory_id = ? ORDER BY time_in",
            (trajectory_id,),
        ).fetchall()
        keys = (
            "episode_id",
            "kind",
            "start_index",
            "end_index",
            "time_in",
            "time_out",
            "center_x",
            "center_y",
        )
        return [dict(zip(keys, row)) for row in rows]

    def annotations_for(self, episode_id: int) -> List[Dict[str, object]]:
        """Annotation rows (as dictionaries) for one stored episode."""
        rows = self._connection.execute(
            "SELECT kind, place_id, category, label, value, confidence FROM annotations "
            "WHERE episode_id = ? ORDER BY annotation_id",
            (episode_id,),
        ).fetchall()
        keys = ("kind", "place_id", "category", "label", "value", "confidence")
        return [dict(zip(keys, row)) for row in rows]

    def category_histogram(self, annotation_kind: Optional[str] = None) -> Dict[str, int]:
        """Number of annotations per category, optionally filtered by annotation kind."""
        if annotation_kind is None:
            rows = self._connection.execute(
                "SELECT category, COUNT(*) FROM annotations WHERE category IS NOT NULL "
                "GROUP BY category"
            ).fetchall()
        else:
            rows = self._connection.execute(
                "SELECT category, COUNT(*) FROM annotations WHERE category IS NOT NULL "
                "AND kind = ? GROUP BY category",
                (annotation_kind,),
            ).fetchall()
        return {row[0]: row[1] for row in rows}

    def stop_move_summary(self) -> Dict[str, int]:
        """Counts of stored trajectories, GPS records, stops and moves."""
        return {
            "trajectories": self.trajectory_count(),
            "gps_records": self.gps_record_count(),
            "stops": self.episode_count(EpisodeKind.STOP),
            "moves": self.episode_count(EpisodeKind.MOVE),
        }

    # --------------------------------------------------------------- internals
    def _scalar(self, query: str, params: Tuple = ()) -> int:
        row = self._connection.execute(query, params).fetchone()
        return int(row[0]) if row and row[0] is not None else 0
