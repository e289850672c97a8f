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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.annotations import Annotation, GeographicReferenceAnnotation, ValueAnnotation
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import StoreError
from repro.core.points import RawTrajectory
from repro.store.schema import INVARIANTS, apply_schema, pack_column, unpack_column

if TYPE_CHECKING:  # pragma: no cover - metrics and faults are optional at runtime
    from repro.faults.failures import TrajectoryFailure
    from repro.faults.inject import FaultInjector
    from repro.obs.metrics import MetricsRegistry, StoreMetrics

#: What SQLite says when a second row with a stored ``trajectory_id`` arrives.
_DUPLICATE_TRAJECTORY = "UNIQUE constraint failed: trajectories.trajectory_id"

#: The per-trajectory read: the object and the three packed columns, one query.
LOAD_TRAJECTORY = (
    "SELECT t.object_id, f.xs, f.ys, f.ts FROM trajectories AS t "
    "LEFT JOIN trajectory_fixes AS f ON f.trajectory_id = t.trajectory_id "
    "WHERE t.trajectory_id = ?"
)


def _last_row_id(cursor: sqlite3.Cursor) -> int:
    """The row id the cursor's last ``INSERT`` assigned."""
    row_id = cursor.lastrowid
    if row_id is None:
        raise StoreError("an INSERT assigned no row id")
    return row_id


class SemanticTrajectoryStore:
    """Persists trajectories, episodes and annotations in SQLite.

    The store is also a transaction scope, mirroring the semantics of
    :class:`sqlite3.Connection` itself: a ``with store:`` block is **committed
    on a clean exit and rolled back when the block raises**.  Each scope is
    a SQLite savepoint, so scopes nest: a failed scope undoes its own writes
    and nothing else, however deep it sits, and the outermost release
    commits.  Every write method runs in a scope of its own, and the
    engine's write-back path wraps each chunk of trajectories in one, so no
    trajectory is ever half-stored.  Leaving a scope does *not* close the
    connection — call :meth:`close` for that.
    """

    def __init__(self, path: str = ":memory:"):
        self._connection = sqlite3.connect(path)
        self._connection.execute("PRAGMA foreign_keys = ON")
        apply_schema(self._connection)
        self._savepoints = 0
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

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def check_invariants(self) -> List[Tuple[str, Tuple]]:
        """Every row that breaks one of the store's invariants, with its name.

        Runs the fixed :data:`~repro.store.schema.INVARIANTS` queries; an
        empty list means the store is consistent.
        """
        return [
            (name, tuple(row))
            for name, query in INVARIANTS
            for row in self._connection.execute(query).fetchall()
        ]

    def __enter__(self) -> "SemanticTrajectoryStore":
        self._savepoints += 1
        self._connection.execute(f"SAVEPOINT s{self._savepoints}")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        depth, self._savepoints = self._savepoints, self._savepoints - 1
        if exc_type is not None:
            self._undo(depth)
            return
        try:
            if depth == 1 and self._faults is not None:
                self._faults.on_commit()
            self._connection.execute(f"RELEASE s{depth}")  # the outermost release commits
        except BaseException:
            self._undo(depth)
            raise
        if depth == 1 and self._metrics is not None:
            self._metrics.commits.inc()

    def _undo(self, depth: int) -> None:
        """Roll savepoint ``s<depth>`` back to its start and release it."""
        self._connection.execute(f"ROLLBACK TO s{depth}")
        self._connection.execute(f"RELEASE s{depth}")
        if depth == 1 and self._metrics is not None:
            self._metrics.rollbacks.inc()

    @property
    def in_transaction_scope(self) -> bool:
        """True while inside a ``with store:`` scope."""
        return self._savepoints > 0

    # ------------------------------------------------------------------ writes
    def save_trajectory(self, trajectory: RawTrajectory, store_points: bool = True) -> None:
        """Persist a raw trajectory (and optionally all of its GPS records).

        The trajectory row and its fixes row are written in a single
        transaction.  A duplicate ``trajectory_id`` raises :class:`StoreError`
        "already stored"; any other rejected row (a NaN coordinate makes a
        NaN ``path_length``, which SQLite binds as NULL) raises one naming the
        failed constraint.
        """
        try:
            with self:
                self._write_trajectory(self._connection.cursor(), trajectory, store_points)
        except sqlite3.IntegrityError as error:
            if str(error) == _DUPLICATE_TRAJECTORY:
                message = f"trajectory {trajectory.trajectory_id!r} is already stored"
            else:
                message = f"trajectory {trajectory.trajectory_id!r} rejected: {error}"
            raise StoreError(message) from error
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
        with self:
            episode_ids = self._write_episodes(self._connection.cursor(), episodes)
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
        them — trajectory row, its fixes row, its episode rows, their
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
            with self:
                for trajectory, episodes in items:
                    episodes = list(episodes)
                    self._write_trajectory(cursor, trajectory, store_points)
                    episode_ids.append(self._write_episodes(cursor, episodes))
                    rows_written += 1 + (len(trajectory) if store_points else 0)
                    rows_written += len(episodes)
                    rows_written += sum(len(episode.annotations) for episode in episodes)
        except sqlite3.IntegrityError as error:
            raise StoreError(f"batched write rejected: {error}") from error
        if self._metrics is not None:
            self._metrics.observe_write(rows_written)
        return episode_ids

    # -------------------------------------------------------------- quarantine
    def save_quarantined(self, failures: Iterable["TrajectoryFailure"]) -> List[int]:
        """Dead-letter failed trajectories; returns their quarantine row ids.

        Each row carries the failing stage, the exception repr, the attempt
        count and the **raw GPS events** (JSON ``[[x, y, t], ...]``) so a
        fixed pipeline can replay the trajectory later
        (:meth:`load_quarantined_trajectory`).  The rows are written in a
        scope of their own: outside any other scope they commit at once;
        inside a caller's scope they commit with it, and a failed scope of
        the caller's (not theirs) is all that can undo them.
        """
        cursor = self._connection.cursor()
        row_ids: List[int] = []
        with self:
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
                row_ids.append(_last_row_id(cursor))
        if self._metrics is not None and row_ids:
            self._metrics.observe_write(len(row_ids))
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
        with self:
            cursor = self._connection.execute(
                "DELETE FROM quarantine WHERE quarantine_id = ?", (quarantine_id,)
            )
            if cursor.rowcount == 0:
                raise StoreError(f"unknown quarantine row {quarantine_id}")

    @staticmethod
    def _write_trajectory(
        cursor: sqlite3.Cursor, trajectory: RawTrajectory, store_points: bool
    ) -> None:
        """Write one trajectory row (and its fixes row) on an open cursor.

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
                # float(): an int timestamp past int64 cannot bind as INTEGER.
                float(trajectory.start_time),
                float(trajectory.end_time),
                len(trajectory),
                trajectory.length(),
            ),
        )
        if store_points:
            cursor.execute(
                "INSERT INTO trajectory_fixes (trajectory_id, fix_count, xs, ys, ts) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    trajectory.trajectory_id,
                    len(trajectory),
                    pack_column(trajectory.xs),
                    pack_column(trajectory.ys),
                    pack_column(trajectory.ts),
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
            episode_id = _last_row_id(cursor)
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
        """Number of stored GPS records (fixes)."""
        return self._scalar("SELECT SUM(fix_count) FROM trajectory_fixes")

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
        """Reconstruct a raw trajectory from its stored fixes row."""
        row = self._connection.execute(LOAD_TRAJECTORY, (trajectory_id,)).fetchone()
        if row is None:
            raise StoreError(f"unknown trajectory {trajectory_id!r}")
        object_id, xs, ys, ts = row
        if xs is None:
            raise StoreError(f"trajectory {trajectory_id!r} was stored without GPS records")
        return RawTrajectory.from_columns(
            unpack_column(xs),
            unpack_column(ys),
            unpack_column(ts),
            object_id=object_id,
            trajectory_id=trajectory_id,
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
