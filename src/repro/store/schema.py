"""Relational schema of the semantic trajectory store.

Four tables mirror the paper's dedicated PostGIS tables:

* ``trajectories``     — one row per raw trajectory with summary statistics;
* ``trajectory_fixes`` — the raw GPS fixes, one row per trajectory: the fix
  count and the ``xs`` / ``ys`` / ``ts`` columns, each packed as
  little-endian float64 (:func:`pack_column`), so every float — ``-0.0``,
  infinities and subnormals included — reads back bit for bit;
* ``episodes``         — stop/move episodes with their point range and times;
* ``annotations``      — annotations attached to episodes (place links and
  value annotations), one row per annotation.

A fifth, operational table backs the fault-tolerance layer:

* ``quarantine``       — dead-lettered trajectories the failure policy gave
  up on, carrying the failing stage, the exception repr, the attempt count
  and the raw GPS events (JSON) so a fixed pipeline can replay them.

:data:`INVARIANTS` are the queries a consistent store answers with no rows
(``SemanticTrajectoryStore.check_invariants``; ``docs/net.md``).

:func:`apply_schema` creates the tables in one transaction.  A file written
before ``trajectory_fixes`` existed keeps one ``gps_records`` row per fix
(``trajectory_id``, ``seq``, ``x``, ``y``, ``t``); the same transaction packs
those rows, in ``seq`` order, into ``trajectory_fixes`` and drops the old
table, so an upgraded file has one read path.
"""

from __future__ import annotations

import sqlite3
import sys
from array import array
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, List, Tuple

from repro.core.errors import StoreError

SCHEMA_STATEMENTS: Tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS trajectories (
        trajectory_id TEXT PRIMARY KEY,
        object_id     TEXT NOT NULL,
        start_time    REAL NOT NULL,
        end_time      REAL NOT NULL,
        point_count   INTEGER NOT NULL,
        path_length   REAL NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS trajectory_fixes (
        trajectory_id TEXT PRIMARY KEY,
        fix_count     INTEGER NOT NULL,
        xs            BLOB NOT NULL,
        ys            BLOB NOT NULL,
        ts            BLOB NOT NULL,
        FOREIGN KEY (trajectory_id) REFERENCES trajectories(trajectory_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS episodes (
        episode_id    INTEGER PRIMARY KEY AUTOINCREMENT,
        trajectory_id TEXT NOT NULL,
        kind          TEXT NOT NULL CHECK (kind IN ('stop', 'move')),
        start_index   INTEGER NOT NULL,
        end_index     INTEGER NOT NULL,
        time_in       REAL NOT NULL,
        time_out      REAL NOT NULL,
        center_x      REAL,
        center_y      REAL,
        FOREIGN KEY (trajectory_id) REFERENCES trajectories(trajectory_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS annotations (
        annotation_id INTEGER PRIMARY KEY AUTOINCREMENT,
        episode_id    INTEGER NOT NULL,
        kind          TEXT NOT NULL,
        place_id      TEXT,
        category      TEXT,
        label         TEXT,
        value         TEXT,
        confidence    REAL NOT NULL DEFAULT 1.0,
        FOREIGN KEY (episode_id) REFERENCES episodes(episode_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS quarantine (
        quarantine_id  INTEGER PRIMARY KEY AUTOINCREMENT,
        object_id      TEXT NOT NULL,
        trajectory_id  TEXT NOT NULL,
        stage          TEXT NOT NULL,
        error          TEXT NOT NULL,
        attempts       INTEGER NOT NULL,
        quarantined_at REAL NOT NULL,
        events         TEXT NOT NULL
    )
    """,
    # ``trajectory_fixes`` needs no index of its own: its primary key's index
    # (``sqlite_autoindex_trajectory_fixes_1``) serves the per-trajectory read.
    "CREATE INDEX IF NOT EXISTS idx_episodes_trajectory ON episodes(trajectory_id)",
    "CREATE INDEX IF NOT EXISTS idx_episodes_kind ON episodes(kind)",
    "CREATE INDEX IF NOT EXISTS idx_annotations_episode ON annotations(episode_id)",
    "CREATE INDEX IF NOT EXISTS idx_annotations_category ON annotations(category)",
    "CREATE INDEX IF NOT EXISTS idx_quarantine_object ON quarantine(object_id)",
)

#: The store's invariants as named queries; each returns the rows that break it.
INVARIANTS: Tuple[Tuple[str, str], ...] = (
    # Every fixes row, episode and annotation has its parent row.
    ("foreign_keys", "PRAGMA foreign_key_check"),
    (
        "fixes_match_their_trajectory",
        "SELECT f.trajectory_id, f.fix_count, t.point_count FROM trajectory_fixes AS f "
        "JOIN trajectories AS t USING (trajectory_id) WHERE (length(f.xs), length(f.ys), "
        "length(f.ts), f.fix_count) != (8 * f.fix_count, 8 * f.fix_count, 8 * f.fix_count, "
        "t.point_count)",
    ),
    (
        # An episode covers the fixes [start_index, end_index): end is exclusive.
        "episodes_within_their_trajectory",
        "SELECT e.episode_id, e.start_index, e.end_index, t.point_count FROM episodes AS e "
        "JOIN trajectories AS t USING (trajectory_id) "
        "WHERE e.start_index < 0 OR e.end_index <= e.start_index OR e.end_index > t.point_count",
    ),
    (
        "quarantined_never_committed",
        "SELECT q.quarantine_id, q.trajectory_id FROM quarantine AS q "
        "JOIN trajectories AS t USING (trajectory_id)",
    ),
)

_SWAP = sys.byteorder != "little"


def pack_column(column: Iterable[float]) -> bytes:
    """One coordinate column as a little-endian float64 blob."""
    packed = array("d", column)
    if _SWAP:
        packed.byteswap()
    return packed.tobytes()


def unpack_column(blob: bytes) -> List[float]:
    """The float list a :func:`pack_column` blob holds."""
    packed = array("d")
    packed.frombytes(blob)
    if _SWAP:
        packed.byteswap()
    return packed.tolist()


def apply_schema(connection: sqlite3.Connection) -> None:
    """Create the tables and migrate an old ``gps_records`` table, in one transaction."""
    connection.execute("BEGIN")
    with connection:  # commits, or rolls the whole open back
        for statement in SCHEMA_STATEMENTS:
            connection.execute(statement)
        if connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'gps_records'"
        ).fetchone():
            _migrate_gps_records(connection)


def _migrate_gps_records(connection: sqlite3.Connection) -> None:
    """Pack the old one-row-per-fix table into ``trajectory_fixes`` and drop it."""
    rows = connection.execute(
        "SELECT trajectory_id, x, y, t FROM gps_records ORDER BY trajectory_id, seq"
    )

    def packed() -> Iterator[Tuple[str, int, bytes, bytes, bytes]]:
        for trajectory_id, fixes in groupby(rows, key=itemgetter(0)):
            _, xs, ys, ts = zip(*fixes)
            yield trajectory_id, len(xs), pack_column(xs), pack_column(ys), pack_column(ts)

    try:
        connection.executemany(
            "INSERT INTO trajectory_fixes (trajectory_id, fix_count, xs, ys, ts) "
            "VALUES (?, ?, ?, ?, ?)",
            packed(),
        )
    except sqlite3.IntegrityError as error:
        message = f"cannot migrate gps_records to trajectory_fixes: {error}"
        raise StoreError(message) from error
    connection.execute("DROP TABLE gps_records")
