"""Relational schema of the semantic trajectory store.

Four tables mirror the paper's dedicated PostGIS tables:

* ``gps_records``      — raw fixes, keyed by trajectory and sequence index;
* ``trajectories``     — one row per raw trajectory with summary statistics;
* ``episodes``         — stop/move episodes with their point range and times;
* ``annotations``      — annotations attached to episodes (place links and
  value annotations), one row per annotation.

A fifth, operational table backs the fault-tolerance layer:

* ``quarantine``       — dead-lettered trajectories the failure policy gave
  up on, carrying the failing stage, the exception repr, the attempt count
  and the raw GPS events (JSON) so a fixed pipeline can replay them.
"""

from __future__ import annotations

from typing import Tuple

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
    CREATE TABLE IF NOT EXISTS gps_records (
        trajectory_id TEXT NOT NULL,
        seq           INTEGER NOT NULL,
        x             REAL NOT NULL,
        y             REAL NOT NULL,
        t             REAL NOT NULL,
        PRIMARY KEY (trajectory_id, seq),
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
    # ``gps_records`` needs no index of its own: its primary key's index
    # (``sqlite_autoindex_gps_records_1``) leads with ``trajectory_id`` and
    # serves both the per-trajectory read ordered by ``seq`` and the count.
    "CREATE INDEX IF NOT EXISTS idx_episodes_trajectory ON episodes(trajectory_id)",
    "CREATE INDEX IF NOT EXISTS idx_episodes_kind ON episodes(kind)",
    "CREATE INDEX IF NOT EXISTS idx_annotations_episode ON annotations(episode_id)",
    "CREATE INDEX IF NOT EXISTS idx_annotations_category ON annotations(category)",
    "CREATE INDEX IF NOT EXISTS idx_quarantine_object ON quarantine(object_id)",
)
