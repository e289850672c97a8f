"""Unit tests for the semantic trajectory store."""

from __future__ import annotations

import math
import os
import random
import sqlite3
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.annotations import activity_annotation, region_annotation, transport_mode_annotation
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import StoreError
from repro.core.places import RegionOfInterest
from repro.core.points import RawTrajectory, build_trajectory, path_length
from repro.geometry.primitives import BoundingBox
from repro.store.schema import SCHEMA_STATEMENTS
from repro.store.store import LOAD_TRAJECTORY, SemanticTrajectoryStore


@pytest.fixture()
def store():
    s = SemanticTrajectoryStore()
    yield s
    s.close()


@pytest.fixture()
def trajectory():
    return build_trajectory(
        [(float(i * 10), 0.0, float(i * 5)) for i in range(20)],
        object_id="obj",
        trajectory_id="traj-1",
    )


def _region() -> RegionOfInterest:
    return RegionOfInterest(
        place_id="cell-1", name="cell", category="1.2", extent=BoundingBox(0, 0, 100, 100)
    )


class TestTrajectories:
    def test_save_and_count(self, store, trajectory):
        store.save_trajectory(trajectory)
        assert store.trajectory_count() == 1
        assert store.gps_record_count() == 20
        assert store.trajectory_ids() == ["traj-1"]

    def test_duplicate_save_rejected(self, store, trajectory):
        store.save_trajectory(trajectory)
        with pytest.raises(StoreError, match="'traj-1' is already stored"):
            store.save_trajectory(trajectory)

    def test_a_nan_coordinate_names_the_failed_constraint(self, store):
        """A NaN ``path_length`` binds as NULL: rejected, but not as a duplicate."""
        bad = RawTrajectory.from_columns(
            [0.0, math.nan], [0.0, 0.0], [0.0, 1.0], object_id="o", trajectory_id="t"
        )
        with pytest.raises(StoreError) as raised:
            store.save_trajectory(bad)
        message = str(raised.value)
        assert "NOT NULL constraint failed: trajectories.path_length" in message
        assert "already stored" not in message
        assert not store.has_trajectory("t")
        assert store.trajectory_count() == 0

    def test_round_trip(self, store, trajectory):
        store.save_trajectory(trajectory)
        loaded = store.load_trajectory("traj-1")
        assert len(loaded) == len(trajectory)
        assert loaded.object_id == "obj"
        assert loaded[3].as_tuple() == trajectory[3].as_tuple()

    def test_load_unknown_trajectory(self, store):
        with pytest.raises(StoreError):
            store.load_trajectory("missing")

    def test_save_without_points(self, store, trajectory):
        store.save_trajectory(trajectory, store_points=False)
        assert store.gps_record_count() == 0
        with pytest.raises(StoreError, match="stored without GPS records"):
            store.load_trajectory("traj-1")


#: A coordinate the store must keep bit for bit: any non-NaN float (finite,
#: ``±inf``, ``±0.0``, subnormals) or an int, which reads back as ``float(v)``.
_COORDINATE = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.integers(min_value=-(2**63), max_value=2**63),
)


@st.composite
def _columns(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    xs = draw(st.lists(_COORDINATE, min_size=size, max_size=size))
    ys = draw(st.lists(_COORDINATE, min_size=size, max_size=size))
    ts = sorted(draw(st.lists(_COORDINATE, min_size=size, max_size=size)))
    # Two equal infinities in a row make a NaN ``path_length``, which the
    # trajectories table rejects (see the NaN test above).
    assume(not math.isnan(path_length(xs, ys)))
    return xs, ys, ts


def _reprs(trajectory):
    return [[repr(v) for v in column] for column in (trajectory.xs, trajectory.ys, trajectory.ts)]


@settings(max_examples=150, deadline=None)
@given(_columns(), _columns())
@example(([-0.0, 1], [0.0, -0.0], [-0.0, 2**63]), ([5e-324], [-math.inf], [2**63]))
def test_every_fix_round_trips_by_repr(first, second):
    """Both write paths, and a close and reopen, give back ``float(v)`` of every fix."""
    expected = {
        "one": [[repr(float(v)) for v in column] for column in first],
        "batch": [[repr(float(v)) for v in column] for column in second],
    }
    one = RawTrajectory.from_columns(*first, object_id="o", trajectory_id="one")
    batch = RawTrajectory.from_columns(*second, object_id="o", trajectory_id="batch")
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "store.db")
        store = SemanticTrajectoryStore(path)
        store.save_trajectory(one)
        store.save_annotated_trajectories([(batch, [])])
        for trajectory_id, columns in expected.items():
            assert _reprs(store.load_trajectory(trajectory_id)) == columns
        store.close()
        reopened = SemanticTrajectoryStore(path)
        for trajectory_id, columns in expected.items():
            assert _reprs(reopened.load_trajectory(trajectory_id)) == columns
        assert reopened.gps_record_count() == len(first[0]) + len(second[0])
        reopened.close()


class TestEpisodes:
    def test_save_episode_with_annotations(self, store, trajectory):
        store.save_trajectory(trajectory)
        episode = Episode(EpisodeKind.STOP, trajectory, 0, 5)
        episode.add_annotation(region_annotation(_region()))
        episode.add_annotation(activity_annotation("shopping"))
        episode_id = store.save_episode(episode)
        annotations = store.annotations_for(episode_id)
        assert len(annotations) == 2
        kinds = {a["kind"] for a in annotations}
        assert kinds == {"region", "activity"}
        assert store.annotation_count() == 2

    def test_save_episodes_and_counts(self, store, trajectory):
        store.save_trajectory(trajectory)
        episodes = [
            Episode(EpisodeKind.STOP, trajectory, 0, 5),
            Episode(EpisodeKind.MOVE, trajectory, 5, 20),
        ]
        ids = store.save_episodes(episodes)
        assert len(ids) == 2
        assert store.episode_count() == 2
        assert store.episode_count(EpisodeKind.STOP) == 1
        assert store.episode_count(EpisodeKind.MOVE) == 1

    def test_episodes_for_trajectory_in_time_order(self, store, trajectory):
        store.save_trajectory(trajectory)
        store.save_episode(Episode(EpisodeKind.MOVE, trajectory, 5, 20))
        store.save_episode(Episode(EpisodeKind.STOP, trajectory, 0, 5))
        rows = store.episodes_for("traj-1")
        assert [row["kind"] for row in rows] == ["stop", "move"]
        assert rows[0]["time_in"] <= rows[1]["time_in"]

    def test_category_histogram(self, store, trajectory):
        store.save_trajectory(trajectory)
        stop = Episode(EpisodeKind.STOP, trajectory, 0, 5)
        stop.add_annotation(region_annotation(_region()))
        move = Episode(EpisodeKind.MOVE, trajectory, 5, 20)
        move.add_annotation(transport_mode_annotation("bus"))
        store.save_episodes([stop, move])
        histogram = store.category_histogram()
        assert histogram == {"1.2": 1}
        assert store.category_histogram("region") == {"1.2": 1}
        assert store.category_histogram("line") == {}

    def test_stop_move_summary(self, store, trajectory):
        store.save_trajectory(trajectory)
        store.save_episodes(
            [
                Episode(EpisodeKind.STOP, trajectory, 0, 5),
                Episode(EpisodeKind.MOVE, trajectory, 5, 20),
            ]
        )
        summary = store.stop_move_summary()
        assert summary == {"trajectories": 1, "gps_records": 20, "stops": 1, "moves": 1}

    def test_annotations_for_unknown_episode_is_empty(self, store):
        assert store.annotations_for(999) == []


class TestTransactionScope:
    """``with store:`` defers commits: commit on clean exit, rollback on error."""

    def test_clean_exit_commits(self, store, trajectory):
        with store:
            store.save_trajectory(trajectory)
            store.save_episode(Episode(EpisodeKind.STOP, trajectory, 0, 5))
            assert store.in_transaction_scope
        assert not store.in_transaction_scope
        assert store.trajectory_count() == 1
        assert store.episode_count() == 1

    def test_exception_rolls_back_everything(self, store, trajectory):
        with pytest.raises(RuntimeError):
            with store:
                store.save_trajectory(trajectory)
                store.save_episode(Episode(EpisodeKind.STOP, trajectory, 0, 5))
                raise RuntimeError("annotation stage blew up")
        assert store.trajectory_count() == 0
        assert store.episode_count() == 0

    def test_nested_scopes_commit_once_at_the_outermost_exit(self, store, trajectory):
        with store:
            store.save_trajectory(trajectory)
            with store:
                store.save_episode(Episode(EpisodeKind.MOVE, trajectory, 0, 19))
            # Still inside the outer scope: nothing is committed yet, and the
            # scope survives the inner exit.
            assert store.in_transaction_scope
        assert store.trajectory_count() == 1
        assert store.episode_count() == 1

    def test_inner_exception_rolls_back_the_whole_scope(self, store, trajectory):
        with pytest.raises(RuntimeError):
            with store:
                store.save_trajectory(trajectory)
                with store:
                    raise RuntimeError("inner stage failed")
        assert store.trajectory_count() == 0

    def test_swallowed_write_failure_undoes_only_its_own_write(self, store, trajectory):
        """A failed write is its own savepoint: swallowed, it leaves the scope whole."""
        other = build_trajectory(
            [(0.0, float(i), float(i)) for i in range(5)], object_id="obj", trajectory_id="traj-2"
        )
        with store:
            store.save_trajectory(trajectory)
            with pytest.raises(StoreError, match="batched write rejected"):
                # traj-2's rows go in before the duplicate traj-1 fails the write.
                store.save_annotated_trajectories([(other, []), (trajectory, [])])
            assert store.in_transaction_scope
        assert store.trajectory_ids() == ["traj-1"]
        assert store.gps_record_count() == len(trajectory)
        assert store.check_invariants() == []

    def test_writes_outside_any_scope_commit_immediately(self, store, trajectory):
        store.save_trajectory(trajectory)
        assert store.trajectory_count() == 1

    def test_swallowed_inner_scope_failure_undoes_only_the_inner_scope(
        self, store, trajectory
    ):
        """A swallowed inner-scope failure rolls back the inner scope's writes only."""
        with store:
            store.save_trajectory(trajectory)
            try:
                with store:
                    store.save_episode(Episode(EpisodeKind.STOP, trajectory, 0, 5))
                    with store:
                        store.save_episode(Episode(EpisodeKind.MOVE, trajectory, 5, 19))
                    raise RuntimeError("inner stage failed")
            except RuntimeError:
                pass  # the caller swallows it; the outer scope carries on
            store.save_episode(Episode(EpisodeKind.MOVE, trajectory, 0, 19))
        assert store.trajectory_count() == 1
        assert [
            (row["kind"], row["start_index"], row["end_index"])
            for row in store.episodes_for("traj-1")
        ] == [("move", 0, 19)]
        assert store.check_invariants() == []


#: The fixes table as files written before ``trajectory_fixes`` existed have it.
_PARENT_GPS_RECORDS = """
    CREATE TABLE gps_records (
        trajectory_id TEXT NOT NULL,
        seq           INTEGER NOT NULL,
        x             REAL NOT NULL,
        y             REAL NOT NULL,
        t             REAL NOT NULL,
        PRIMARY KEY (trajectory_id, seq),
        FOREIGN KEY (trajectory_id) REFERENCES trajectories(trajectory_id)
    )
"""


class TestInvariants:
    """Each invariant query returns the row that breaks it, and only that one."""

    BREAKS = (
        (
            "foreign_keys",
            "INSERT INTO episodes (trajectory_id, kind, start_index, end_index, time_in, "
            "time_out) VALUES ('ghost', 'stop', 0, 1, 0.0, 1.0)",
        ),
        ("fixes_match_their_trajectory", "UPDATE trajectory_fixes SET fix_count = 19"),
        ("fixes_match_their_trajectory", "UPDATE trajectory_fixes SET ts = substr(ts, 9)"),
        ("episodes_within_their_trajectory", "UPDATE episodes SET end_index = 21"),
        ("episodes_within_their_trajectory", "UPDATE episodes SET start_index = end_index"),
        (
            "quarantined_never_committed",
            "INSERT INTO quarantine (object_id, trajectory_id, stage, error, attempts, "
            "quarantined_at, events) VALUES ('obj', 'traj-1', 'map_match', 'boom', 1, 0.0, '[]')",
        ),
    )

    @pytest.mark.parametrize("name, statement", BREAKS)
    def test_a_broken_row_is_named(self, store, trajectory, name, statement):
        store.save_trajectory(trajectory)
        store.save_episode(Episode(EpisodeKind.MOVE, trajectory, 0, 20))
        assert store.check_invariants() == []
        connection = store._connection
        connection.execute("PRAGMA foreign_keys = OFF")
        connection.execute(statement)
        assert [broken for broken, _ in store.check_invariants()] == [name]
        connection.rollback()
        connection.execute("PRAGMA foreign_keys = ON")
        assert store.check_invariants() == []


def _parent_schema_file(path, trajectories, old_index=False, orphan_fix=False):
    """A store file in the one-row-per-fix layout, written the way that layout was.

    ``trajectories`` are ``(trajectory, store_points)`` pairs; fixes go in
    shuffled row order, so only ``seq`` orders them.
    """
    connection = sqlite3.connect(path)
    for statement in SCHEMA_STATEMENTS:
        if "trajectory_fixes" not in statement:
            connection.execute(statement)
    connection.execute(_PARENT_GPS_RECORDS)
    if old_index:
        connection.execute("CREATE INDEX idx_gps_trajectory ON gps_records(trajectory_id)")
    fixes = []
    for trajectory, store_points in trajectories:
        connection.execute(
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
            fixes.extend(
                (trajectory.trajectory_id, seq, x, y, t)
                for seq, (x, y, t) in enumerate(zip(trajectory.xs, trajectory.ys, trajectory.ts))
            )
    if orphan_fix:
        fixes.append(("nobody", 0, 0.0, 0.0, 0.0))
    random.Random(7).shuffle(fixes)
    connection.executemany("INSERT INTO gps_records VALUES (?, ?, ?, ?, ?)", fixes)
    connection.commit()
    connection.close()


def _parent_read_back(path, trajectory_ids):
    """What the one-row-per-fix layout read back for each trajectory, by ``repr``."""
    connection = sqlite3.connect(path)
    read = {}
    for trajectory_id in trajectory_ids:
        rows = connection.execute(
            "SELECT x, y, t FROM gps_records WHERE trajectory_id = ? ORDER BY seq",
            (trajectory_id,),
        ).fetchall()
        read[trajectory_id] = [[repr(v) for v in column] for column in zip(*rows)]
    count = connection.execute("SELECT COUNT(*) FROM gps_records").fetchone()[0]
    connection.close()
    return read, count


def _tables(path):
    connection = sqlite3.connect(path)
    names = {row[0] for row in connection.execute("SELECT name FROM sqlite_master")}
    connection.close()
    return names


class TestTrajectoryFixesIndexes:
    """``trajectory_fixes`` is served by its primary key's index alone."""

    PRIMARY_KEY_INDEX = "sqlite_autoindex_trajectory_fixes_1"

    def test_reads_use_the_primary_key_index(self, store):
        connection = store._connection
        indexes = connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' AND tbl_name = 'trajectory_fixes'"
        ).fetchall()
        assert indexes == [(self.PRIMARY_KEY_INDEX,)]
        steps = connection.execute("EXPLAIN QUERY PLAN " + LOAD_TRAJECTORY, ("t",)).fetchall()
        plan = " | ".join(step[-1] for step in steps)
        assert self.PRIMARY_KEY_INDEX in plan, plan
        assert "TEMP B-TREE" not in plan, plan

    @pytest.mark.parametrize("old_index", [True, False], ids=["old_index", "no_old_index"])
    def test_a_parent_schema_file_migrates_on_open(self, tmp_path, trajectory, old_index):
        path = str(tmp_path / "parent-schema.db")
        hostile = RawTrajectory.from_columns(
            [1e308, 5e-324, -1.5, 3],
            [-0.0, 0.1, 2.2250738585072014e-308, -7],
            [0, 1, 1, 2.5],
            object_id="obj",
            trajectory_id="traj-2",
        )
        no_fixes = build_trajectory([(0.0, 0.0, 0.0)], object_id="obj", trajectory_id="traj-3")
        _parent_schema_file(
            path, [(trajectory, True), (hostile, True), (no_fixes, False)], old_index=old_index
        )
        expected, count = _parent_read_back(path, ["traj-1", "traj-2"])
        assert ("idx_gps_trajectory" in _tables(path)) is old_index

        store = SemanticTrajectoryStore(path)
        assert "gps_records" not in _tables(path)
        assert "idx_gps_trajectory" not in _tables(path)
        assert store.gps_record_count() == count == len(trajectory) + len(hostile)
        for trajectory_id, columns in expected.items():
            assert _reprs(store.load_trajectory(trajectory_id)) == columns
        with pytest.raises(StoreError, match="stored without GPS records"):
            store.load_trajectory("traj-3")
        later = build_trajectory([(5.0, 5.0, 0.0), (-0.0, 6.0, 1.0)], trajectory_id="traj-4")
        store.save_annotated_trajectories([(later, [])])
        store.close()

        reopened = SemanticTrajectoryStore(path)
        assert reopened.trajectory_ids() == ["traj-1", "traj-2", "traj-3", "traj-4"]
        assert reopened.gps_record_count() == count + len(later)
        assert _reprs(reopened.load_trajectory("traj-4"))[0] == ["5.0", "-0.0"]
        assert _reprs(reopened.load_trajectory("traj-1")) == expected["traj-1"]
        reopened.close()

    def test_a_failed_migration_leaves_the_file_as_it_was(self, tmp_path, trajectory):
        """The schema and the migration are one transaction: a fix row whose
        trajectory is missing fails the open and rolls all of it back."""
        path = str(tmp_path / "orphan.db")
        _parent_schema_file(path, [(trajectory, True)], orphan_fix=True)
        before = _tables(path)
        with pytest.raises(StoreError, match="cannot migrate gps_records"):
            SemanticTrajectoryStore(path)
        assert _tables(path) == before
        assert "trajectory_fixes" not in before
