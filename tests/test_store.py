"""Unit tests for the semantic trajectory store."""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.annotations import activity_annotation, region_annotation, transport_mode_annotation
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import StoreError
from repro.core.places import RegionOfInterest
from repro.core.points import build_trajectory
from repro.geometry.primitives import BoundingBox
from repro.store.schema import SCHEMA_STATEMENTS
from repro.store.store import SemanticTrajectoryStore


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
        with pytest.raises(StoreError):
            store.save_trajectory(trajectory)

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
        with pytest.raises(StoreError):
            store.load_trajectory("traj-1")


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

    def test_swallowed_write_failure_refuses_to_commit(self, store, trajectory):
        """A failed write poisons the scope even if its error is swallowed."""
        with pytest.raises(StoreError, match="rolled back"):
            with store:
                store.save_trajectory(trajectory)
                with pytest.raises(StoreError):
                    store.save_trajectory(trajectory)  # duplicate id fails
        assert store.trajectory_count() == 0

    def test_writes_outside_any_scope_commit_immediately(self, store, trajectory):
        store.save_trajectory(trajectory)
        assert store.trajectory_count() == 1

    def test_swallowed_inner_scope_failure_poisons_outer_scope(self, store, trajectory):
        """Inner-scope exceptions cannot be swallowed into an outer commit."""
        with pytest.raises(StoreError, match="rolled back"):
            with store:
                store.save_trajectory(trajectory)
                try:
                    with store:
                        raise RuntimeError("inner stage failed")
                except RuntimeError:
                    pass  # caller swallows: the outer scope must still refuse
        assert store.trajectory_count() == 0


class TestGpsRecordIndexes:
    """``gps_records`` is served by its primary key's index alone."""

    PRIMARY_KEY_INDEX = "sqlite_autoindex_gps_records_1"

    def test_reads_use_the_primary_key_index(self, store):
        connection = store._connection
        indexes = connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' AND tbl_name = 'gps_records'"
        ).fetchall()
        assert indexes == [(self.PRIMARY_KEY_INDEX,)]
        for query, params in (
            ("SELECT x, y, t FROM gps_records WHERE trajectory_id = ? ORDER BY seq", ("t",)),
            ("SELECT COUNT(*) FROM gps_records", ()),
        ):
            steps = connection.execute("EXPLAIN QUERY PLAN " + query, params).fetchall()
            plan = " | ".join(step[-1] for step in steps)
            assert self.PRIMARY_KEY_INDEX in plan, plan
            assert "TEMP B-TREE" not in plan, plan  # ``seq`` order comes from the index

    def test_a_file_with_the_old_trajectory_index_still_works(self, tmp_path, trajectory):
        path = str(tmp_path / "old-schema.db")
        old = sqlite3.connect(path)
        for statement in SCHEMA_STATEMENTS:
            old.execute(statement)
        old.execute("CREATE INDEX idx_gps_trajectory ON gps_records(trajectory_id)")
        old.commit()
        old.close()
        store = SemanticTrajectoryStore(path)
        with store:
            store.save_trajectory(trajectory)
        store.close()
        reopened = SemanticTrajectoryStore(path)
        assert reopened.gps_record_count() == len(trajectory)
        loaded = reopened.load_trajectory("traj-1")
        assert [p.as_tuple() for p in loaded.points] == [p.as_tuple() for p in trajectory.points]
        reopened.close()
