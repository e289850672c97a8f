"""The quarantine workflow: dead-letter, replay after a fix, release.

Under ``skip`` a poison trajectory lands in the store's quarantine table with
its raw events; ``load_quarantined_trajectory`` rebuilds it, a persisting
re-annotation stores it and ``release_quarantined`` deletes the row.  A
replay and its release inside one ``with store:`` scope commit or roll back
together.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core import PipelineConfig
from repro.core.errors import StoreError
from repro.engine import Plan, SequentialExecutor
from repro.faults import FaultInjector, FaultPlan
from repro.parallel import GeoContext, canonical_bytes
from repro.store.store import SemanticTrajectoryStore


def _config(**failure: object) -> PipelineConfig:
    overrides = {"failure.backoff_base": 0.0}
    overrides.update({f"failure.{key}": value for key, value in failure.items()})
    return PipelineConfig.for_vehicles().with_overrides(overrides)


@pytest.fixture()
def quarantined(annotation_sources, car_dataset):
    """A store after a ``skip`` run in which one object's trajectories all failed."""
    trajectories = car_dataset.trajectories
    poison = trajectories[0].object_id
    store = SemanticTrajectoryStore()
    plan = Plan.compile(
        GeoContext(annotation_sources, _config(mode="skip")),
        store=store,
        persist=True,
        faults=FaultInjector(FaultPlan.parse(f"raise@map_match:obj={poison},times=-1")),
    )
    SequentialExecutor().run(plan, trajectories)
    row = store.quarantined(object_id=poison)[0]
    original = next(t for t in trajectories if t.trajectory_id == row["trajectory_id"])
    yield store, row, original
    store.close()


def test_a_replayed_trajectory_is_released_once(annotation_sources, quarantined):
    store, row, original = quarantined
    count = store.quarantine_count()
    replay = store.load_quarantined_trajectory(row["quarantine_id"])
    assert not store.has_trajectory(row["trajectory_id"])

    [result] = api.annotate_many(
        [replay], annotation_sources, config=_config(), store=store, persist=True
    )
    assert canonical_bytes([result]) == canonical_bytes(
        api.annotate_many([original], annotation_sources, config=_config())
    )
    assert store.has_trajectory(row["trajectory_id"])
    store.release_quarantined(row["quarantine_id"])

    assert row["quarantine_id"] not in [r["quarantine_id"] for r in store.quarantined()]
    assert store.quarantine_count() == count - 1
    with pytest.raises(StoreError):
        store.release_quarantined(row["quarantine_id"])
    assert store.quarantine_count() == count - 1


def test_a_failed_replay_scope_keeps_the_quarantine_row(annotation_sources, quarantined):
    store, row, _ = quarantined
    rows = store.quarantined()
    replay = store.load_quarantined_trajectory(row["quarantine_id"])

    with pytest.raises(StoreError):
        with store:
            api.annotate_many(
                [replay], annotation_sources, config=_config(), store=store, persist=True
            )
            store.release_quarantined(row["quarantine_id"])
            store.save_trajectory(replay)  # already written in this scope: the write fails

    assert store.quarantined() == rows
    assert not store.has_trajectory(row["trajectory_id"])
