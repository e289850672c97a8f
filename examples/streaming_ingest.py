"""Live ingestion: annotate the people dataset as its GPS events arrive.

This example simulates several smartphone users, merges their daily GPS
fixes into one time-ordered event feed (as a gateway would see it) and pushes
the feed event-by-event through the executor :func:`repro.stream` returns (a
:class:`repro.engine.MicroBatchExecutor`).  It keeps one session per user,
seals stop/move episodes online, annotates them with the region/line/point
layers and persists every sealed trajectory into the semantic trajectory store
— printing each day's semantic summary the moment the trajectory closes, not
when the dataset ends.

Run it with::

    python examples/streaming_ingest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import AnnotationSources, PipelineConfig
from repro.core.pipeline import PipelineResult
from repro.datasets import PersonSimulator, SyntheticWorld, WorldConfig
from repro.store.store import SemanticTrajectoryStore


def describe(result: PipelineResult) -> None:
    """Print one sealed trajectory's semantic summary."""
    trajectory = result.trajectory
    modes = ", ".join(result.transport_modes()) or "-"
    category = result.trajectory_category or "-"
    print(
        f"  sealed {trajectory.trajectory_id:12s} "
        f"({len(trajectory):4d} fixes, {len(result.stops)} stops / {len(result.moves)} moves)  "
        f"modes: {modes:30s} trajectory category: {category}"
    )


def main() -> None:
    # 1. Geographic substrate + a small population of smartphone users.
    world = SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    dataset = PersonSimulator(world, user_count=4, days_per_user=2, seed=31).generate()

    # 2. One merged, time-ordered feed of (user, fix) events.
    events = sorted(
        (
            (point.t, trajectory.object_id, point)
            for trajectory in dataset.all_trajectories
            for point in trajectory.points
        ),
        key=lambda event: event[0],
    )
    print(f"live feed: {len(events):,} GPS events from {len(dataset.user_ids)} users\n")

    # 3. Stream everything through the engine; gap-based close-out seals each
    #    user's day automatically when the overnight gap appears in the feed.
    store = SemanticTrajectoryStore()
    engine = repro.stream(
        sources,
        config=PipelineConfig.for_people(),
        store=store,
        persist=True,
        on_result=describe,
    )
    for _, object_id, point in events:
        engine.ingest(object_id, point)
    engine.close_all()

    # 4. Executor and store statistics (config, store and telemetry are on
    #    ``engine.plan``).
    stats = engine.stats
    print(
        f"\nprocessed {stats.events:,} events in {stats.processing_passes} micro-batches: "
        f"{stats.results} trajectories, {stats.episodes_sealed} episodes sealed"
    )
    summary = store.stop_move_summary()
    print(
        f"store now holds {summary['trajectories']} trajectories, "
        f"{summary['gps_records']:,} GPS records, "
        f"{summary['stops']} stops, {summary['moves']} moves, "
        f"{store.annotation_count()} annotations"
    )
    store.close()


if __name__ == "__main__":
    main()
