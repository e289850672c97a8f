"""People-trajectory scenario: reconstructing the semantic day of a commuter.

Reproduces the motivating example of the paper's introduction: instead of raw
GPS points, the application sees the day as a sequence of triples

    (home, -9am, -) -> (road, 9am-10am, on-bus) -> (office, 10am-5pm, work) -> ...

This example simulates several smartphone users with different commute styles
(walk + metro, bicycle, bus, walking only), runs the full pipeline and prints,
for each user, the semantically encoded day built from the region, line and
point annotation layers (Figures 15/16 flavour).

Run it with::

    python examples/people_daily_life.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import AnnotationSources, PipelineConfig
from repro.datasets import PersonSimulator, SyntheticWorld, WorldConfig
from repro.parallel import GeoContext
from repro.regions.landuse import label_of


def _hour(timestamp: float) -> str:
    hours = (timestamp % 86_400) / 3600
    return f"{int(hours):02d}:{int((hours % 1) * 60):02d}"


def describe_day(result, profile) -> None:
    """Print the (place, period, annotation) triple sequence for one result."""
    print(f"\n=== {result.trajectory.object_id} ({profile.commute_style} commuter) ===")
    print(
        f"{len(result.trajectory)} GPS records -> {len(result.stops)} stops, "
        f"{len(result.moves)} moves"
    )

    stop_activities = {}
    if result.point_trajectory is not None:
        for record in result.point_trajectory:
            stop_activities[(record.time_in, record.time_out)] = record.activity

    line_by_episode = {}
    for structured in result.line_trajectories:
        for record in structured:
            if record.source_episode is not None:
                key = id(record.source_episode)
                line_by_episode.setdefault(key, []).append(record)

    assert result.region_trajectory is not None
    for record in result.region_trajectory:
        landuse = record.place.category if record.place is not None else "?"
        place_label = label_of(landuse) if record.place is not None else "unknown area"
        if record.kind.value == "stop":
            annotation = stop_activities.get((record.time_in, record.time_out), "-")
        else:
            modes = []
            if record.source_episode is not None:
                for line_record in line_by_episode.get(id(record.source_episode), []):
                    mode = line_record.transport_mode
                    if mode and (not modes or modes[-1] != mode):
                        modes.append(mode)
            annotation = "+".join(modes) if modes else "-"
        print(
            f"  ({place_label:28s} {_hour(record.time_in)}-{_hour(record.time_out)}, "
            f"{annotation})"
        )
    print(f"  dominant trajectory category (Eq. 8): {result.trajectory_category}")


def main() -> None:
    world = SyntheticWorld(WorldConfig(size=8000.0, poi_count=2000, seed=7))
    simulator = PersonSimulator(world, user_count=4, days_per_user=1, seed=31)
    dataset = simulator.generate()

    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    # The annotators index the sources once; every call below reuses them.
    context = GeoContext(sources, PipelineConfig.for_people())

    for user in dataset.user_ids:
        trajectory = dataset.trajectories_by_user[user][0]
        result = repro.annotate(trajectory, context)
        describe_day(result, dataset.profiles[user])


if __name__ == "__main__":
    main()
