"""Quickstart: annotate one GPS stream end-to-end with SeMiTri.

This example builds the synthetic world (landuse grid, road network, POIs),
simulates a short GPS stream for one moving object, runs the full SeMiTri
pipeline (cleaning, stop/move computation, region / line / point annotation)
and prints the resulting structured semantic trajectory.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import AnnotationSources, PipelineConfig
from repro.datasets import PersonSimulator, SyntheticWorld, WorldConfig


def main() -> None:
    # 1. Build the geographic substrate (stand-ins for Swisstopo / OSM / Milan POIs).
    world = SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    print(
        f"world ready: {len(world.region_source()):,} landuse cells, "
        f"{len(world.road_network()):,} road segments, {len(world.poi_source()):,} POIs"
    )

    # 2. Simulate one smartphone user for one day.
    simulator = PersonSimulator(world, user_count=1, days_per_user=1, seed=31)
    dataset = simulator.generate()
    trajectory = dataset.all_trajectories[0]
    profile = dataset.profiles[trajectory.object_id]
    print(
        f"simulated {trajectory.object_id} ({profile.commute_style} commuter): "
        f"{len(trajectory)} GPS records over {trajectory.duration / 3600:.1f} hours"
    )

    # 3. Run the SeMiTri pipeline.
    result = repro.annotate(trajectory, sources, PipelineConfig.for_people())

    # 4. Inspect the structured semantic trajectory.
    print(f"\nepisodes: {len(result.stops)} stops, {len(result.moves)} moves")
    print("\nsemantic view of the day (episode, period, annotation):")
    assert result.region_trajectory is not None
    for record in result.region_trajectory:
        place = record.place.category if record.place is not None else "?"
        start_hour = (record.time_in % 86_400) / 3600
        end_hour = (record.time_out % 86_400) / 3600
        print(
            f"  {record.kind.value:4s}  landuse {place:5s}  "
            f"{start_hour:5.2f}h -> {end_hour:5.2f}h"
        )

    modes = result.transport_modes()
    print(f"\ntransportation modes along the moves: {', '.join(modes) if modes else '(none)'}")
    if result.point_trajectory is not None:
        print("stop activities inferred from POI categories:")
        for record in result.point_trajectory:
            print(f"  stop at {(record.time_in % 86_400) / 3600:5.2f}h -> {record.activity}")
    print(f"trajectory category (Eq. 8): {result.trajectory_category}")


if __name__ == "__main__":
    main()
