"""Semantic location analysis: the analytics layer on top of annotated trajectories.

The paper's architecture (Figure 2) places a Semantic Trajectory Analytics
Layer above the annotation layers ("Distributions, Clustering, Sequential
Mining ...") and a Web Interface that serves KML visualisations.  This example
shows that part of the system:

* several days of one user's trajectories are annotated by the pipeline;
* stop episodes are clustered into *frequent places* and heuristically
  labelled home / work;
* the daily place-category and transportation-mode sequences are mined for
  frequent patterns (the home -> office -> home routine);
* per-user mobility statistics (daily distance, radius of gyration, mode
  shares) are computed;
* the semantic day is exported to GeoJSON and KML files, the format the
  paper's web interface serves.

Run it with::

    python examples/semantic_location_analysis.py [--out DIR]

The exported files go to ``DIR`` (created if missing), or to a fresh
temporary directory; their paths are printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import AnnotationSources, PipelineConfig
from repro.analytics.patterns import (
    category_sequences,
    frequent_sequences,
    mobility_statistics,
    mode_sequences,
)
from repro.analytics.places import FrequentPlaceMiner, label_home_and_work
from repro.datasets import PersonSimulator, SyntheticWorld, WorldConfig
from repro.export import structured_trajectory_to_geojson, structured_trajectory_to_kml
from repro.parallel import GeoContext
from repro.regions.landuse import label_of


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="directory for the GeoJSON / KML exports")
    args = parser.parse_args()
    output_dir = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="semitri-export-"))
    output_dir.mkdir(parents=True, exist_ok=True)

    world = SyntheticWorld(WorldConfig(size=8000.0, poi_count=2000, seed=7))
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    dataset = PersonSimulator(world, user_count=2, days_per_user=4, seed=31).generate()
    context = GeoContext(sources, PipelineConfig.for_people())  # indexes built once

    for user in dataset.user_ids:
        trajectories = dataset.trajectories_by_user[user]
        results = repro.annotate_many(trajectories, context=context)
        style = dataset.profiles[user].commute_style
        print(f"\n=== {user} ({style} commuter, {len(results)} days) ===")

        # Frequent places from all stop episodes of the tracking period.
        all_stops = [stop for result in results for stop in result.stops]
        places = FrequentPlaceMiner(radius=150.0, min_visits=2).mine(all_stops)
        labels = label_home_and_work(places)
        print(f"frequent places discovered: {len(places)}")
        for place in places[:4]:
            landuse = place.dominant_region_category()
            print(
                f"  place #{place.place_index} [{labels[place.place_index]:5s}] "
                f"{place.visit_count} visits, {place.total_dwell_time / 3600:.1f} h total"
                + (f", landuse {landuse} ({label_of(landuse)})" if landuse else "")
            )

        # Sequential patterns over landuse categories and transport modes.
        region_trajectories = [r.region_trajectory for r in results if r.region_trajectory]
        line_trajectories = [s for r in results for s in r.line_trajectories]
        category_patterns = frequent_sequences(
            category_sequences(region_trajectories), min_length=2, max_length=3, min_support=2
        )
        mode_patterns = frequent_sequences(
            mode_sequences(line_trajectories), min_length=2, max_length=3, min_support=2
        )
        print("frequent landuse-category sequences:")
        for pattern in category_patterns[:3]:
            print(f"  {' -> '.join(pattern.items)}  (support {pattern.support})")
        if mode_patterns:
            print("frequent transport-mode sequences:")
            for pattern in mode_patterns[:3]:
                print(f"  {' -> '.join(pattern.items)}  (support {pattern.support})")

        # Mobility statistics for the tracking period.
        stats = mobility_statistics(user, trajectories, region_trajectories + line_trajectories)
        print(
            f"mobility: {stats.daily_distance / 1000:.1f} km/day, radius of gyration "
            f"{stats.radius_of_gyration / 1000:.2f} km, {stats.distinct_places} distinct places"
        )
        if stats.mode_time_share:
            shares = ", ".join(
                f"{mode} {share:.0%}" for mode, share in sorted(stats.mode_time_share.items())
            )
            print(f"mode time share: {shares}")

        # Export the first annotated day for the "web interface".
        first = results[0].region_trajectory
        if first is not None:
            geojson_path = output_dir / f"{user}_day0.geojson"
            kml_path = output_dir / f"{user}_day0.kml"
            geojson_path.write_text(
                json.dumps(structured_trajectory_to_geojson(first), indent=2), encoding="utf-8"
            )
            kml_path.write_text(structured_trajectory_to_kml(first), encoding="utf-8")
            print(f"exported {geojson_path} and {kml_path}")


if __name__ == "__main__":
    main()
