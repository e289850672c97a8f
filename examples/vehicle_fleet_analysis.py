"""Fleet tracking / urban planning scenario: annotating a taxi fleet.

Reproduces the Section 5.2 workflow on synthetic data: a small taxi fleet is
tracked at 1 s sampling, the trajectory computation layer extracts stops and
moves, the region layer annotates everything with landuse cells, and the
analytics layer reports the landuse distribution (Figure 9), the storage
compression of the region-based representation, and the per-stage latency.

Run it with::

    python examples/vehicle_fleet_analysis.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import AnnotationSources, PipelineConfig
from repro.core.pipeline import SeMiTriPipeline
from repro.analytics.compression import compression_report
from repro.analytics.distributions import cumulative_share, normalize_counts, top_k_categories
from repro.analytics.reporting import render_distribution_table
from repro.datasets import SyntheticWorld, TaxiFleetSimulator, WorldConfig
from repro.regions.annotator import RegionAnnotator
from repro.regions.landuse import label_of
from repro.store.store import SemanticTrajectoryStore


def main() -> None:
    world = SyntheticWorld(WorldConfig(size=8000.0, poi_count=2000, seed=7))
    fleet = TaxiFleetSimulator(
        world, taxi_count=2, days=2, fares_per_day=8, sample_interval=1.0, seed=11
    ).generate()
    print(
        f"taxi fleet: {len(fleet.object_ids)} taxis, {len(fleet.trajectories)} daily "
        f"trajectories, {fleet.gps_record_count:,} GPS records"
    )

    # Stop/move computation + annotation, persisted into the semantic store.
    # The `with store:` transaction scope commits the whole fleet at once on
    # success and rolls everything back if a stage raises out of it.  Each
    # scope is a savepoint: the pipeline's own per-chunk scopes nest inside
    # it, so under a skip/retry policy a failed trajectory's rows are undone
    # alone and the rest of the fleet still commits here.
    store = SemanticTrajectoryStore()
    config = PipelineConfig.for_vehicles()
    sources = AnnotationSources(regions=world.region_source(), road_network=world.road_network())
    with store:
        results = repro.annotate_many(
            fleet.trajectories, sources, config, store=store, persist=True
        )

    summary = store.stop_move_summary()
    print(
        f"computed {summary['stops']} stops and {summary['moves']} moves; "
        f"store now holds {store.annotation_count()} annotations"
    )

    # Landuse distribution over all GPS points (Figure 9, "trajectory" column).
    annotator = RegionAnnotator(world.region_source(), config.region)
    counts = annotator.point_category_distribution(fleet.trajectories)
    distribution = normalize_counts(counts)
    print("\n" + render_distribution_table(distribution, title="Landuse share of taxi GPS points"))
    print("\ntop categories:")
    for category, share in top_k_categories(counts, k=3):
        print(f"  {category} ({label_of(category)}): {share:.1%}")
    print(
        "building + transportation share: "
        f"{cumulative_share(counts, ['1.2', '1.3']):.1%} (paper reports ~83%)"
    )

    # Storage compression of the region-level representation (Section 5.2).
    structured = [annotator.annotate_trajectory(t) for t in fleet.trajectories]
    report = compression_report(fleet.gps_record_count, structured)
    print(
        f"\nregion-level representation: {report.semantic_tuples:,} tuples for "
        f"{report.raw_records:,} GPS records -> {report.as_percentage():.1f}% compression "
        "(paper reports ~99.7% on 5 months of data)"
    )

    # Latency profile (Figure 17 flavour, for vehicles).
    latency = SeMiTriPipeline.merge_latencies(results)
    print("\nmean latency per daily trajectory:")
    for stage in latency.stages():
        print(f"  {stage:20s} {latency.mean(stage):.4f} s")
    store.close()


if __name__ == "__main__":
    main()
