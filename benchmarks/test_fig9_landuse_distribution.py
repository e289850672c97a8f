"""Figure 9: landuse category distribution for taxi trajectories, moves and stops.

The paper reports that taxi GPS records concentrate in building areas (1.2)
and transportation areas (1.3) - together about 83 % of the points - and that
the region-based representation achieves ~99.7 % storage compression.  This
benchmark reproduces the three distribution columns (per-GPS-point, per-move,
per-stop), checks the building+transport dominance, and reports the
compression achieved by the merged region annotation.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analytics.compression import compression_report
from repro.analytics.distributions import cumulative_share, normalize_counts
from repro.analytics.reporting import render_table
from repro.preprocessing.stops import segment_many
from repro.regions.annotator import RegionAnnotator


def test_fig9_landuse_distribution(benchmark, world, taxi_dataset, vehicle_config):
    annotator = RegionAnnotator(world.region_source(), vehicle_config.region)
    episodes = segment_many(taxi_dataset.trajectories, vehicle_config.stop_move)
    moves = [episode for episode in episodes if episode.is_move]
    stops = [episode for episode in episodes if episode.is_stop]

    def compute_distributions():
        return {
            "trajectory": annotator.point_category_distribution(taxi_dataset.trajectories),
            "move": annotator.episode_category_distribution(moves),
            "stop": annotator.episode_category_distribution(stops),
        }

    distributions = benchmark(compute_distributions)

    categories = sorted(
        set().union(*[set(counts) for counts in distributions.values()])
    )
    rows = []
    for category in categories:
        row = [category]
        for column in ("trajectory", "move", "stop"):
            share = normalize_counts(distributions[column]).get(category, 0.0)
            row.append(f"{share:.4f}")
        rows.append(row)
    header = (
        f"Figure 9 - Landuse category distribution for taxi data\n"
        f"trajectories (#{len(taxi_dataset.trajectories)}) "
        f"moves (#{len(moves)}) stops (#{len(stops)})"
    )
    text = render_table(["category", "trajectory", "move", "stop"], rows, title=header)

    # Storage compression of the region-annotated representation (Section 5.2).
    structured = [
        annotator.annotate_trajectory(trajectory) for trajectory in taxi_dataset.trajectories
    ]
    report = compression_report(taxi_dataset.gps_record_count, structured)
    text += (
        f"\n\nStorage compression: {taxi_dataset.gps_record_count:,} GPS records -> "
        f"{report.semantic_tuples:,} region tuples "
        f"({report.as_percentage():.1f}% compression)"
    )
    save_result("fig9_landuse_distribution", text)

    point_share = cumulative_share(distributions["trajectory"], ["1.2", "1.3"])
    assert point_share > 0.6, "building + transport areas should dominate taxi GPS points"
    assert report.as_percentage() > 90.0
