"""Figure 11: semantic stops and trajectories by point annotation.

For the Milan private cars the paper reports three distributions over the five
POI categories: the POI source itself, the inferred stop categories (dominated
by "item sale", then "person life"), and the trajectory categories obtained by
Equation 8 (statistically similar to the stop distribution because there are
few stops per trajectory).  This benchmark reproduces all three columns.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analytics.distributions import normalize_counts
from repro.analytics.reporting import render_table
from repro.points.annotator import PointAnnotator
from repro.preprocessing.stops import StopMoveDetector


def test_fig11_poi_category_distribution(benchmark, world, car_dataset, vehicle_config):
    poi_source = world.poi_source()
    annotator = PointAnnotator(poi_source, vehicle_config.point)
    detector = StopMoveDetector(vehicle_config.stop_move)
    stops_per_trajectory = {
        trajectory.trajectory_id: detector.stops(trajectory)
        for trajectory in car_dataset.trajectories
    }

    def annotate_all():
        stop_categories = []
        trajectory_categories = []
        for trajectory in car_dataset.trajectories:
            stops = stops_per_trajectory[trajectory.trajectory_id]
            if not stops:
                continue
            categories = annotator.infer_stop_categories(stops)
            stop_categories.extend(categories)
            category = annotator.classify_trajectory(stops)
            if category is not None:
                trajectory_categories.append(category)
        return stop_categories, trajectory_categories

    stop_categories, trajectory_categories = benchmark.pedantic(
        annotate_all, rounds=1, iterations=1
    )

    poi_distribution = poi_source.initial_probabilities()
    stop_distribution = normalize_counts(
        {c: stop_categories.count(c) for c in set(stop_categories)}
    )
    trajectory_distribution = normalize_counts(
        {c: trajectory_categories.count(c) for c in set(trajectory_categories)}
    )

    rows = []
    for category in poi_source.categories():
        rows.append(
            [
                category,
                f"{100 * poi_distribution.get(category, 0.0):.1f}",
                f"{100 * stop_distribution.get(category, 0.0):.1f}",
                f"{100 * trajectory_distribution.get(category, 0.0):.1f}",
            ]
        )
    header = (
        "Figure 11 - Semantic stops / trajectories by point annotation (percent)\n"
        f"{len(poi_source)} POIs, {len(stop_categories)} stops, "
        f"{len(trajectory_categories)} classified trajectories"
    )
    text = render_table(["category", "POI", "stop", "trajectory"], rows, title=header)
    save_result("fig11_poi_category_distribution", text)

    # The paper's ordering: stops are dominated by item sale, then person life.
    assert stop_distribution.get("item sale", 0.0) == max(stop_distribution.values())
    assert stop_distribution.get("person life", 0.0) > stop_distribution.get("feedings", 0.0)
    # Trajectory categories track the stop categories (few stops per trajectory).
    assert (
        max(trajectory_distribution, key=trajectory_distribution.get)
        == max(stop_distribution, key=stop_distribution.get)
    )
