"""Ablations of the point-annotation (HMM) design choices.

Section 4.3 motivates two design decisions that are isolated here:

* the HMM over POI categories (with state transitions) versus a memory-less
  baseline that labels each stop with its nearest POI's category — the HMM
  uses the stop sequence context, which matters when a stop sits between two
  category clusters;
* the grid discretisation of the observation probabilities versus the exact
  per-stop Gaussian sums — discretisation trades a bounded approximation error
  for a large reduction in repeated probability computations.
"""

from __future__ import annotations

import time

from benchmarks.conftest import save_result
from repro.analytics.reporting import render_table
from repro.core.config import PointAnnotationConfig
from repro.points.annotator import PointAnnotator
from repro.points.observation import PoiObservationModel
from repro.preprocessing.stops import StopMoveDetector


def _collect_stops(car_dataset, config):
    detector = StopMoveDetector(config.stop_move)
    all_stops = []
    for trajectory in car_dataset.trajectories:
        stops = detector.stops(trajectory)
        if stops:
            all_stops.append(stops)
    return all_stops


def test_ablation_hmm_vs_nearest_poi(benchmark, world, car_dataset, vehicle_pipeline):
    poi_source = world.poi_source()
    annotator = PointAnnotator(poi_source, vehicle_pipeline.config.point)
    stops_per_trajectory = _collect_stops(car_dataset, vehicle_pipeline.config)

    def run():
        agreement = 0
        total = 0
        hmm_histogram: dict = {}
        nearest_histogram: dict = {}
        for stops in stops_per_trajectory:
            hmm_categories = annotator.infer_stop_categories(stops)
            for stop, hmm_category in zip(stops, hmm_categories):
                nearest = poi_source.nearest(stop.center(), count=1)
                nearest_category = nearest[0][1].category if nearest else "unknown"
                hmm_histogram[hmm_category] = hmm_histogram.get(hmm_category, 0) + 1
                nearest_histogram[nearest_category] = (
                    nearest_histogram.get(nearest_category, 0) + 1
                )
                agreement += int(hmm_category == nearest_category)
                total += 1
        return agreement, total, hmm_histogram, nearest_histogram

    agreement, total, hmm_histogram, nearest_histogram = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    rows = []
    for category in poi_source.categories():
        rows.append(
            [
                category,
                hmm_histogram.get(category, 0),
                nearest_histogram.get(category, 0),
            ]
        )
    text = render_table(
        ["category", "HMM stops", "nearest-POI stops"],
        rows,
        title=(
            "Ablation - HMM point annotation vs nearest-POI baseline\n"
            f"{total} stops, agreement {100 * agreement / max(total, 1):.1f}%"
        ),
    )
    save_result("ablation_hmm_vs_nearest", text)

    assert total > 0
    # The two methods agree on the easy stops but not everywhere: the HMM uses
    # sequence context, the baseline does not.
    assert 0.3 < agreement / total <= 1.0


def test_ablation_grid_discretisation(benchmark, world, car_dataset, vehicle_pipeline):
    poi_source = world.poi_source()
    stops_per_trajectory = _collect_stops(car_dataset, vehicle_pipeline.config)
    centers = [stop.center() for stops in stops_per_trajectory for stop in stops]
    categories = poi_source.categories()

    discretised_model = PoiObservationModel(poi_source, vehicle_pipeline.config.point)
    exact_config = PointAnnotationConfig(
        grid_cell_size=vehicle_pipeline.config.point.grid_cell_size,
        neighbor_radius=vehicle_pipeline.config.point.neighbor_radius,
        default_sigma=vehicle_pipeline.config.point.default_sigma,
    )
    exact_model = PoiObservationModel(poi_source, exact_config)

    def run_discretised():
        for center in centers:
            for category in categories:
                discretised_model.probability(category, center)

    benchmark.pedantic(run_discretised, rounds=1, iterations=1)

    started = time.perf_counter()
    max_error = 0.0
    for center in centers[:200]:
        discretised_scores = discretised_model.category_scores(center)
        exact_scores = {
            category: exact_model._exact_probability(category, center) for category in categories
        }
        exact_total = sum(exact_scores.values())
        for category in categories:
            exact_share = exact_scores[category] / exact_total if exact_total else 0.0
            max_error = max(max_error, abs(discretised_scores[category] - exact_share))
    exact_seconds = time.perf_counter() - started

    text = render_table(
        ["metric", "value"],
        [
            ["stops scored", len(centers)],
            ["grid cells cached", discretised_model.cache_size()],
            ["max |discretised - exact| category share", f"{max_error:.3f}"],
        ],
        title="Ablation - grid discretisation of observation probabilities",
    )
    save_result("ablation_grid_discretisation", text)
    # A wall-clock reading: printed beside the table, not part of the asserted text.
    print(f"exact-recomputation time for 200 stops (s): {exact_seconds:.3f}")

    assert discretised_model.cache_size() > 0
    assert max_error < 0.6
