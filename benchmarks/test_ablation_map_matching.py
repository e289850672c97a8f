"""Ablations of the map-matching design choices.

Two of the design decisions Section 4.2 argues for are isolated here:

* the point-segment distance of Equation 1 versus the classical perpendicular
  (point-to-curve) distance;
* the kernel-weighted global score (Equations 3-4) versus the purely local
  score of each GPS point.

A third comparison pits the global matcher against the baseline matchers from
the related-work taxonomy (nearest-segment geometric matching, incremental
topological matching, HMM/Viterbi matching) at several GPS noise levels.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analytics.reporting import render_table
from repro.core.config import MapMatchingConfig
from repro.lines.baselines import IncrementalMatcher, NearestSegmentMatcher, ViterbiMatcher
from repro.lines.map_matching import GlobalMapMatcher, matching_accuracy

NOISE_LEVELS = (5.0, 10.0, 20.0)


def _accuracy(matcher, drive) -> float:
    matched = matcher.match(drive.trajectory.points)
    return 100.0 * matching_accuracy(
        [m.segment_id for m in matched], drive.truth_segment_ids
    )


def test_ablation_distance_metric_and_global_score(benchmark, world, drive_generator):
    network = world.road_network()
    drives = {sigma: drive_generator.generate(noise_sigma=sigma) for sigma in NOISE_LEVELS}

    configurations = {
        "point-segment + global score (paper)": MapMatchingConfig(candidate_radius=50.0),
        "perpendicular + global score": MapMatchingConfig(
            candidate_radius=50.0, distance_metric="perpendicular"
        ),
        "point-segment, local score only": MapMatchingConfig(
            candidate_radius=50.0, use_global_score=False
        ),
    }

    def run():
        table = {}
        for label, config in configurations.items():
            matcher = GlobalMapMatcher(network, config)
            table[label] = [_accuracy(matcher, drives[sigma]) for sigma in NOISE_LEVELS]
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [label] + [f"{value:.1f}" for value in values] for label, values in table.items()
    ]
    text = render_table(
        ["configuration"] + [f"noise {sigma:g} m" for sigma in NOISE_LEVELS],
        rows,
        title="Ablation - distance metric and global score (matching accuracy %)",
    )
    save_result("ablation_distance_metric", text)

    paper = table["point-segment + global score (paper)"]
    local_only = table["point-segment, local score only"]
    assert all(p >= l - 2.0 for p, l in zip(paper, local_only))
    assert min(paper) > 75.0


def test_ablation_matcher_comparison(benchmark, world, drive_generator):
    network = world.road_network()
    drives = {sigma: drive_generator.generate(noise_sigma=sigma) for sigma in NOISE_LEVELS}

    matchers = {
        "SeMiTri global matcher": GlobalMapMatcher(
            network, MapMatchingConfig(candidate_radius=50.0)
        ),
        "nearest segment (geometric)": NearestSegmentMatcher(network, candidate_radius=50.0),
        "incremental (topological)": IncrementalMatcher(network, candidate_radius=50.0),
        "HMM / Viterbi": ViterbiMatcher(network, candidate_radius=50.0),
    }

    def run():
        return {
            label: [_accuracy(matcher, drives[sigma]) for sigma in NOISE_LEVELS]
            for label, matcher in matchers.items()
        }

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [[label] + [f"{value:.1f}" for value in values] for label, values in table.items()]
    text = render_table(
        ["matcher"] + [f"noise {sigma:g} m" for sigma in NOISE_LEVELS],
        rows,
        title="Ablation - map matcher comparison (matching accuracy %)",
    )
    save_result("ablation_matchers", text)

    semitri = table["SeMiTri global matcher"]
    nearest = table["nearest segment (geometric)"]
    assert all(s >= n - 3.0 for s, n in zip(semitri, nearest))
