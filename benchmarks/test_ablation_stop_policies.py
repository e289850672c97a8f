"""Ablation of the stop/move computing policies.

Figure 2 lists several trajectory computing policies (velocity threshold,
density threshold, temporal/spatial separations).  This benchmark compares the
velocity, density and hybrid policies on the people dataset: how many episodes
each finds and how long segmentation takes, and verifies the structural
invariant (the episodes always partition the trajectory) along the way.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analytics.reporting import render_table
from repro.core.config import StopMoveConfig
from repro.core.episodes import validate_episode_partition
from repro.preprocessing.stops import StopMoveDetector

POLICIES = ("velocity", "density", "hybrid")


def test_ablation_stop_policies(benchmark, people_dataset):
    trajectories = people_dataset.all_trajectories

    def run():
        results = {}
        for policy in POLICIES:
            detector = StopMoveDetector(
                StopMoveConfig(
                    policy=policy,
                    speed_threshold=0.8,
                    min_stop_duration=240.0,
                    density_radius=80.0,
                )
            )
            stops = 0
            moves = 0
            stop_points = 0
            for trajectory in trajectories:
                episodes = detector.segment(trajectory)
                validate_episode_partition(trajectory, episodes)
                stops += sum(1 for episode in episodes if episode.is_stop)
                moves += sum(1 for episode in episodes if episode.is_move)
                stop_points += sum(len(episode) for episode in episodes if episode.is_stop)
            results[policy] = (stops, moves, stop_points)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [policy, results[policy][0], results[policy][1], results[policy][2]]
        for policy in POLICIES
    ]
    text = render_table(
        ["policy", "stops", "moves", "GPS points in stops"],
        rows,
        title=(
            "Ablation - stop/move computing policies on people trajectories\n"
            f"{len(trajectories)} daily trajectories, "
            f"{people_dataset.gps_record_count:,} GPS records"
        ),
    )
    save_result("ablation_stop_policies", text)

    # The hybrid policy flags a superset of the velocity policy's stop points
    # (episode *counts* may drop because adjacent stops merge).
    assert results["hybrid"][2] >= results["velocity"][2]
    assert all(stops > 0 for stops, _, _ in results.values())
