"""Figure 12: log-log distribution of GPS-record counts per trajectory/move/stop.

The paper plots, for the people dataset, how many trajectories, moves and
stops contain a given number of GPS records (log-log axes): moves and
trajectories extend to large record counts while stops concentrate at small
counts.  This benchmark reproduces the three histograms over logarithmic bins.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analytics.distributions import log_log_histogram
from repro.analytics.reporting import render_series
from repro.analytics.statistics import episode_statistics
from repro.preprocessing.stops import segment_many


def test_fig12_episode_length_distribution(benchmark, people_dataset, people_config):
    trajectories = people_dataset.all_trajectories

    def compute():
        episodes = segment_many(trajectories, people_config.stop_move)
        return episode_statistics(trajectories, episodes)

    stats = benchmark.pedantic(compute, rounds=1, iterations=1)

    series = {
        "trajectory": [
            (float(b), float(c)) for b, c in log_log_histogram(stats.trajectory_lengths)
        ],
        "move": [(float(b), float(c)) for b, c in log_log_histogram(stats.move_lengths)],
        "stop": [(float(b), float(c)) for b, c in log_log_histogram(stats.stop_lengths)],
    }
    header = (
        "Figure 12 - Trajectory context computation (log-log length distribution)\n"
        f"{stats.gps_record_count:,} GPS records -> {stats.trajectory_count} trajectories, "
        f"{stats.move_count} moves, {stats.stop_count} stops"
    )
    text = render_series(series, title=header, x_label="#GPS records (bin)", y_label="count")
    save_result("fig12_episode_length_distribution", text)

    assert stats.stop_count > 0 and stats.move_count > 0
    # Stops are shorter than moves on average (people dwell indoors with GPS loss).
    mean_stop = sum(stats.stop_lengths) / stats.stop_count
    mean_move = sum(stats.move_lengths) / stats.move_count
    assert mean_stop < mean_move * 2.0
