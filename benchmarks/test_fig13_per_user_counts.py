"""Figure 13: per-user counts of GPS records, trajectories, stops and moves.

The paper shows, for the six named smartphone users, the number of GPS records
(divided by 100 for display), daily trajectories, stops and moves.  This
benchmark reproduces the same four bars per user.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analytics.reporting import render_table
from repro.analytics.statistics import per_user_summary
from repro.preprocessing.stops import segment_many


def test_fig13_per_user_counts(benchmark, people_dataset, people_config):
    def compute():
        episodes_by_user = {
            user: segment_many(trajectories, people_config.stop_move)
            for user, trajectories in people_dataset.trajectories_by_user.items()
        }
        return per_user_summary(people_dataset.trajectories_by_user, episodes_by_user)

    summary = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = []
    for user in people_dataset.user_ids:
        stats = summary[user]
        rows.append(
            [
                user,
                f"{stats['gps_records_div100']:.1f}",
                int(stats["trajectories"]),
                int(stats["stops"]),
                int(stats["moves"]),
            ]
        )
    text = render_table(
        ["user", "GPS (x100)", "trajectories", "stops", "moves"],
        rows,
        title="Figure 13 - Trajectory context computation per user",
    )
    save_result("fig13_per_user_counts", text)

    assert len(rows) == 6
    for user, stats in summary.items():
        assert stats["stops"] >= stats["trajectories"], (
            f"{user} should have at least one stop per daily trajectory"
        )
