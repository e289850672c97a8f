"""Episode and per-user statistics (Figures 12 and 13).

Summarises collections of trajectories and episodes: counts, point-count
distributions and the per-user breakdown (GPS records, daily trajectories,
stops, moves) reported for the six named smartphone users in Figure 13 and
Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.episodes import Episode
from repro.core.points import RawTrajectory


@dataclass(frozen=True)
class EpisodeStatistics:
    """Counts and point-count lists for trajectories, stops and moves."""

    trajectory_count: int
    stop_count: int
    move_count: int
    gps_record_count: int
    trajectory_lengths: List[int]
    stop_lengths: List[int]
    move_lengths: List[int]

    @property
    def stops_per_trajectory(self) -> float:
        """Mean number of stops per trajectory (the 1.7 figure of Section 5.2)."""
        if self.trajectory_count == 0:
            return 0.0
        return self.stop_count / self.trajectory_count


def episode_statistics(
    trajectories: Sequence[RawTrajectory], episodes: Sequence[Episode]
) -> EpisodeStatistics:
    """Aggregate counts and length distributions over a dataset."""
    stops = [episode for episode in episodes if episode.is_stop]
    moves = [episode for episode in episodes if episode.is_move]
    return EpisodeStatistics(
        trajectory_count=len(trajectories),
        stop_count=len(stops),
        move_count=len(moves),
        gps_record_count=sum(len(trajectory) for trajectory in trajectories),
        trajectory_lengths=[len(trajectory) for trajectory in trajectories],
        stop_lengths=[len(stop) for stop in stops],
        move_lengths=[len(move) for move in moves],
    )


def per_user_summary(
    trajectories_by_user: Dict[str, Sequence[RawTrajectory]],
    episodes_by_user: Dict[str, Sequence[Episode]],
) -> Dict[str, Dict[str, float]]:
    """Per-user counts for the Figure 13 bar chart.

    For each user the summary contains the number of GPS records divided by
    100 (the paper rescales it for readability), the number of trajectories,
    stops and moves.
    """
    summary: Dict[str, Dict[str, float]] = {}
    for user, trajectories in trajectories_by_user.items():
        episodes = episodes_by_user.get(user, [])
        stats = episode_statistics(list(trajectories), list(episodes))
        summary[user] = {
            "gps_records_div100": stats.gps_record_count / 100.0,
            "trajectories": float(stats.trajectory_count),
            "stops": float(stats.stop_count),
            "moves": float(stats.move_count),
        }
    return summary


def dataset_overview(
    trajectories: Sequence[RawTrajectory],
) -> Dict[str, float]:
    """Dataset-level facts for the Table 1 / Table 2 rows.

    Returns the number of distinct objects, the number of GPS records, the
    tracking time span in days and the mean sampling period in seconds.
    """
    objects = {trajectory.object_id for trajectory in trajectories}
    records = sum(len(trajectory) for trajectory in trajectories)
    if trajectories:
        start = min(trajectory.start_time for trajectory in trajectories)
        end = max(trajectory.end_time for trajectory in trajectories)
        span_days = (end - start) / 86_400.0
        sampling = sum(t.average_sampling_period() * max(len(t) - 1, 0) for t in trajectories)
        intervals = sum(max(len(t) - 1, 0) for t in trajectories)
        mean_period = sampling / intervals if intervals else 0.0
    else:
        span_days = 0.0
        mean_period = 0.0
    return {
        "objects": float(len(objects)),
        "gps_records": float(records),
        "tracking_days": span_days,
        "mean_sampling_period": mean_period,
    }
