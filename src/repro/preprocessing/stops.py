"""Stop/move episode detection.

Segments a raw trajectory into a partition of stop and move episodes.  Three
computing policies are provided (Figure 2 lists velocity and density
thresholds among the trajectory computing policies):

* **velocity** — a point is a stop candidate when its instantaneous speed is
  below a threshold; maximal candidate runs longer than ``min_stop_duration``
  become stops (this is the predicate pair of Section 3.1).
* **density** — a point is a stop candidate when it stays within
  ``density_radius`` of the run's anchor point for at least
  ``min_stop_duration`` (a seed-and-expand variant of the classic
  stop-detection algorithm).
* **hybrid** — a point is a stop candidate when either policy flags it.

Each flag pass has one implementation, decided by what the benchmark fleet
measured: the velocity flags are one comparison over the trajectory's speed
column at every length (the per-point form is the tests' oracle, in the
reference package), the density scan is the seed-and-expand loop over
float-only distances, which no array variant beat on any measured trajectory.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import StopMoveConfig
from repro.core.episodes import Episode, EpisodeKind, validate_episode_partition
from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory
from repro.geometry.vectorized import consecutive_speeds


# The segmentation passes are module-level functions over coordinate columns
# so that the streaming subsystem's incremental detector can run exactly the
# same code on a growing trajectory's columns; :class:`StopMoveDetector`
# composes them for the batch case.


def velocity_stop_flags_arrays(
    xs: Sequence[float], ys: Sequence[float], ts: Sequence[float], speed_threshold: float
) -> List[bool]:
    """Per-point stop-candidate flags of the velocity policy, from the speed column."""
    speeds = consecutive_speeds(
        np.array(xs, dtype=np.float64),
        np.array(ys, dtype=np.float64),
        np.array(ts, dtype=np.float64),
    )
    return (speeds < speed_threshold).tolist()


def expand_density_flags(
    xs: Sequence[float],
    ys: Sequence[float],
    ts: Sequence[float],
    radius: float,
    min_duration: float,
    flags: List[bool],
) -> None:
    """Seed-and-expand density scan; sets the stop runs in the all-``False`` ``flags``.

    Each unvisited point seeds a forward expansion over the points within
    ``radius`` of it; an expansion spanning at least ``min_duration`` flags
    every point it covered and the scan continues past it, otherwise the
    next point is tried as a seed.  Distances are
    :meth:`~repro.core.points.SpatioTemporalPoint.distance_to` from the seed,
    same operand order.
    """
    n = len(ts)
    index = 0
    while index < n:
        seed_x, seed_y = xs[index], ys[index]
        end = index
        while end + 1 < n:
            dx = seed_x - xs[end + 1]
            dy = seed_y - ys[end + 1]
            if not math.sqrt(dx * dx + dy * dy) <= radius:
                break
            end += 1
        duration = ts[end] - ts[index]
        if duration >= min_duration and end > index:
            for covered in range(index, end + 1):
                flags[covered] = True
            index = end + 1
        else:
            index += 1


def density_stop_flags(
    xs: Sequence[float],
    ys: Sequence[float],
    ts: Sequence[float],
    radius: float,
    min_duration: float,
) -> List[bool]:
    """Per-point stop-candidate flags of the density policy."""
    flags = [False] * len(ts)
    expand_density_flags(xs, ys, ts, radius, min_duration, flags)
    return flags


def enforce_min_duration(
    ts: Sequence[float], flags: Sequence[bool], min_duration: float
) -> List[bool]:
    """Demote stop-candidate runs shorter than ``min_duration`` to moves.

    ``ts`` are the timestamps the flags belong to (a run's duration is the
    difference of its last and first).
    """
    result = list(flags)
    n = len(result)
    index = 0
    while index < n:
        if not result[index]:
            index += 1
            continue
        end = index
        while end + 1 < n and result[end + 1]:
            end += 1
        duration = ts[end] - ts[index]
        if duration < min_duration:
            for covered in range(index, end + 1):
                result[covered] = False
        index = end + 1
    return result


def flags_to_episodes(trajectory: RawTrajectory, flags: Sequence[bool]) -> List[Episode]:
    """Convert the per-point stop flags to maximal contiguous episodes."""
    episodes: List[Episode] = []
    n = len(flags)
    start = 0
    for index in range(1, n + 1):
        if index == n or flags[index] != flags[start]:
            kind = EpisodeKind.STOP if flags[start] else EpisodeKind.MOVE
            episodes.append(Episode(kind, trajectory, start, index))
            start = index
    return episodes


def absorb_short_moves(
    trajectory: RawTrajectory,
    episodes: List[Episode],
    min_move_points: int,
    previous_kind: Optional[EpisodeKind] = None,
) -> List[Episode]:
    """Merge move episodes shorter than ``min_move_points`` into neighbours.

    Very short moves sandwiched between stops are GPS jitter, not real
    movement; they are merged with the preceding episode (or the following
    one when they are first).  Adjacent episodes of the same kind produced
    by the merge are then coalesced.

    ``previous_kind`` seeds the demotion of a short first episode when
    ``episodes`` is the suffix of a longer segmentation (the incremental
    detector recomputes only past its sealed frontier); the default keeps the
    batch behaviour where the first episode takes the following kind.
    """
    if min_move_points <= 1 or len(episodes) <= 1:
        return episodes

    kinds: List[EpisodeKind] = []
    ranges: List[List[int]] = []
    for episode in episodes:
        kinds.append(episode.kind)
        ranges.append([episode.start_index, episode.end_index])

    # Demote short moves to the kind of their previous neighbour.
    for index in range(len(kinds)):
        is_short_move = (
            kinds[index] is EpisodeKind.MOVE
            and (ranges[index][1] - ranges[index][0]) < min_move_points
        )
        if not is_short_move:
            continue
        if index > 0:
            kinds[index] = kinds[index - 1]
        elif previous_kind is not None:
            kinds[index] = previous_kind
        elif index + 1 < len(kinds):
            kinds[index] = kinds[index + 1]

    # Coalesce adjacent episodes of equal kind.
    merged: List[Episode] = []
    current_kind = kinds[0]
    current_start, current_end = ranges[0]
    for kind, (start, end) in zip(kinds[1:], ranges[1:]):
        if kind is current_kind:
            current_end = end
        else:
            merged.append(Episode(current_kind, trajectory, current_start, current_end))
            current_kind = kind
            current_start, current_end = start, end
    merged.append(Episode(current_kind, trajectory, current_start, current_end))
    return merged


class StopMoveDetector:
    """Segments raw trajectories into stop and move episodes."""

    def __init__(self, config: StopMoveConfig = StopMoveConfig()):
        self._config = config

    @property
    def config(self) -> StopMoveConfig:
        """The active stop/move configuration."""
        return self._config

    # ------------------------------------------------------------------ API
    def segment(self, trajectory: RawTrajectory) -> List[Episode]:
        """Partition ``trajectory`` into stop and move episodes.

        The returned episodes are contiguous, start at the first GPS point and
        end at the last one; this invariant is verified before returning.
        """
        if len(trajectory) == 0:
            raise DataQualityError("cannot segment an empty trajectory")
        if len(trajectory) == 1:
            return [Episode(EpisodeKind.STOP, trajectory, 0, 1)]

        flags = self._stop_flags(trajectory)
        flags = self._enforce_min_duration(trajectory, flags)
        episodes = self._flags_to_episodes(trajectory, flags)
        episodes = self._absorb_short_moves(trajectory, episodes)
        validate_episode_partition(trajectory, episodes)
        return episodes

    def stops(self, trajectory: RawTrajectory) -> List[Episode]:
        """Only the stop episodes of the partition."""
        return [episode for episode in self.segment(trajectory) if episode.is_stop]

    def moves(self, trajectory: RawTrajectory) -> List[Episode]:
        """Only the move episodes of the partition."""
        return [episode for episode in self.segment(trajectory) if episode.is_move]

    # ----------------------------------------------------------- candidates
    def _stop_flags(self, trajectory: RawTrajectory) -> List[bool]:
        policy = self._config.policy
        if policy == "velocity":
            return self._velocity_flags(trajectory)
        if policy == "density":
            return self._density_flags(trajectory)
        velocity = self._velocity_flags(trajectory)
        density = self._density_flags(trajectory)
        return [v or d for v, d in zip(velocity, density)]

    def _velocity_flags(self, trajectory: RawTrajectory) -> List[bool]:
        return velocity_stop_flags_arrays(
            trajectory.xs, trajectory.ys, trajectory.ts, self._config.speed_threshold
        )

    def _density_flags(self, trajectory: RawTrajectory) -> List[bool]:
        """Seed-and-expand density policy.

        Starting from each unvisited point, expand forward while the points
        stay within ``density_radius`` of the seed.  If the expansion covers at
        least ``min_stop_duration`` seconds, all covered points are flagged.
        """
        return density_stop_flags(
            trajectory.xs,
            trajectory.ys,
            trajectory.ts,
            self._config.density_radius,
            self._config.min_stop_duration,
        )

    # ------------------------------------------------------------ refinement
    def _enforce_min_duration(self, trajectory: RawTrajectory, flags: List[bool]) -> List[bool]:
        """Demote stop-candidate runs shorter than ``min_stop_duration`` to moves."""
        return enforce_min_duration(trajectory.ts, flags, self._config.min_stop_duration)

    def _flags_to_episodes(self, trajectory: RawTrajectory, flags: List[bool]) -> List[Episode]:
        """Convert the per-point stop flags to maximal contiguous episodes."""
        return flags_to_episodes(trajectory, flags)

    def _absorb_short_moves(
        self, trajectory: RawTrajectory, episodes: List[Episode]
    ) -> List[Episode]:
        """Merge move episodes shorter than ``min_move_points`` into neighbours."""
        return absorb_short_moves(trajectory, episodes, self._config.min_move_points)


def segment_many(
    trajectories: Sequence[RawTrajectory], config: StopMoveConfig = StopMoveConfig()
) -> List[Episode]:
    """Segment every trajectory with a shared detector; returns all episodes."""
    detector = StopMoveDetector(config)
    episodes: List[Episode] = []
    for trajectory in trajectories:
        episodes.extend(detector.segment(trajectory))
    return episodes
