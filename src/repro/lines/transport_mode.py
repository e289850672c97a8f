"""Transportation-mode inference for move episodes.

The second half of the Semantic Line Annotation Layer: once a move episode is
matched to a sequence of road segments, the transportation mode of each route
(walk, bicycle, bus, metro) is inferred from the characteristics of the move
and of the matched segments — average velocity, average acceleration and road
type (Section 4.2, Algorithm 2 lines 19-23).

The rules implemented here follow the paper's description:

* points matched to a ``metro_line`` (or ``rail``) are attributed to metro
  (train) travel regardless of speed — the road type is decisive;
* points on a ``path_way`` can only be walking or cycling, separated by the
  mean speed;
* points on ordinary roads are walking, cycling or bus depending on the speed
  and acceleration profile (motorised road travel shows both higher speed and
  higher stop-and-go acceleration than cycling).

There is one entry: :meth:`TransportModeClassifier.fold_modes` classifies the
matched runs of one episode (:meth:`~repro.lines.map_matching.GlobalMapMatcher.match_runs_columns`)
from the speeds and accelerations :func:`pair_motion` computed once over the
episode's group, and :func:`dominant_mode_of` picks the episode's mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TransportModeConfig
from repro.lines.map_matching import SegmentRun

#: Modes the classifier can emit.
TRANSPORT_MODES: Tuple[str, ...] = ("walk", "bicycle", "bus", "metro", "car", "train")


def pair_motion(
    xs: np.ndarray, ys: np.ndarray, ts: np.ndarray
) -> Tuple[List[float], List[float]]:
    """Speeds and absolute accelerations along concatenated coordinate columns.

    ``speeds[k]`` is the speed from fix ``k`` to fix ``k + 1`` and
    ``accelerations[k]`` the absolute ``(speeds[k] - speeds[k - 1]) / dt`` at
    fix ``k`` (``0.0`` at fix 0, and wherever ``dt`` is not positive), with
    the operand order of :func:`~repro.preprocessing.features.motion_features`
    and its correctly rounded ``sqrt``, so every number is its loop's.  Pairs
    that straddle two episodes of a group are computed and never read.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx = xs[:-1] - xs[1:]
        dy = ys[:-1] - ys[1:]
        dt = ts[1:] - ts[:-1]
        speeds = np.where(dt > 0, np.sqrt(dx * dx + dy * dy) / dt, 0.0)
        accelerations = np.zeros(len(speeds))
        accelerations[1:] = np.abs(
            np.where(dt[:-1] > 0, (speeds[1:] - speeds[:-1]) / dt[:-1], 0.0)
        )
    return speeds.tolist(), accelerations.tolist()


def run_means(
    ts: Sequence[float],
    runs: Sequence[SegmentRun],
    speeds: List[float],
    accelerations: List[float],
    base: int = 0,
) -> List[Tuple[float, float]]:
    """Per run of one episode, its mean speed and mean absolute acceleration.

    ``speeds`` / ``accelerations`` come from :func:`pair_motion` over a group
    whose fix ``base`` is the episode's first; ``ts`` is the episode's
    timestamp column.  Per run, the lists summed are exactly those
    :func:`~repro.preprocessing.features.motion_features` of the run's slices
    builds — the last pair's speed repeated, a leading ``0.0`` acceleration
    and the last fix's ``(last - last) / dt`` — so the means are bit-for-bit
    its ``mean_speed()`` and ``mean_absolute_acceleration()``.  Float ``sum``
    is compensated on some Python versions: the same list, not the same
    total, is what makes the sums equal.
    """
    means: List[Tuple[float, float]] = []
    for start, end, _ in runs:
        count = end - start
        if count == 1:
            means.append((0.0, 0.0))
            continue
        first = base + start
        last_pair = first + count - 2
        last = speeds[last_pair]
        run_speeds = speeds[first:last_pair]
        run_speeds.append(last)
        run_speeds.append(last)
        dt = ts[end - 1] - ts[end - 2]
        run_accelerations = [0.0]
        run_accelerations += accelerations[first + 1 : last_pair + 1]
        run_accelerations.append(abs((last - last) / dt) if dt > 0 else 0.0)
        means.append((sum(run_speeds) / count, sum(run_accelerations) / count))
    return means


@dataclass(frozen=True)
class ModeSegment:
    """A maximal run of consecutive points sharing segment and inferred mode."""

    segment_id: Optional[str]
    road_type: Optional[str]
    mode: str
    time_in: float
    time_out: float
    point_count: int
    mean_speed: float

    @property
    def duration(self) -> float:
        """Duration of the run in seconds."""
        return self.time_out - self.time_in


def dominant_mode_of(segments: Sequence[ModeSegment]) -> Optional[str]:
    """The mode accounting for the most travel over ``segments`` (``None`` if empty).

    Each segment weighs ``max(duration, point_count)``, so a run of fixes with
    equal timestamps still counts; a tie goes to the greater mode name.
    """
    weights: Dict[str, float] = {}
    for segment in segments:
        weight = max(segment.duration, float(segment.point_count))
        weights[segment.mode] = weights.get(segment.mode, 0.0) + weight
    if not weights:
        return None
    return max(weights.items(), key=lambda pair: (pair[1], pair[0]))[0]


class TransportModeClassifier:
    """Infers the transportation mode of matched move episodes."""

    def __init__(self, config: TransportModeConfig = TransportModeConfig()):
        self._config = config

    @property
    def config(self) -> TransportModeConfig:
        """The active transport-mode configuration."""
        return self._config

    # ------------------------------------------------------------ single run
    def _classify_from_features(
        self,
        mean_speed: float,
        mean_acceleration: float,
        road_type: Optional[str],
    ) -> str:
        config = self._config
        if road_type == "metro_line":
            return "metro"
        if road_type == "rail":
            return "train"
        if road_type == "path_way":
            return "walk" if mean_speed <= config.walk_speed_max else "bicycle"
        if road_type == "highway":
            return "car" if mean_speed > config.bus_speed_max else "bus"
        # Ordinary roads (or unmatched points): decide from the motion profile.
        if mean_speed <= config.walk_speed_max:
            return "walk"
        if mean_speed <= config.bicycle_speed_max:
            if (
                mean_acceleration >= config.bus_acceleration_min
                and mean_speed > 0.8 * config.bicycle_speed_max
            ):
                return "bus"
            return "bicycle"
        if mean_speed <= config.bus_speed_max:
            return "bus"
        return "car"

    # ------------------------------------------------------- matched episodes
    def fold_modes(
        self,
        ts: Sequence[float],
        runs: Sequence[SegmentRun],
        speeds: List[float],
        accelerations: List[float],
        base: int = 0,
    ) -> List[ModeSegment]:
        """The mode of each matched run of one episode, its motion from :func:`pair_motion`.

        The output mirrors the pairs <r_i, mode_i> of Section 4.2: each matched
        route with the transportation mode used on it, in travel order.
        ``ts`` is the episode's timestamp column and ``runs`` are its runs; the
        episode's first fix is fix ``base`` of the group ``speeds`` and
        ``accelerations`` were computed over (see :func:`run_means`).
        """
        result: List[ModeSegment] = []
        means = run_means(ts, runs, speeds, accelerations, base)
        for (start, end, segment), (mean_speed, mean_acceleration) in zip(runs, means):
            road_type = segment.road_type if segment is not None else None
            mode = self._classify_from_features(mean_speed, mean_acceleration, road_type)
            result.append(
                ModeSegment(
                    segment_id=segment.place_id if segment is not None else None,
                    road_type=road_type,
                    mode=mode,
                    time_in=ts[start],
                    time_out=ts[end - 1],
                    point_count=end - start,
                    mean_speed=mean_speed,
                )
            )
        return self._smooth_modes(result)

    def _smooth_modes(self, segments: List[ModeSegment]) -> List[ModeSegment]:
        """Remove single-segment mode flickers between identical neighbours.

        A one-segment run of a different mode sandwiched between two runs of
        the same mode is almost always a matching artefact (e.g. one segment of
        "bicycle" in the middle of a bus ride); it is relabelled to the
        surrounding mode.  Road-type-forced modes (metro, train) are never
        overridden.
        """
        if len(segments) < 3:
            return segments
        smoothed = list(segments)
        for index in range(1, len(smoothed) - 1):
            previous, current, following = smoothed[index - 1], smoothed[index], smoothed[index + 1]
            forced = current.road_type in ("metro_line", "rail")
            if forced:
                continue
            if previous.mode == following.mode and current.mode != previous.mode:
                smoothed[index] = ModeSegment(
                    segment_id=current.segment_id,
                    road_type=current.road_type,
                    mode=previous.mode,
                    time_in=current.time_in,
                    time_out=current.time_out,
                    point_count=current.point_count,
                    mean_speed=current.mean_speed,
                )
        return smoothed
