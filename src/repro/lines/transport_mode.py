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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import TransportModeConfig
from repro.core.points import SpatioTemporalPoint
from repro.lines.map_matching import MatchedPoint, SegmentRun, segment_runs
from repro.preprocessing.features import compute_motion_features, motion_features

#: Modes the classifier can emit.
TRANSPORT_MODES: Tuple[str, ...] = ("walk", "bicycle", "bus", "metro", "car", "train")


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


class TransportModeClassifier:
    """Infers the transportation mode of matched move episodes."""

    def __init__(self, config: TransportModeConfig = TransportModeConfig()):
        self._config = config

    @property
    def config(self) -> TransportModeConfig:
        """The active transport-mode configuration."""
        return self._config

    # ------------------------------------------------------------ single run
    def classify(
        self,
        points: Sequence[SpatioTemporalPoint],
        road_type: Optional[str] = None,
    ) -> str:
        """Infer the mode of a homogeneous run of points on one road type."""
        features = compute_motion_features(points)
        mean_speed = features.mean_speed()
        mean_acceleration = features.mean_absolute_acceleration()
        return self._classify_from_features(mean_speed, mean_acceleration, road_type)

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
    def segment_modes(self, matched: Sequence[MatchedPoint]) -> List[ModeSegment]:
        """Group matched points by segment and infer the mode of each group.

        The output mirrors the pairs <r_i, mode_i> of Section 4.2: each matched
        route with the transportation mode used on it, in travel order.
        """
        points = [item.point for item in matched]
        return self.run_modes(
            [point.x for point in points],
            [point.y for point in points],
            [point.t for point in points],
            segment_runs(matched),
        )

    def run_modes(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        ts: Sequence[float],
        runs: Sequence[SegmentRun],
    ) -> List[ModeSegment]:
        """:meth:`segment_modes` over already-grouped runs of an episode's coordinate columns."""
        result: List[ModeSegment] = []
        for start, end, segment in runs:
            road_type = segment.road_type if segment is not None else None
            features = motion_features(xs[start:end], ys[start:end], ts[start:end])
            mean_speed = features.mean_speed()
            mode = self._classify_from_features(
                mean_speed, features.mean_absolute_acceleration(), road_type
            )
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

    def dominant_mode(self, matched: Sequence[MatchedPoint]) -> Optional[str]:
        """The mode accounting for the most travel time over the episode."""
        segments = self.segment_modes(matched)
        if not segments:
            return None
        durations: Dict[str, float] = {}
        for segment in segments:
            weight = max(segment.duration, float(segment.point_count))
            durations[segment.mode] = durations.get(segment.mode, 0.0) + weight
        return max(durations.items(), key=lambda pair: (pair[1], pair[0]))[0]

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


def mode_share_by_duration(segments: Sequence[ModeSegment]) -> Dict[str, float]:
    """Fraction of total travel time attributed to each mode."""
    total = sum(segment.duration for segment in segments)
    if total <= 0:
        return {}
    shares: Dict[str, float] = {}
    for segment in segments:
        shares[segment.mode] = shares.get(segment.mode, 0.0) + segment.duration
    return {mode: value / total for mode, value in shares.items()}
