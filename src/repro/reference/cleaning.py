"""Batch cleaning and identification point by point — the oracle of the column scans.

:class:`ScalarGpsCleaner` and :class:`ScalarTrajectoryIdentifier` are the
greedy outlier filter, the sliding-window smoother and the gap split written
over :class:`~repro.core.points.SpatioTemporalPoint` sequences, one point
method call per fix, the way the paper states them.
:func:`ingest_points` chains them like
:meth:`~repro.core.pipeline.SeMiTriPipeline.ingest_stream`, which must give
the same trajectories, float for float.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence

from repro.core.config import CleaningConfig, PipelineConfig, TrajectoryIdentificationConfig
from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory, SpatioTemporalPoint


class ScalarGpsCleaner:
    """Outlier removal and smoothing, one point at a time."""

    def __init__(self, config: CleaningConfig = CleaningConfig()):
        self._config = config

    def remove_outliers(
        self, points: Sequence[SpatioTemporalPoint]
    ) -> List[SpatioTemporalPoint]:
        """Drop fixes faster than ``max_speed`` from the last kept fix (the anchor)."""
        if not points:
            return []
        cleaned: List[SpatioTemporalPoint] = [points[0]]
        for candidate in points[1:]:
            anchor = cleaned[-1]
            dt = candidate.t - anchor.t
            if dt < 0:
                raise DataQualityError("GPS stream timestamps must be non-decreasing")
            if dt == 0:
                continue
            if anchor.distance_to(candidate) / dt <= self._config.max_speed:
                cleaned.append(candidate)
        return cleaned

    def smooth(self, points: Sequence[SpatioTemporalPoint]) -> List[SpatioTemporalPoint]:
        """Centred ``statistics.median`` / ``fmean`` window per interior point."""
        window = self._config.smoothing_window
        method = self._config.smoothing_method
        if window <= 1 or method == "none" or len(points) < 3:
            return list(points)
        return smooth_per_point(points, window, method)

    def clean(self, points: Sequence[SpatioTemporalPoint]) -> List[SpatioTemporalPoint]:
        """Outlier removal followed by smoothing."""
        return self.smooth(self.remove_outliers(points))


def smooth_per_point(
    points: Sequence[SpatioTemporalPoint], window: int, method: str
) -> List[SpatioTemporalPoint]:
    """The sliding-window loop: each interior point from its clipped centred window.

    The first and last points are kept as they are; ``window // 2`` fixes on
    each side, so an even ``window`` acts as ``window + 1``.
    """
    half = window // 2
    aggregate = statistics.median if method == "median" else statistics.fmean
    smoothed: List[SpatioTemporalPoint] = []
    for index, point in enumerate(points):
        if index == 0 or index == len(points) - 1:
            smoothed.append(point)
            continue
        lo = max(0, index - half)
        hi = min(len(points), index + half + 1)
        xs = [p.x for p in points[lo:hi]]
        ys = [p.y for p in points[lo:hi]]
        smoothed.append(SpatioTemporalPoint(aggregate(xs), aggregate(ys), point.t))
    return smoothed


class ScalarTrajectoryIdentifier:
    """The gap split, one consecutive point pair at a time."""

    def __init__(self, config: TrajectoryIdentificationConfig = TrajectoryIdentificationConfig()):
        self._config = config

    def split(
        self,
        points: Sequence[SpatioTemporalPoint],
        object_id: str = "unknown",
        id_prefix: str = "",
    ) -> List[RawTrajectory]:
        """Cut at every time gap above ``max_time_gap`` or jump above ``max_distance_gap``."""
        if not points:
            return []
        segments: List[List[SpatioTemporalPoint]] = [[points[0]]]
        for previous, current in zip(points, points[1:]):
            time_gap = current.t - previous.t
            distance_gap = previous.distance_to(current)
            if time_gap > self._config.max_time_gap or distance_gap > self._config.max_distance_gap:
                segments.append([current])
            else:
                segments[-1].append(current)

        prefix = id_prefix if id_prefix else object_id
        return [
            RawTrajectory(segment, object_id=object_id, trajectory_id=f"{prefix}-t{index}")
            for index, segment in enumerate(segments)
            if len(segment) >= self._config.min_points
        ]


def ingest_points(
    points: Sequence[SpatioTemporalPoint], config: PipelineConfig, object_id: str = "unknown"
) -> List[RawTrajectory]:
    """Clean a point stream and split it into raw trajectories, point by point."""
    cleaned = ScalarGpsCleaner(config.cleaning).clean(points)
    return ScalarTrajectoryIdentifier(config.identification).split(cleaned, object_id=object_id)
