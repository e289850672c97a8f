"""Raw trajectory identification: splitting a GPS stream into trajectories.

The GPS stream of a moving object is split into raw trajectories wherever a
large temporal or spatial separation occurs (signal loss, battery outage,
device switched off overnight).  These are exactly the "temporal separations"
and "spatial separations" computing policies of Figure 2.

The split scans a stream's ``(xs, ys, ts)`` float columns
(:meth:`TrajectoryIdentifier.split_columns`), and every kept fragment is a
trajectory over slices of them, so no point object is built.
:meth:`~TrajectoryIdentifier.split` and :meth:`~TrajectoryIdentifier.split_daily`
are the same split over point sequences; the per-point loop it must equal
lives in :mod:`repro.reference.cleaning`.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.core.config import TrajectoryIdentificationConfig
from repro.core.points import (
    RawTrajectory,
    SpatioTemporalPoint,
    _check_order,
    _trajectory_from_columns,
    point_columns,
)


class TrajectoryIdentifier:
    """Splits a cleaned GPS stream into raw trajectories (Definition 1)."""

    def __init__(self, config: TrajectoryIdentificationConfig = TrajectoryIdentificationConfig()):
        self._config = config

    @property
    def config(self) -> TrajectoryIdentificationConfig:
        """The active identification configuration."""
        return self._config

    def split_columns(
        self,
        xs: List[float],
        ys: List[float],
        ts: List[float],
        object_id: str = "unknown",
        id_prefix: str = "",
    ) -> List[RawTrajectory]:
        """Split a stream's columns into trajectories at temporal or spatial gaps.

        A new trajectory starts whenever the time gap to the previous fix
        exceeds ``max_time_gap`` or the spatial jump exceeds
        ``max_distance_gap``.  Fragments are numbered in stream order,
        ``f"{prefix}-t{index}"``; those with fewer than ``min_points`` fixes
        are discarded (and keep their number).  Each kept fragment holds
        slices of the columns and is checked for non-decreasing timestamps.
        """
        if not ts:
            return []
        config = self._config
        max_time_gap = config.max_time_gap
        max_distance_gap = config.max_distance_gap
        sqrt = math.sqrt
        starts = [0]
        for index, x0, y0, t0, x1, y1, t1 in zip(
            range(1, len(ts)), xs, ys, ts, xs[1:], ys[1:], ts[1:]
        ):
            # SpatioTemporalPoint.distance_to from the previous fix, on floats.
            dx = x0 - x1
            dy = y0 - y1
            if t1 - t0 > max_time_gap or sqrt(dx * dx + dy * dy) > max_distance_gap:
                starts.append(index)
        starts.append(len(ts))

        prefix = id_prefix if id_prefix else object_id
        trajectories: List[RawTrajectory] = []
        for index, (start, end) in enumerate(zip(starts, starts[1:])):
            if end - start < config.min_points:
                continue
            fragment_ts = ts[start:end]
            _check_order(fragment_ts)
            trajectories.append(
                _trajectory_from_columns(
                    xs[start:end], ys[start:end], fragment_ts, object_id, f"{prefix}-t{index}"
                )
            )
        return trajectories

    def split(
        self,
        points: Sequence[SpatioTemporalPoint],
        object_id: str = "unknown",
        id_prefix: str = "",
    ) -> List[RawTrajectory]:
        """:meth:`split_columns` over a point sequence."""
        return self.split_columns(*point_columns(points), object_id=object_id, id_prefix=id_prefix)

    def split_daily(
        self,
        points: Sequence[SpatioTemporalPoint],
        object_id: str = "unknown",
        day_length: float = 86_400.0,
    ) -> List[RawTrajectory]:
        """Split a stream into daily trajectories, then at gaps within each day.

        The paper reports "daily trajectories" for both the taxi and the
        smartphone datasets: the stream is first cut at midnight boundaries,
        then each day is further split at large separations.
        """
        xs, ys, ts = point_columns(points)
        if not ts:
            return []
        starts = [0]
        current_day = int(ts[0] // day_length)
        for index, t in enumerate(ts):
            day = int(t // day_length)
            if day != current_day:
                starts.append(index)
                current_day = day
        starts.append(len(ts))

        trajectories: List[RawTrajectory] = []
        for day_index, (start, end) in enumerate(zip(starts, starts[1:])):
            trajectories.extend(
                self.split_columns(
                    xs[start:end],
                    ys[start:end],
                    ts[start:end],
                    object_id=object_id,
                    id_prefix=f"{object_id}-d{day_index}",
                )
            )
        return trajectories
