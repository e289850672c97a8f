"""Raw trajectory identification: splitting a GPS stream into trajectories.

The GPS stream of a moving object is split into raw trajectories wherever a
large temporal or spatial separation occurs (signal loss, battery outage,
device switched off overnight).  These are exactly the "temporal separations"
and "spatial separations" computing policies of Figure 2.

The split scans a stream's ``(xs, ys, ts)`` float columns
(:meth:`TrajectoryIdentifier.split_columns`), and every kept fragment is a
trajectory over slices of them, so no point object is built.  The columns are
the only entry; the per-point loop the split must equal lives with the
test suite's oracles, outside the product.
"""

from __future__ import annotations

import math
from typing import List

from repro.core.config import TrajectoryIdentificationConfig
from repro.core.points import (
    RawTrajectory,
    _check_lengths,
    _check_order,
    _trajectory_from_columns,
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
        Columns of unequal lengths raise
        :class:`~repro.core.errors.DataQualityError`.
        """
        _check_lengths(xs, ys, ts)
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
