"""Motion features: per-point speed, acceleration and heading.

The stop/move detector and the transportation-mode inference both consume the
spatio-temporal correlations present in the raw stream (velocity, density,
direction - Section 3.2, design principle 1).  This module computes those
features once per trajectory so every consumer shares the same definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class MotionFeatures:
    """Per-point motion features aligned with a trajectory's GPS points.

    ``speeds[i]`` is the average speed between point ``i`` and ``i+1`` for the
    last point the previous value is repeated so the list lengths match the
    trajectory.  ``accelerations`` and ``headings`` follow the same alignment
    convention.
    """

    speeds: List[float]
    accelerations: List[float]
    headings: List[float]

    def __len__(self) -> int:
        return len(self.speeds)

    def mean_speed(self) -> float:
        """Mean of the per-point speeds (0 for empty trajectories)."""
        if not self.speeds:
            return 0.0
        return sum(self.speeds) / len(self.speeds)

    def max_speed(self) -> float:
        """Maximum per-point speed."""
        return max(self.speeds) if self.speeds else 0.0

    def mean_absolute_acceleration(self) -> float:
        """Mean of the absolute per-point accelerations."""
        if not self.accelerations:
            return 0.0
        return sum(abs(a) for a in self.accelerations) / len(self.accelerations)


def motion_features(
    xs: Sequence[float], ys: Sequence[float], ts: Sequence[float]
) -> MotionFeatures:
    """Speed, acceleration and heading for every fix of three coordinate columns.

    Per consecutive pair the :meth:`~repro.core.points.SpatioTemporalPoint.distance_to`
    distance, same operand order, so the numbers are those of a per-point loop.
    A caller holding points passes :func:`~repro.core.points.point_columns` of them.
    """
    n = len(ts)
    if n == 0:
        return MotionFeatures([], [], [])
    if n == 1:
        return MotionFeatures([0.0], [0.0], [0.0])

    speeds: List[float] = []
    headings: List[float] = []
    for x0, y0, t0, x1, y1, t1 in zip(xs, ys, ts, xs[1:], ys[1:], ts[1:]):
        dt = t1 - t0
        dx = x0 - x1
        dy = y0 - y1
        distance = math.sqrt(dx * dx + dy * dy)
        speeds.append(distance / dt if dt > 0 else 0.0)
        headings.append(math.atan2(y1 - y0, x1 - x0))
    speeds.append(speeds[-1])
    headings.append(headings[-1])

    accelerations: List[float] = [0.0]
    for index in range(1, n):
        dt = ts[index] - ts[index - 1]
        dv = speeds[index] - speeds[index - 1]
        accelerations.append(dv / dt if dt > 0 else 0.0)

    return MotionFeatures(speeds=speeds, accelerations=accelerations, headings=headings)
