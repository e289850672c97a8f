"""The velocity stop policy point by point — the oracle of the speed-column compare."""

from __future__ import annotations

from typing import List, Sequence

from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.preprocessing.features import compute_motion_features
from repro.preprocessing.stops import StopMoveDetector


def velocity_stop_flags(
    points: Sequence[SpatioTemporalPoint], speed_threshold: float
) -> List[bool]:
    """Per-point stop-candidate flags of the velocity policy."""
    features = compute_motion_features(points)
    return [speed < speed_threshold for speed in features.speeds]


class ScalarStopMoveDetector(StopMoveDetector):
    """:class:`StopMoveDetector` whose velocity flags come from the per-point loop."""

    def _velocity_flags(self, trajectory: RawTrajectory) -> List[bool]:
        return velocity_stop_flags(trajectory.points, self._config.speed_threshold)
