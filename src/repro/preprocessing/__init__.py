"""Trajectory Computation Layer (Figure 2, bottom layer).

Performs the data preprocessing operations of Section 3.3 before semantic
annotation: outlier removal and smoothing, raw trajectory identification from
the GPS stream, motion feature extraction (speed, acceleration, heading) and
the segmentation of raw trajectories into stop and move episodes according to
the configured computing policy.
"""

from repro.preprocessing.cleaning import GpsCleaner
from repro.preprocessing.features import MotionFeatures, motion_features
from repro.preprocessing.identification import TrajectoryIdentifier
from repro.preprocessing.stops import StopMoveDetector

__all__ = [
    "GpsCleaner",
    "MotionFeatures",
    "motion_features",
    "TrajectoryIdentifier",
    "StopMoveDetector",
]
