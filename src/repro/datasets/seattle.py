"""Ground-truth drive generator for the map-matching benchmark.

Substitute for Krumm's Seattle benchmark (a 2-hour drive with the true road
path): a long drive across the synthetic road network where the true road
segment of every GPS fix is recorded.  The map-matching sensitivity benchmark
(Figure 10) sweeps the global view radius R and the kernel width sigma against
this ground truth, at several GPS noise levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.points import RawTrajectory
from repro.datasets.movement import concatenate, sample_path
from repro.datasets.routing import RoadRouter
from repro.datasets.world import SyntheticWorld
from repro.geometry.primitives import Point


@dataclass
class GroundTruthDrive:
    """A drive with per-fix ground-truth road segments."""

    trajectory: RawTrajectory
    truth_segment_ids: List[Optional[str]]

    def __post_init__(self) -> None:
        if len(self.trajectory) != len(self.truth_segment_ids):
            raise ValueError("each GPS fix needs exactly one ground-truth segment entry")


class GroundTruthDriveGenerator:
    """Generates long drives across the synthetic network with known truth."""

    def __init__(
        self,
        world: SyntheticWorld,
        waypoint_count: int = 6,
        sample_interval: float = 2.0,
        noise_sigma: float = 8.0,
        speed: float = 10.0,
        seed: int = 41,
    ):
        self._world = world
        self._waypoint_count = waypoint_count
        self._sample_interval = sample_interval
        self._noise_sigma = noise_sigma
        self._speed = speed
        self._seed = seed
        self._router = RoadRouter(world.road_network(), allowed_types=("road", "highway"))

    def generate(self, noise_sigma: Optional[float] = None) -> GroundTruthDrive:
        """Generate one drive visiting several random destinations in sequence."""
        rng = np.random.default_rng(self._seed)
        sigma = noise_sigma if noise_sigma is not None else self._noise_sigma
        destinations = [self._world.random_core_location(rng) for _ in range(self._waypoint_count)]
        pieces = []
        current_time = 0.0
        position = destinations[0]
        for destination in destinations[1:]:
            waypoints, segment_ids = self._router.shortest_path(position, destination)
            piece = sample_path(
                waypoints,
                segment_ids,
                speed=self._speed,
                sample_interval=self._sample_interval,
                noise_sigma=sigma,
                rng=rng,
                start_time=current_time,
            )
            pieces.append(piece)
            current_time = piece.end_time
            position = destination
        combined = concatenate(pieces)
        trajectory = RawTrajectory(
            combined.points, object_id="benchmark-drive", trajectory_id=f"drive-sigma{sigma:g}"
        )
        return GroundTruthDrive(
            trajectory=trajectory, truth_segment_ids=combined.truth_segment_ids
        )
