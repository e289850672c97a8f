"""Sequential pattern mining and mobility statistics over semantic trajectories.

The Semantic Trajectory Analytics Layer of Figure 2 lists "Distributions,
Clustering, Sequential Mining" as the methodologies applied on top of the
annotated trajectories.  This module provides the sequential-mining and
mobility-statistics half:

* frequent *place sequences* (e.g. ``home -> office -> market``) mined from
  the structured semantic trajectories with a simple n-gram counter;
* frequent *category sequences* and *mode sequences* (the same idea applied to
  landuse categories or transportation modes);
* per-object mobility statistics: daily travelled distance, radius of
  gyration, number of distinct visited places, and the share of time per
  transportation mode.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.points import RawTrajectory
from repro.core.trajectory import StructuredSemanticTrajectory
from repro.geometry.primitives import Point


@dataclass(frozen=True)
class SequencePattern:
    """A frequent sub-sequence with its support (number of occurrences)."""

    items: Tuple[str, ...]
    support: int

    def __len__(self) -> int:
        return len(self.items)


def _ngrams(sequence: Sequence[str], length: int) -> List[Tuple[str, ...]]:
    if length <= 0:
        raise ValueError("n-gram length must be positive")
    return [tuple(sequence[i : i + length]) for i in range(len(sequence) - length + 1)]


def frequent_sequences(
    sequences: Sequence[Sequence[str]],
    min_length: int = 2,
    max_length: int = 3,
    min_support: int = 2,
) -> List[SequencePattern]:
    """Mine frequent contiguous sub-sequences from a set of label sequences.

    All n-grams of length ``min_length`` .. ``max_length`` are counted across
    the input sequences; those occurring at least ``min_support`` times are
    returned, sorted by support (descending) then by length (longer first).
    """
    if min_length > max_length:
        raise ValueError("min_length must not exceed max_length")
    counter: Counter = Counter()
    for sequence in sequences:
        for length in range(min_length, max_length + 1):
            counter.update(_ngrams(list(sequence), length))
    patterns = [
        SequencePattern(items=items, support=support)
        for items, support in counter.items()
        if support >= min_support
    ]
    patterns.sort(key=lambda pattern: (-pattern.support, -len(pattern), pattern.items))
    return patterns


def category_sequences(trajectories: Sequence[StructuredSemanticTrajectory]) -> List[List[str]]:
    """Place-category sequences (consecutive duplicates collapsed)."""
    sequences: List[List[str]] = []
    for trajectory in trajectories:
        sequence: List[str] = []
        for record in trajectory:
            category = record.place_category
            if category is None:
                continue
            if not sequence or sequence[-1] != category:
                sequence.append(category)
        sequences.append(sequence)
    return sequences


def mode_sequences(trajectories: Sequence[StructuredSemanticTrajectory]) -> List[List[str]]:
    """Transportation-mode sequences (consecutive duplicates collapsed)."""
    sequences: List[List[str]] = []
    for trajectory in trajectories:
        sequence: List[str] = []
        for mode in trajectory.mode_sequence():
            if not sequence or sequence[-1] != mode:
                sequence.append(mode)
        sequences.append(sequence)
    return sequences


# --------------------------------------------------------------------------- #
# Mobility statistics
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class MobilityStatistics:
    """Per-object mobility summary computed from raw and semantic trajectories."""

    object_id: str
    total_distance: float
    daily_distance: float
    radius_of_gyration: float
    distinct_places: int
    mode_time_share: Dict[str, float]


def radius_of_gyration(points: Sequence[Point]) -> float:
    """Root-mean-square distance of the points from their centroid.

    The classic human-mobility statistic (Gonzalez et al., cited in the paper's
    introduction); 0 for fewer than two points.
    """
    if len(points) < 2:
        return 0.0
    cx = sum(point.x for point in points) / len(points)
    cy = sum(point.y for point in points) / len(points)
    mean_square = sum((point.x - cx) ** 2 + (point.y - cy) ** 2 for point in points) / len(points)
    return math.sqrt(mean_square)


def mobility_statistics(
    object_id: str,
    raw_trajectories: Sequence[RawTrajectory],
    structured: Sequence[StructuredSemanticTrajectory] = (),
) -> MobilityStatistics:
    """Compute the mobility summary of one moving object.

    ``structured`` (when provided) supplies the distinct visited places and the
    transportation-mode time share; the distance statistics come from the raw
    trajectories.
    """
    all_positions: List[Point] = []
    total_distance = 0.0
    for trajectory in raw_trajectories:
        total_distance += trajectory.length()
        all_positions.extend(trajectory.positions)

    day_count = max(len(raw_trajectories), 1)
    places = set()
    mode_durations: Dict[str, float] = {}
    for trajectory in structured:
        for record in trajectory:
            if record.place is not None:
                places.add(record.place.place_id)
            mode = record.transport_mode
            if mode is not None:
                mode_durations[mode] = mode_durations.get(mode, 0.0) + record.duration
    total_mode_time = sum(mode_durations.values())
    mode_share = (
        {mode: duration / total_mode_time for mode, duration in mode_durations.items()}
        if total_mode_time > 0
        else {}
    )

    return MobilityStatistics(
        object_id=object_id,
        total_distance=total_distance,
        daily_distance=total_distance / day_count,
        radius_of_gyration=radius_of_gyration(all_positions),
        distinct_places=len(places),
        mode_time_share=mode_share,
    )
