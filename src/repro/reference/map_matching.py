"""Global map matching as a per-point loop — the oracle of the columnar kernel.

Algorithm 2 exactly as the paper states it: per GPS point one R-tree query for
the candidate segments, Equation 1 distances, Equation 2 local scores in a
dict per point, then per point a walk over its context window that sums the
neighbours' kernel-weighted scores (Equations 3-4) and an argmax.
:class:`ScalarMapMatcher` answers the same calls as
:class:`~repro.lines.map_matching.GlobalMapMatcher` with that loop.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import MapMatchingConfig
from repro.core.places import LineOfInterest
from repro.core.points import SpatioTemporalPoint
from repro.geometry.distance import (
    closest_point_on_segment,
    perpendicular_distance,
    point_segment_distance,
)
from repro.geometry.kernels import gaussian_kernel_weight
from repro.geometry.primitives import Point
from repro.lines.map_matching import GlobalMapMatcher, MatchedPoint, SegmentRun, segment_runs
from repro.lines.road_network import RoadNetwork
from repro.reference.rtree import RTree, RTreeEntry


class ScalarMapMatcher(GlobalMapMatcher):
    """:class:`GlobalMapMatcher` matched point by point on a scalar R-tree.

    The tree is the matcher's own, bulk-loaded from the network's segments:
    the network itself only holds the flat index this oracle checks.
    """

    def __init__(self, network: RoadNetwork, config: MapMatchingConfig = MapMatchingConfig()):
        super().__init__(network, config)
        self._tree = RTree.bulk_load(
            RTreeEntry(box=segment.bounding_box(), item=segment) for segment in network.segments
        )

    def match_runs(
        self, episodes: Sequence[Sequence[SpatioTemporalPoint]]
    ) -> List[List[SegmentRun]]:
        """Per episode, the maximal runs of points matched to one segment."""
        return [segment_runs(self.match(points)) for points in episodes]

    def match_runs_columns(
        self, lengths: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> List[List[SegmentRun]]:
        """:meth:`match_runs` on the fixes the columns hold (the loop reads positions only)."""
        points = [SpatioTemporalPoint(x, y, 0.0) for x, y in zip(xs.tolist(), ys.tolist())]
        ends = np.cumsum(lengths).tolist()
        return self.match_runs(
            [points[end - length : end] for end, length in zip(ends, lengths.tolist())]
        )

    def match(self, points: Sequence[SpatioTemporalPoint]) -> List[MatchedPoint]:
        """Match every GPS point of a move episode to a road segment."""
        local_scores = [self.local_scores(point) for point in points]
        matched: List[MatchedPoint] = []
        for index, point in enumerate(points):
            candidates = local_scores[index]
            if not candidates:
                matched.append(
                    MatchedPoint(point=point, segment=None, score=0.0, snapped=point.position)
                )
                continue
            if self._config.use_global_score:
                scores = self.global_scores(points, local_scores, index)
            else:
                scores = {seg_id: score for seg_id, (score, _) in candidates.items()}
            matched.append(self.select_best(point, candidates, scores))
        return matched

    def select_best(
        self,
        point: SpatioTemporalPoint,
        candidates: Dict[str, Tuple[float, LineOfInterest]],
        scores: Dict[str, float],
    ) -> MatchedPoint:
        """Pick the highest-scoring candidate and snap the point onto it."""
        best_id = max(scores.items(), key=lambda pair: (pair[1], pair[0]))[0]
        best_segment = candidates[best_id][1]
        snapped = closest_point_on_segment(point.position, best_segment.segment)
        return MatchedPoint(
            point=point, segment=best_segment, score=scores[best_id], snapped=snapped
        )

    def _distance(self, point: Point, segment: LineOfInterest) -> float:
        if self._config.distance_metric == "perpendicular":
            return perpendicular_distance(point, segment.segment)
        return point_segment_distance(point, segment.segment)

    def local_scores(
        self, point: SpatioTemporalPoint
    ) -> Dict[str, Tuple[float, LineOfInterest]]:
        """Equation 2: localScore of every candidate segment of ``point``."""
        # candidateSegs(Q): neighbouring segments by Equation 1 distance.
        candidates = self._tree.within_distance(
            point.position,
            self._config.candidate_radius,
            distance_fn=lambda q, entry: point_segment_distance(q, entry.item.segment),
        )[: self._config.max_candidates]
        distances = {
            entry.item.place_id: (self._distance(point.position, entry.item), entry.item)
            for _, entry in candidates
        }
        if not distances:
            return {}
        d_min = min(distance for distance, _ in distances.values())
        scores: Dict[str, Tuple[float, LineOfInterest]] = {}
        for segment_id, (distance, segment) in distances.items():
            if distance <= 0.0:
                score = 1.0
            elif d_min <= 0.0:
                score = 0.0
            else:
                score = d_min / distance
            scores[segment_id] = (score, segment)
        return scores

    def global_scores(
        self,
        points: Sequence[SpatioTemporalPoint],
        local_scores: Sequence[Dict[str, Tuple[float, LineOfInterest]]],
        index: int,
    ) -> Dict[str, float]:
        """Equations 3-4: kernel-weighted global score of each candidate of point ``index``."""
        center = points[index].position
        radius = self._config.context_radius
        sigma = self._config.kernel_width
        candidate_ids = list(local_scores[index].keys())

        weighted_sum: Dict[str, float] = {segment_id: 0.0 for segment_id in candidate_ids}
        weight_total = 0.0
        # Aggregate the neighbours inside the context window in both directions.
        for neighbor_index in self._window_indices(points, index, radius):
            weight = gaussian_kernel_weight(
                center.distance_to(points[neighbor_index].position),
                bandwidth=sigma,
                radius=radius,
            )
            if weight <= 0.0:
                continue
            weight_total += weight
            neighbor_scores = local_scores[neighbor_index]
            for segment_id in candidate_ids:
                if segment_id in neighbor_scores:
                    weighted_sum[segment_id] += weight * neighbor_scores[segment_id][0]

        if weight_total <= 0.0:
            return {segment_id: score for segment_id, (score, _) in local_scores[index].items()}
        return {segment_id: total / weight_total for segment_id, total in weighted_sum.items()}

    def _window_indices(
        self, points: Sequence[SpatioTemporalPoint], index: int, radius: float
    ) -> List[int]:
        """Indices of points within ``radius`` of point ``index`` (the 2R window).

        Walks backwards and forwards from the centre and stops as soon as a
        point leaves the view radius, mirroring the N1-before/N2-after window
        of the paper.
        """
        center = points[index].position
        window = [index]
        cursor = index - 1
        while cursor >= 0 and center.distance_to(points[cursor].position) < radius:
            window.append(cursor)
            cursor -= 1
        cursor = index + 1
        while cursor < len(points) and center.distance_to(points[cursor].position) < radius:
            window.append(cursor)
            cursor += 1
        return sorted(window)
