"""Baseline map-matching algorithms.

Three comparators for the global matcher of Algorithm 2, mirroring the
taxonomy of the related-work section (geometric, topological/incremental and
advanced probabilistic methods):

* :class:`NearestSegmentMatcher` — pure geometric matching: each point goes to
  its closest segment independently (point-to-curve / point-segment distance).
* :class:`IncrementalMatcher` — topological matching: prefers candidates that
  are connected to the previously matched segment.
* :class:`ViterbiMatcher` — an HMM-style matcher in the spirit of Newson &
  Krumm: emission probabilities from the point-segment distance, transition
  probabilities from network connectivity, decoded with Viterbi.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.places import LineOfInterest
from repro.core.points import SpatioTemporalPoint
from repro.geometry.distance import closest_point_on_segment, point_segment_distance
from repro.lines.map_matching import MatchedPoint
from repro.lines.road_network import RoadNetwork


def _candidates(
    network: RoadNetwork, points: Sequence[SpatioTemporalPoint], radius: float
) -> List[List[Tuple[float, LineOfInterest]]]:
    """Per point its candidate segments, nearest first: one index query for all."""
    return network.flat_index().within_distance_pairs(
        [point.position for point in points], radius
    )


class NearestSegmentMatcher:
    """Geometric baseline: match each point to its nearest segment."""

    def __init__(self, network: RoadNetwork, candidate_radius: float = 50.0):
        self._network = network
        self._candidate_radius = candidate_radius

    def match(self, points: Sequence[SpatioTemporalPoint]) -> List[MatchedPoint]:
        """Match every point independently to the closest road segment."""
        results: List[MatchedPoint] = []
        candidate_lists = _candidates(self._network, points, self._candidate_radius)
        for point, candidates in zip(points, candidate_lists):
            if not candidates:
                results.append(
                    MatchedPoint(point=point, segment=None, score=0.0, snapped=point.position)
                )
                continue
            distance, segment = candidates[0]
            score = 1.0 / (1.0 + distance)
            snapped = closest_point_on_segment(point.position, segment.segment)
            results.append(MatchedPoint(point=point, segment=segment, score=score, snapped=snapped))
        return results


class IncrementalMatcher:
    """Topological baseline: prefer candidates connected to the previous match."""

    def __init__(
        self,
        network: RoadNetwork,
        candidate_radius: float = 50.0,
        connectivity_bonus: float = 0.3,
    ):
        self._network = network
        self._candidate_radius = candidate_radius
        self._connectivity_bonus = connectivity_bonus

    def match(self, points: Sequence[SpatioTemporalPoint]) -> List[MatchedPoint]:
        """Match points left to right, rewarding topological continuity."""
        results: List[MatchedPoint] = []
        previous_id: Optional[str] = None
        candidate_lists = _candidates(self._network, points, self._candidate_radius)
        for point, candidates in zip(points, candidate_lists):
            if not candidates:
                results.append(
                    MatchedPoint(point=point, segment=None, score=0.0, snapped=point.position)
                )
                previous_id = None
                continue
            d_min = candidates[0][0]
            best: Optional[Tuple[float, LineOfInterest]] = None
            for distance, segment in candidates:
                proximity = (d_min / distance) if distance > 0 else 1.0
                continuity = 0.0
                if previous_id is not None and self._network.are_connected(
                    previous_id, segment.place_id
                ):
                    continuity = self._connectivity_bonus
                score = proximity + continuity
                if best is None or score > best[0]:
                    best = (score, segment)
            assert best is not None
            score, segment = best
            snapped = closest_point_on_segment(point.position, segment.segment)
            results.append(MatchedPoint(point=point, segment=segment, score=score, snapped=snapped))
            previous_id = segment.place_id
        return results


class ViterbiMatcher:
    """HMM-style baseline matcher (Newson & Krumm flavoured).

    Emission probability of a candidate decays exponentially with the
    point-segment distance (scale ``emission_scale``); transition probability
    decays with the topological hop distance between consecutive candidates.
    The most likely segment sequence is decoded with the Viterbi algorithm in
    log space.
    """

    def __init__(
        self,
        network: RoadNetwork,
        candidate_radius: float = 50.0,
        emission_scale: float = 20.0,
        hop_penalty: float = 1.5,
        max_hops: int = 3,
    ):
        self._network = network
        self._candidate_radius = candidate_radius
        self._emission_scale = emission_scale
        self._hop_penalty = hop_penalty
        self._max_hops = max_hops

    def match(self, points: Sequence[SpatioTemporalPoint]) -> List[MatchedPoint]:
        """Decode the jointly most likely segment sequence for ``points``."""
        if not points:
            return []
        candidate_lists = _candidates(self._network, points, self._candidate_radius)

        # Forward pass of Viterbi in log space.
        log_prob: List[Dict[str, float]] = []
        back: List[Dict[str, Optional[str]]] = []
        segments_by_id: Dict[str, LineOfInterest] = {}

        for index, candidates in enumerate(candidate_lists):
            current: Dict[str, float] = {}
            pointers: Dict[str, Optional[str]] = {}
            for distance, segment in candidates:
                segments_by_id[segment.place_id] = segment
                emission = -distance / self._emission_scale
                if index == 0 or not log_prob[-1]:
                    current[segment.place_id] = emission
                    pointers[segment.place_id] = None
                    continue
                best_prev: Optional[str] = None
                best_value = -math.inf
                for previous_id, previous_value in log_prob[-1].items():
                    hops = self._network.connectivity_distance(
                        previous_id, segment.place_id, max_hops=self._max_hops
                    )
                    if hops is None:
                        transition = -self._hop_penalty * (self._max_hops + 1)
                    else:
                        transition = -self._hop_penalty * hops
                    value = previous_value + transition
                    if value > best_value:
                        best_value = value
                        best_prev = previous_id
                current[segment.place_id] = best_value + emission
                pointers[segment.place_id] = best_prev
            log_prob.append(current)
            back.append(pointers)

        # Backtrack the best path.  Points without candidates break the chain;
        # each maximal chain is decoded independently (walking backwards and
        # restarting from the local argmax whenever the previous chain ended).
        chosen: List[Optional[str]] = [None] * len(points)
        best_id: Optional[str] = None
        for index in range(len(points) - 1, -1, -1):
            if not log_prob[index]:
                best_id = None
                continue
            if best_id is None or best_id not in log_prob[index]:
                best_id = max(log_prob[index].items(), key=lambda pair: pair[1])[0]
            chosen[index] = best_id
            best_id = back[index].get(best_id)

        results: List[MatchedPoint] = []
        for point, segment_id in zip(points, chosen):
            if segment_id is None:
                results.append(
                    MatchedPoint(point=point, segment=None, score=0.0, snapped=point.position)
                )
                continue
            segment = segments_by_id[segment_id]
            distance = point_segment_distance(point.position, segment.segment)
            snapped = closest_point_on_segment(point.position, segment.segment)
            results.append(
                MatchedPoint(
                    point=point,
                    segment=segment,
                    score=1.0 / (1.0 + distance),
                    snapped=snapped,
                )
            )
        return results
