"""Global map matching (Algorithm 2, Equations 1-4).

For every GPS point of a move episode the matcher:

1. selects the candidate segments within ``candidate_radius`` through the road
   network's spatial index;
2. computes the point-segment distance of Equation 1 to every candidate;
3. normalises those distances to a ``localScore`` (Equation 2): the ratio of
   the minimum distance over the candidate's distance, so the closest
   candidate scores 1 and farther ones score proportionally less;
4. aggregates the local scores of the neighbouring points inside the context
   window (radius R) with Gaussian kernel weights (Equations 3-4) to produce
   the ``globalScore``;
5. picks the candidate with the highest global score and, when requested,
   snaps the GPS position onto it.

There is one implementation: the whole of steps 1-5 is one columnar kernel
(:meth:`GlobalMapMatcher.match_columns`, which takes the episodes as
``(lengths, xs, ys)`` coordinate columns) over ``(point, candidate)`` pair
arrays, at every episode length (6-13x the per-point loop at 64-256 points).
The line annotation reads its runs off it (:meth:`~GlobalMapMatcher.match_runs_columns`),
and :meth:`~GlobalMapMatcher.match` hands one episode's points to it and
returns a :class:`MatchedPoint` per fix.  The per-point loop — one R-tree
query and one dict-based score aggregation per point — is the oracle the
parity tests compare the kernel against and lives outside the product, as
``ScalarMapMatcher`` in the reference package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MapMatchingConfig
from repro.core.places import LineOfInterest
from repro.core.points import SpatioTemporalPoint
from repro.geometry.distance import closest_point_on_segment
from repro.geometry.primitives import Point
from repro.geometry.vectorized import (
    distances_to_point,
    gaussian_kernel_weights,
    perpendicular_distances,
)
from repro.index.flat import expand_ranges
from repro.lines.road_network import RoadNetwork

#: A maximal run of consecutive points matched to one segment (``None`` when
#: unmatched): ``(start, end, segment)`` over the half-open point range.
SegmentRun = Tuple[int, int, Optional[LineOfInterest]]

#: Rows of the (window member, candidate) join per block of the score
#: accumulation: every transient array of the kernel is at most this long plus
#: one point's own join, however long and dense an episode is.
_JOIN_BUDGET = 1 << 16


@dataclass(frozen=True)
class MatchedPoint:
    """Result of matching one GPS point.

    Attributes
    ----------
    point:
        The original GPS fix.
    segment:
        The matched road segment, or None when no candidate was within reach.
    score:
        The winning global score (0 when unmatched).
    snapped:
        The corrected position on the matched segment (Algorithm 2 line 17),
        or the original position when unmatched.
    """

    point: SpatioTemporalPoint
    segment: Optional[LineOfInterest]
    score: float
    snapped: Point

    @property
    def is_matched(self) -> bool:
        """True when a road segment was found for this point."""
        return self.segment is not None

    @property
    def segment_id(self) -> Optional[str]:
        """Identifier of the matched segment, or None."""
        return self.segment.place_id if self.segment is not None else None


class GlobalMapMatcher:
    """The global map-matching algorithm of Section 4.2.

    One batch query against the network's compiled
    :class:`~repro.index.flat.FlatSpatialIndex` for all points handed in, then
    array operations from Equation 2 to the argmax.  Candidate selection,
    ordering, accumulation order and tie-breaking are those of the per-point
    oracle, so both match every point to the same segment; scores agree to
    within 1 ulp (``np.exp`` versus ``math.exp`` in the kernel weights).
    """

    def __init__(self, network: RoadNetwork, config: MapMatchingConfig = MapMatchingConfig()):
        self._network = network
        self._config = config

    @property
    def network(self) -> RoadNetwork:
        """The underlying road network."""
        return self._network

    @property
    def config(self) -> MapMatchingConfig:
        """The active map-matching configuration."""
        return self._config

    # -------------------------------------------------------------- matching
    def match(self, points: Sequence[SpatioTemporalPoint]) -> List[MatchedPoint]:
        """Match every GPS point of a move episode to a road segment.

        :meth:`match_columns` of the episode's coordinates, one record per point.
        """
        count = len(points)
        rows, scores = self.match_columns(
            np.array([count], dtype=np.intp),
            np.fromiter((point.x for point in points), np.float64, count),
            np.fromiter((point.y for point in points), np.float64, count),
        )
        segments = self._network.flat_index().payloads
        matched: List[MatchedPoint] = []
        for point, row, score in zip(points, rows.tolist(), scores.tolist()):
            if row < 0:
                matched.append(
                    MatchedPoint(point=point, segment=None, score=0.0, snapped=point.position)
                )
            else:
                segment = segments[row]
                snapped = closest_point_on_segment(point.position, segment.segment)
                matched.append(
                    MatchedPoint(point=point, segment=segment, score=score, snapped=snapped)
                )
        return matched

    def match_runs_columns(
        self, lengths: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> List[List[SegmentRun]]:
        """Per episode, the maximal runs of fixes matched to one segment.

        The form the line annotation consumes (Algorithm 2's route sequence):
        ``lengths`` are the episodes' fix counts and ``xs`` / ``ys`` their
        concatenated coordinates; all episodes are matched in one kernel call
        and the runs are read off the matched-row array, without a per-point
        object.
        """
        rows, _ = self.match_columns(lengths, xs, ys)
        first = np.cumsum(lengths) - lengths
        # A run starts at every episode start and wherever the matched row changes.
        is_start = np.ones(len(rows), dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=is_start[1:])
        is_start[first[lengths > 0]] = True
        starts = np.flatnonzero(is_start)
        base = np.repeat(first, lengths)[starts]
        segments = self._network.flat_index().payloads
        runs: List[SegmentRun] = list(
            zip(
                (starts - base).tolist(),
                (np.append(starts[1:], len(rows)) - base).tolist(),
                [segments[row] if row >= 0 else None for row in rows[starts].tolist()],
            )
        )
        cuts = np.searchsorted(starts, np.append(first, len(rows))).tolist()
        return [runs[low:high] for low, high in zip(cuts, cuts[1:])]

    # ------------------------------------------------------- columnar kernel
    def match_columns(
        self, lengths: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Algorithm 2 over concatenated episodes given as coordinate columns.

        ``lengths`` (``np.intp``) are the episodes' fix counts, ``xs`` / ``ys``
        (``float64``) their coordinates back to back.  Returns
        ``(rows, scores)``: per fix the flat-index row of the winning segment
        (``-1`` when no candidate was within reach) and its score.  Episode
        boundaries are context-window barriers, so matching several episodes
        in one call gives each the result of a call of its own while paying
        the fixed cost of the array operations once.  A ``lengths`` that does
        not sum to the columns' length raises ``ValueError``.
        """
        count = int(lengths.sum())
        if not count == len(xs) == len(ys):
            raise ValueError(
                f"episode lengths sum to {count} but the columns hold "
                f"{len(xs)} xs and {len(ys)} ys"
            )
        config = self._config
        best_rows = np.full(count, -1, dtype=np.intp)
        best_scores = np.zeros(count)

        # Candidates of every point in (distance, row) order, cut to the
        # closest ``max_candidates`` like the scalar selection.
        flat = self._network.flat_index()
        offsets, rows, distances = flat.within_distance_batch(xs, ys, config.candidate_radius)
        if len(rows) == 0:
            return best_rows, best_scores
        counts = np.diff(offsets)
        if counts.max() > config.max_candidates:
            keep = (
                np.arange(len(rows)) - np.repeat(offsets[:-1], counts) < config.max_candidates
            )
            rows, distances = rows[keep], distances[keep]
            counts = np.minimum(counts, config.max_candidates)
            offsets = np.concatenate(([0], np.cumsum(counts)))
        point_of = np.repeat(np.arange(count), counts)
        columns = self._network.segment_arrays()
        if config.distance_metric == "perpendicular":
            distances = perpendicular_distances(
                xs[point_of],
                ys[point_of],
                columns.start_xs[rows],
                columns.start_ys[rows],
                columns.end_xs[rows],
                columns.end_ys[rows],
            )

        # Equation 2: d_min / d per pair (1 on the segment itself; 0 / d = 0
        # when only another candidate is at distance 0).
        has_candidates = counts > 0
        first_pair = offsets[:-1][has_candidates]
        nearest = np.repeat(np.minimum.reduceat(distances, first_pair), counts[has_candidates])
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(distances <= 0.0, 1.0, nearest / distances)
        if config.use_global_score:
            scores = self._global_score_columns(
                xs, ys, lengths, offsets, counts, point_of, rows, scores
            )

        # Argmax per point; an exact score tie goes to the largest place id.
        order = np.lexsort((columns.id_ranks[rows], scores, point_of))
        winners = order[offsets[1:][has_candidates] - 1]
        best_rows[has_candidates] = rows[winners]
        best_scores[has_candidates] = scores[winners]
        return best_rows, best_scores

    def _global_score_columns(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        lengths: np.ndarray,
        offsets: np.ndarray,
        counts: np.ndarray,
        point_of: np.ndarray,
        rows: np.ndarray,
        local: np.ndarray,
    ) -> np.ndarray:
        """Equations 3-4 for every ``(point, candidate)`` pair.

        Once :meth:`_window_reach` has sized every window, the points that
        have candidates are taken in blocks: a block lists its windows point
        by point, neighbours in increasing index, and the sums are accumulated
        in that listed order (``np.add.at`` applies its updates one by one) —
        the scalar loop's float accumulation order, since every pair belongs
        to one point.  A neighbour's score for the same segment is found by a
        sorted-key join on ``(point, row)``.  Blocks are cut where the join
        reaches ``_JOIN_BUDGET`` rows, so only the per-point and per-pair
        columns grow with the input.
        """
        radius = self._config.context_radius
        before, after = self._window_reach(xs, ys, lengths)
        stride = len(self._network)
        keys = point_of * stride + rows
        by_key = np.argsort(keys)
        # The trailing sentinel makes every searchsorted position indexable.
        sorted_keys = np.append(keys[by_key], np.iinfo(keys.dtype).max)
        sorted_local = np.append(local[by_key], 0.0)
        weight_total = np.zeros(len(xs))
        weighted_sum = np.zeros(len(rows))

        centres = np.flatnonzero(counts)
        join_rows = np.cumsum((before + after + 1)[centres] * counts[centres])
        cuts = np.flatnonzero(np.diff(join_rows // _JOIN_BUDGET, prepend=-1))
        for low, high in zip(cuts, np.append(cuts[1:], len(centres))):
            block = centres[low:high]
            centre, neighbour = expand_ranges(
                block, block - before[block], block + after[block] + 1
            )
            weights = gaussian_kernel_weights(
                distances_to_point(xs[neighbour], ys[neighbour], xs[centre], ys[centre]),
                bandwidth=self._config.kernel_width,
                radius=radius,
            )
            np.add.at(weight_total, centre, weights)
            member, pairs = expand_ranges(
                np.arange(len(centre)), offsets[centre], offsets[centre + 1]
            )
            wanted = neighbour[member] * stride + rows[pairs]
            found = np.searchsorted(sorted_keys, wanted)
            # A neighbour without this candidate adds +0.0, which leaves the
            # non-negative sum bit-identical to skipping it.
            terms = weights[member] * np.where(
                sorted_keys[found] == wanted, sorted_local[found], 0.0
            )
            np.add.at(weighted_sum, pairs, terms)
        return weighted_sum / weight_total[point_of]

    def _window_reach(
        self, xs: np.ndarray, ys: np.ndarray, lengths: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """How many neighbours before and after each point its context window holds.

        All windows are walked outwards together, one offset per pass in both
        directions at once; a walk ends at the first neighbour at distance
        ``>= R`` (strict ``<``, like the scalar walk) or at the end of the
        episode, which an infinitely distant barrier slot around every episode
        turns into the same test.
        """
        count = len(xs)
        radius = self._config.context_radius
        index = np.arange(count)
        slots = index + np.repeat(np.arange(1, len(lengths) + 1), lengths)
        padded_xs = np.full(count + len(lengths) + 1, np.inf)
        padded_ys = np.full(count + len(lengths) + 1, np.inf)
        padded_xs[slots] = xs
        padded_ys[slots] = ys

        reach = np.zeros((2, count), dtype=np.intp)  # rows: before, after
        points = np.concatenate((index, index))
        side = np.repeat((0, 1), count)
        there = slots[points]
        direction = 2 * side - 1
        while len(points):
            there = there + direction
            near = (
                distances_to_point(padded_xs[there], padded_ys[there], xs[points], ys[points])
                < radius
            )
            points, side = points[near], side[near]
            there, direction = there[near], direction[near]
            reach[side, points] += 1
        return reach[0], reach[1]


def matching_accuracy(
    matched_ids: Sequence[Optional[str]], truth_ids: Sequence[Optional[str]]
) -> float:
    """Fraction of points matched to the ground-truth segment.

    Points without a ground-truth segment (off-network) are skipped; the
    metric is the one plotted in Figure 10.
    """
    if len(matched_ids) != len(truth_ids):
        raise ValueError("matched and truth sequences must have the same length")
    considered = 0
    correct = 0
    for matched, truth in zip(matched_ids, truth_ids):
        if truth is None:
            continue
        considered += 1
        if matched == truth:
            correct += 1
    if considered == 0:
        return 0.0
    return correct / considered
