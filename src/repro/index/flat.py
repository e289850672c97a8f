"""Read-only, array-backed batch spatial index compiled from a scalar index.

The pure-Python :class:`~repro.index.rtree.RTree` and
:class:`~repro.index.grid_index.GridIndex` answer one query at a time, paying
~10 µs of node-hopping and attribute-access overhead per point.  For the
static geographic sources (regions, road segments, POIs) every query after
``freeze()`` hits an immutable structure, so the index can be *compiled once*
into contiguous numpy arrays and queried for whole coordinate batches:

* :meth:`FlatSpatialIndex.from_rtree` flattens the (STR-bulk-loaded or
  insertion-built, but height-balanced either way) R-tree into an **implicit
  layout**: one contiguous bounding-box array per tree level plus
  ``child_start``/``child_end`` slices into the next level, ending in the leaf
  entry arrays.  Batch queries traverse the levels with vectorized
  ``(query, node)`` frontier expansion instead of per-query recursion.
* :meth:`FlatSpatialIndex.from_grid` flattens the hash grid into coordinate
  columns sorted by ``(cell_x, cell_y, insertion order)``; batch queries are
  chunked columnar scans (for the grid's point payloads a masked scan beats
  per-cell bucket walks once queries are batched).

All batch queries return CSR-style ``(offsets, indices[, distances])``
triples: query ``i``'s results are ``indices[offsets[i]:offsets[i + 1]]``,
indexing into :attr:`payloads`.

Parity contract
---------------
Results are **provably identical** — same sets, same order, bit-identical
distances — to the scalar index the flat index was compiled from:

* entries are laid out in the scalar index's structural row order (R-tree
  DFS leaf order / grid ``(cell, insertion)`` order), and every batch query
  emits matches in the scalar contract's ``(distance, row)`` (or plain row)
  order documented in :mod:`repro.index.rtree` and
  :mod:`repro.index.grid_index`;
* distances use only IEEE ``+ - * /``, ``sqrt``, ``min``/``max`` and
  comparisons — the same operation sequences as the scalar code
  (:meth:`Point.distance_to`, :meth:`BoundingBox.min_distance_to_point`,
  :func:`repro.geometry.distance.point_segment_distance`), which numpy's
  elementwise loops round identically.

``tests/test_index_flat_parity.py`` exercises the contract on random point
clouds and degenerate inputs; ``tests/test_index_ordering.py`` pins the
tie-break behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.primitives import Point, Segment
from repro.index.grid_index import GridIndex
from repro.index.rtree import RTree, _Node

__all__ = ["FlatSpatialIndex", "BatchQueryResult", "expand_ranges"]

#: ``(offsets, indices)`` — query ``i`` matched rows ``indices[offsets[i]:offsets[i+1]]``.
BatchQueryResult = Tuple[np.ndarray, np.ndarray]

#: Upper bound on the ``query x entry`` pairs materialised per brute-force
#: chunk; keeps the distance matrices cache-friendly for large batches.
_CHUNK_PAIR_BUDGET = 1 << 21


class _Level:
    """One tree level: node boxes plus child slices into the next level."""

    __slots__ = ("min_xs", "min_ys", "max_xs", "max_ys", "child_starts", "child_ends")

    def __init__(
        self,
        boxes: Sequence[Tuple[float, float, float, float]],
        counts: Sequence[int],
    ):
        box_array = np.asarray(boxes, dtype=np.float64).reshape(len(boxes), 4)
        self.min_xs = np.ascontiguousarray(box_array[:, 0])
        self.min_ys = np.ascontiguousarray(box_array[:, 1])
        self.max_xs = np.ascontiguousarray(box_array[:, 2])
        self.max_ys = np.ascontiguousarray(box_array[:, 3])
        ends = np.cumsum(np.asarray(counts, dtype=np.intp))
        self.child_ends = ends
        self.child_starts = ends - np.asarray(counts, dtype=np.intp)


def _empty_csr(query_count: int, with_distances: bool):
    offsets = np.zeros(query_count + 1, dtype=np.intp)
    indices = np.empty(0, dtype=np.intp)
    if with_distances:
        return offsets, indices, np.empty(0, dtype=np.float64)
    return offsets, indices


def expand_ranges(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Repeat each value over its ``[start, end)`` range and enumerate the members.

    Returns ``(repeated values, range members)``, ranges concatenated in
    input order.  The tree traversal expands surviving ``(query, node)`` pairs
    to their children with it (child ranges ascend with node index within
    each query, so the output stays lexicographically sorted); the columnar
    map matcher expands per-point values over CSR candidate ranges.
    """
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return values[:0], np.empty(0, dtype=np.intp)
    out_starts = np.cumsum(counts) - counts
    members = np.arange(total, dtype=np.intp) + np.repeat(starts - out_starts, counts)
    return np.repeat(values, counts), members


class FlatSpatialIndex:
    """Array-compiled read-only spatial index with CSR batch queries.

    Build one with :meth:`from_rtree` or :meth:`from_grid`; the source index
    is frozen as part of compilation, so the arrays can never go stale.  The
    ``geometry`` kind fixes how entry distances are refined:

    ``"bbox"``
        minimum distance to the entry's bounding box (the R-tree default);
    ``"point"``
        distance to the entry's point (grid payloads, degenerate boxes);
    ``"segment"``
        Equation 1 point-segment distance to the entry's segment (road
        networks; requires ``segment_of`` at compile time).
    """

    def __init__(
        self,
        levels: List[_Level],
        entry_boxes: np.ndarray,
        payloads: List[Any],
        geometry: str,
        segments: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None,
        nearest_max_radius: Optional[float] = None,
    ):
        if geometry not in ("bbox", "point", "segment"):
            raise ValueError(f"unknown flat-index geometry {geometry!r}")
        if geometry == "segment" and segments is None:
            raise ValueError("segment geometry requires endpoint arrays")
        self._levels = levels
        boxes = np.asarray(entry_boxes, dtype=np.float64).reshape(len(payloads), 4)
        self._min_xs = np.ascontiguousarray(boxes[:, 0])
        self._min_ys = np.ascontiguousarray(boxes[:, 1])
        self._max_xs = np.ascontiguousarray(boxes[:, 2])
        self._max_ys = np.ascontiguousarray(boxes[:, 3])
        self._payloads = payloads
        self._geometry = geometry
        self._segments = segments
        self._nearest_max_radius = nearest_max_radius

    # ------------------------------------------------------------ compilation
    @classmethod
    def from_rtree(
        cls,
        tree: RTree,
        segment_of: Optional[Callable[[Any], Segment]] = None,
    ) -> "FlatSpatialIndex":
        """Compile a (frozen) R-tree; freezes ``tree`` if it is not already.

        Entries land in the tree's structural row order (DFS leaf order), the
        order every scalar query's results follow.  When ``segment_of`` maps a
        payload to its :class:`Segment`, distance queries refine by exact
        point-segment distance exactly like the scalar tree's ``distance_fn``
        callbacks in :class:`~repro.lines.road_network.RoadNetwork`.
        """
        tree.freeze()
        root = tree._root  # package-internal: the compiler walks the node structure
        entries: List[Any] = []
        entry_boxes: List[Tuple[float, float, float, float]] = []
        levels: List[_Level] = []
        if len(tree) > 0:
            nodes: List[_Node] = [root]
            while True:
                is_leaf_level = nodes[0].is_leaf
                boxes: List[Tuple[float, float, float, float]] = []
                counts: List[int] = []
                for node in nodes:
                    assert node.is_leaf == is_leaf_level, "R-tree must be height-balanced"
                    assert node.box is not None
                    boxes.append((node.box.min_x, node.box.min_y, node.box.max_x, node.box.max_y))
                    counts.append(len(node.entries) if is_leaf_level else len(node.children))
                levels.append(_Level(boxes, counts))
                if is_leaf_level:
                    for node in nodes:
                        for entry in node.entries:
                            box = entry.box
                            entry_boxes.append((box.min_x, box.min_y, box.max_x, box.max_y))
                            entries.append(entry.item)
                    break
                nodes = [child for node in nodes for child in node.children]
        segments = None
        geometry = "bbox"
        if segment_of is not None:
            geometry = "segment"
            count = len(entries)
            segments = (
                np.fromiter((segment_of(item).start.x for item in entries), np.float64, count),
                np.fromiter((segment_of(item).start.y for item in entries), np.float64, count),
                np.fromiter((segment_of(item).end.x for item in entries), np.float64, count),
                np.fromiter((segment_of(item).end.y for item in entries), np.float64, count),
            )
        return cls(levels, np.asarray(entry_boxes, dtype=np.float64), entries, geometry, segments)

    @classmethod
    def from_grid(cls, grid: GridIndex) -> "FlatSpatialIndex":
        """Compile a (frozen) hash grid; freezes ``grid`` if it is not already.

        Rows follow the grid's structural order — occupied cells sorted
        lexicographically, buckets in insertion order — which is the order
        :meth:`GridIndex.query_box` visits them for any query rectangle.  The
        ``nearest`` radius cap of the scalar ring-doubling search is recorded
        so batch and scalar nearest queries agree even on its (pathological)
        boundary.
        """
        grid.freeze()
        payloads: List[Any] = []
        entry_boxes: List[Tuple[float, float, float, float]] = []
        # package-internal walk, cells in lexicographic (cell_x, cell_y) order
        for _cell, bucket in sorted(grid._cells.items(), key=lambda entry: entry[0]):
            for point, item in bucket:
                entry_boxes.append((point.x, point.y, point.x, point.y))
                payloads.append(item)
        # The scalar GridIndex.nearest doubles the scan radius starting at
        # cell_size and gives up after the doubled radius exceeds
        # cell_size * 1e6; the largest radius it actually queries is the cap
        # below (same float expressions, so the comparison is bit-identical).
        cap = grid.cell_size
        while cap * 2.0 <= grid.cell_size * 1e6:
            cap *= 2.0
        return cls(
            levels=[],
            entry_boxes=np.asarray(entry_boxes, dtype=np.float64),
            payloads=payloads,
            geometry="point",
            nearest_max_radius=cap,
        )

    # -------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def payloads(self) -> List[Any]:
        """Entry payloads, indexed by the rows the batch queries return."""
        return self._payloads

    @property
    def geometry(self) -> str:
        """Distance geometry: ``"bbox"``, ``"point"`` or ``"segment"``."""
        return self._geometry

    @property
    def segment_columns(self) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Endpoint columns ``(start_xs, start_ys, end_xs, end_ys)`` by row (segment geometry)."""
        return self._segments

    @property
    def level_count(self) -> int:
        """Number of compiled tree levels (0 for columnar grid layouts)."""
        return len(self._levels)

    def array_blocks(self) -> "OrderedDict[str, np.ndarray]":
        """Every contiguous numpy block of the compiled index, by stable name.

        The enumeration :mod:`repro.parallel.shared` exports into
        ``multiprocessing.shared_memory``: per-level bbox and child-slice
        columns, the entry-box columns and (for segment geometry) the endpoint
        columns.  Names are deterministic for a given compilation, so a
        worker-side attach maps blocks back by name; payload objects are *not*
        included — they ride the ordinary pickle.
        """
        blocks: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for depth, level in enumerate(self._levels):
            for attr in _Level.__slots__:
                blocks[f"levels[{depth}].{attr}"] = getattr(level, attr)
        blocks["entries.min_xs"] = self._min_xs
        blocks["entries.min_ys"] = self._min_ys
        blocks["entries.max_xs"] = self._max_xs
        blocks["entries.max_ys"] = self._max_ys
        if self._segments is not None:
            for name, column in zip(
                ("start_xs", "start_ys", "end_xs", "end_ys"), self._segments
            ):
                blocks[f"segments.{name}"] = column
        return blocks

    # ---------------------------------------------------------- batch queries
    def query_boxes_batch(
        self,
        min_xs: np.ndarray,
        min_ys: np.ndarray,
        max_xs: np.ndarray,
        max_ys: np.ndarray,
    ) -> BatchQueryResult:
        """Rows whose entry box intersects each query box, in row order.

        Mirrors :meth:`RTree.search` (closed-interval intersection) per query
        box; for grid layouts it mirrors :meth:`GridIndex.query_box` (a point
        intersects a degenerate box iff the box contains it).
        """
        qmin_x = np.asarray(min_xs, dtype=np.float64)
        qmin_y = np.asarray(min_ys, dtype=np.float64)
        qmax_x = np.asarray(max_xs, dtype=np.float64)
        qmax_y = np.asarray(max_ys, dtype=np.float64)
        q, rows = self._candidate_pairs(qmin_x, qmin_y, qmax_x, qmax_y)
        return self._to_csr(len(qmin_x), q, rows)

    def query_points_batch(self, xs: np.ndarray, ys: np.ndarray) -> BatchQueryResult:
        """Rows whose entry box contains each query point (degenerate boxes)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        return self.query_boxes_batch(xs, ys, xs, ys)

    def within_distance_batch(
        self, xs: np.ndarray, ys: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows within ``radius`` of each query point, in ``(distance, row)`` order.

        Candidate selection and refinement mirror the scalar
        :meth:`RTree.within_distance` / :meth:`GridIndex.query_radius`: a
        box search expanded by ``radius`` followed by an exact distance filter
        (``<= radius``) and a stable sort by distance, so ties keep row order.
        Returns ``(offsets, indices, distances)``.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        query_count = len(xs)
        q, rows = self._candidate_pairs(xs - radius, ys - radius, xs + radius, ys + radius)
        if len(q) == 0:
            return _empty_csr(query_count, with_distances=True)
        distances = self._pair_distances(xs[q], ys[q], rows)
        keep = distances <= radius
        q, rows, distances = q[keep], rows[keep], distances[keep]
        # Stable per-query sort by distance: pairs arrive row-ascending per
        # query, so using the row as the final key reproduces the scalar
        # stable sort's tie order exactly.
        order = np.lexsort((rows, distances, q))
        q, rows, distances = q[order], rows[order], distances[order]
        offsets = self._offsets_of(query_count, q)
        return offsets, rows, distances

    def nearest_batch(
        self, xs: np.ndarray, ys: np.ndarray, count: int = 1
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``count`` nearest rows per query point, in ``(distance, row)`` order.

        Matches the scalar contracts: :meth:`RTree.nearest` on a frozen tree
        (best-first with the row tie-break) and :meth:`GridIndex.nearest`
        (ring-doubling, whose radius cap is honoured so even its truncation
        behaviour is reproduced).  Returns ``(offsets, indices, distances)``.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        query_count = len(xs)
        size = len(self._payloads)
        if count <= 0 or size == 0 or query_count == 0:
            return _empty_csr(query_count, with_distances=True)
        keep = min(count, size)
        out_q: List[np.ndarray] = []
        out_rows: List[np.ndarray] = []
        out_distances: List[np.ndarray] = []
        chunk = max(1, _CHUNK_PAIR_BUDGET // size)
        for start in range(0, query_count, chunk):
            stop = min(query_count, start + chunk)
            matrix = self._distance_matrix(xs[start:stop], ys[start:stop])
            if self._nearest_max_radius is not None:
                matrix = np.where(matrix <= self._nearest_max_radius, matrix, np.inf)
            # Select everything up to the per-query kth distance (partition is
            # O(n) versus a full sort), *including* boundary ties, then order
            # the small survivor set by (distance, row) and truncate — the
            # lexsort guarantees boundary ties are cut in row order, which is
            # the scalar (distance, row) contract.
            if keep < size:
                kth = np.partition(matrix, keep - 1, axis=1)[:, keep - 1]
                mask = matrix <= kth[:, None]
            else:
                mask = np.ones_like(matrix, dtype=bool)
            np.logical_and(mask, np.isfinite(matrix), out=mask)
            q_local, rows = np.nonzero(mask)
            picked = matrix[q_local, rows]
            order = np.lexsort((rows, picked, q_local))
            q_local, rows, picked = q_local[order], rows[order], picked[order]
            counts = np.bincount(q_local, minlength=stop - start)
            group_starts = np.cumsum(counts) - counts
            within_group = np.arange(len(q_local)) - np.repeat(group_starts, counts)
            trim = within_group < keep
            out_q.append(q_local[trim].astype(np.intp, copy=False) + start)
            out_rows.append(rows[trim].astype(np.intp, copy=False))
            out_distances.append(picked[trim])
        q = np.concatenate(out_q)
        rows = np.concatenate(out_rows)
        distances = np.concatenate(out_distances)
        offsets = self._offsets_of(query_count, q)
        return offsets, rows, distances

    # -------------------------------------------------------------- internals
    def _to_csr(self, query_count: int, q: np.ndarray, rows: np.ndarray) -> BatchQueryResult:
        if len(q) == 0:
            return _empty_csr(query_count, with_distances=False)
        return self._offsets_of(query_count, q), rows

    @staticmethod
    def _offsets_of(query_count: int, q: np.ndarray) -> np.ndarray:
        counts = np.bincount(q, minlength=query_count)
        offsets = np.zeros(query_count + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        return offsets

    def _candidate_pairs(
        self,
        qmin_x: np.ndarray,
        qmin_y: np.ndarray,
        qmax_x: np.ndarray,
        qmax_y: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lexicographically sorted ``(query, row)`` pairs with intersecting boxes."""
        query_count = len(qmin_x)
        size = len(self._payloads)
        if query_count == 0 or size == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        if not self._levels:
            return self._scan_pairs(qmin_x, qmin_y, qmax_x, qmax_y)
        q = np.arange(query_count, dtype=np.intp)
        nodes = np.zeros(query_count, dtype=np.intp)
        for level in self._levels:
            hit = (
                (qmin_x[q] <= level.max_xs[nodes])
                & (qmax_x[q] >= level.min_xs[nodes])
                & (qmin_y[q] <= level.max_ys[nodes])
                & (qmax_y[q] >= level.min_ys[nodes])
            )
            q, nodes = q[hit], nodes[hit]
            if len(q) == 0:
                return q, nodes
            q, nodes = expand_ranges(q, level.child_starts[nodes], level.child_ends[nodes])
        rows = nodes  # after the leaf level, children indices are entry rows
        hit = (
            (qmin_x[q] <= self._max_xs[rows])
            & (qmax_x[q] >= self._min_xs[rows])
            & (qmin_y[q] <= self._max_ys[rows])
            & (qmax_y[q] >= self._min_ys[rows])
        )
        return q[hit], rows[hit]

    def _scan_pairs(
        self,
        qmin_x: np.ndarray,
        qmin_y: np.ndarray,
        qmax_x: np.ndarray,
        qmax_y: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Chunked columnar scan for layouts without tree levels (grids)."""
        query_count = len(qmin_x)
        size = len(self._payloads)
        chunk = max(1, _CHUNK_PAIR_BUDGET // size)
        out_q: List[np.ndarray] = []
        out_rows: List[np.ndarray] = []
        for start in range(0, query_count, chunk):
            stop = min(query_count, start + chunk)
            mask = (
                (qmin_x[start:stop, None] <= self._max_xs[None, :])
                & (qmax_x[start:stop, None] >= self._min_xs[None, :])
                & (qmin_y[start:stop, None] <= self._max_ys[None, :])
                & (qmax_y[start:stop, None] >= self._min_ys[None, :])
            )
            q_local, rows = np.nonzero(mask)  # row-major: sorted by (query, row)
            out_q.append(q_local.astype(np.intp, copy=False) + start)
            out_rows.append(rows.astype(np.intp, copy=False))
        return np.concatenate(out_q), np.concatenate(out_rows)

    def _pair_distances(self, pxs: np.ndarray, pys: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Refined distance of each ``(query point, entry row)`` pair.

        Replicates the scalar operation sequences exactly (see the module
        docstring), so the values are bit-identical to the per-point code.
        """
        if self._geometry == "segment":
            assert self._segments is not None
            axs, ays, bxs, bys = self._segments
            from repro.geometry.vectorized import point_segment_distances

            return point_segment_distances(
                pxs, pys, axs[rows], ays[rows], bxs[rows], bys[rows]
            )
        if self._geometry == "point":
            dx = self._min_xs[rows] - pxs
            dy = self._min_ys[rows] - pys
            return np.sqrt(dx * dx + dy * dy)
        dx = np.maximum(np.maximum(self._min_xs[rows] - pxs, 0.0), pxs - self._max_xs[rows])
        dy = np.maximum(np.maximum(self._min_ys[rows] - pys, 0.0), pys - self._max_ys[rows])
        return np.sqrt(dx * dx + dy * dy)

    def _distance_matrix(self, pxs: np.ndarray, pys: np.ndarray) -> np.ndarray:
        """Dense ``(query, entry)`` distance matrix for one chunk of queries."""
        px = pxs[:, None]
        py = pys[:, None]
        if self._geometry == "segment":
            assert self._segments is not None
            axs, ays, bxs, bys = self._segments
            from repro.geometry.vectorized import point_segment_distances

            return point_segment_distances(
                px, py, axs[None, :], ays[None, :], bxs[None, :], bys[None, :]
            )
        if self._geometry == "point":
            dx = self._min_xs[None, :] - px
            dy = self._min_ys[None, :] - py
            return np.sqrt(dx * dx + dy * dy)
        dx = np.maximum(np.maximum(self._min_xs[None, :] - px, 0.0), px - self._max_xs[None, :])
        dy = np.maximum(np.maximum(self._min_ys[None, :] - py, 0.0), py - self._max_ys[None, :])
        return np.sqrt(dx * dx + dy * dy)

    # ------------------------------------------- payload-level conveniences
    @staticmethod
    def _point_columns(points: Sequence[Point]) -> Tuple[np.ndarray, np.ndarray]:
        count = len(points)
        xs = np.fromiter((p.x for p in points), dtype=np.float64, count=count)
        ys = np.fromiter((p.y for p in points), dtype=np.float64, count=count)
        return xs, ys

    def within_distance_pairs(
        self, points: Sequence[Point], radius: float
    ) -> List[List[Tuple[float, Any]]]:
        """Batch within-distance as per-point ``(distance, payload)`` lists.

        Query ``i``'s matches in ``(distance, row)`` order, materialised for
        consumers that work on payload objects.
        """
        if not points:
            return []
        xs, ys = self._point_columns(points)
        offsets, rows, distances = self.within_distance_batch(xs, ys, radius)
        payloads = self._payloads
        bounds = offsets.tolist()
        row_list = rows.tolist()
        distance_list = distances.tolist()
        return [
            [(distance_list[k], payloads[row_list[k]]) for k in range(bounds[i], bounds[i + 1])]
            for i in range(len(points))
        ]

    def query_point_payloads(self, points: Sequence[Point]) -> List[List[Any]]:
        """Batch point containment as per-point candidate payload lists.

        Index-filter candidates only (entry boxes containing each point), in
        row order; exact geometry filters stay with the caller.
        """
        if not points:
            return []
        xs, ys = self._point_columns(points)
        offsets, rows = self.query_points_batch(xs, ys)
        payloads = self._payloads
        bounds = offsets.tolist()
        row_list = rows.tolist()
        return [
            [payloads[row_list[k]] for k in range(bounds[i], bounds[i + 1])]
            for i in range(len(points))
        ]

    def within_distance_point(self, point: Point, radius: float) -> List[Tuple[float, Any]]:
        """Single-point ``within_distance`` returning ``(distance, payload)`` pairs."""
        return self.within_distance_pairs([point], radius)[0]
