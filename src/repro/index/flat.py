"""Read-only, array-backed spatial index packed straight from the source rows.

The geographic sources (regions, road segments, POIs) are static: every query
hits an immutable structure, so the index is a handful of contiguous numpy
arrays, built once from the sources' coordinate columns and queried for whole
coordinate batches.  No Python tree is ever built:

* :meth:`FlatSpatialIndex.from_boxes` packs boxes (regions, road segments)
  with **Sort-Tile-Recursive** bulk loading done in numpy: a stable argsort of
  the box centres' x, tiles of ``ceil(n / ceil(sqrt(ceil(n / capacity))))``
  rows each stable-sorted by the centres' y, consecutive runs of ``capacity``
  rows per leaf, the leaf boxes reduced with ``np.minimum/maximum.reduceat``,
  and the same again on each level's boxes until one root is left.  The result
  is an **implicit layout**: one bounding-box array per tree level plus
  ``child_start``/``child_end`` slices into the next level, ending in the leaf
  entry arrays.  Batch queries traverse the levels with vectorized
  ``(query, node)`` frontier expansion instead of per-query recursion.
* :meth:`FlatSpatialIndex.from_points` lays points (POIs, stop centres) out as
  a uniform hash grid flattened into columns: rows sorted by ``(cell_x,
  cell_y, input order)`` with ``cell = floor(coordinate / cell_size)``.  Batch
  queries are chunked columnar scans (for point payloads a masked scan beats
  per-cell bucket walks once queries are batched); the one-row
  :meth:`FlatSpatialIndex.within_distance_point` walks the sorted cell
  columns instead, which is what a single lookup is cheapest with.

All batch queries return CSR-style ``(offsets, indices[, distances])``
triples: query ``i``'s results are ``indices[offsets[i]:offsets[i + 1]]``,
indexing into :attr:`payloads`.

Result ordering contract
------------------------
Entry ``i`` of :attr:`payloads` has **row** ``i``: for boxes the left-to-right
order of the leaf entries under the packed levels, for points the
``(cell_x, cell_y, input order)`` order.  Box and point-containment queries
return matches in ascending row order; ``within_distance`` and ``nearest``
queries in ``(distance, row)`` order, so equal-distance entries — including
duplicate boxes and coincident points — come out in row order, never in an
incidental one.  ``tests/test_index_ordering.py`` pins the tie-breaks.

Parity contract
---------------
The layout and every query result are **provably identical** — same rows, same
level arrays, same sets, same order, bit-identical distances — to the
pure-Python STR-loaded R-tree and hash grid kept with the other test oracles
(they were the product's indexes before this module packed its own arrays):

* the packing evaluates the oracles' float expressions (box centre
  ``(min + max) / 2.0``, cell ``floor(coordinate / cell_size)``, the tile and
  leaf sizes) and sorts stably wherever they did;
* distances use only IEEE ``+ - * /``, ``sqrt``, ``min``/``max`` and
  comparisons — the same operation sequences as the scalar code
  (:meth:`Point.distance_to`, :meth:`BoundingBox.min_distance_to_point`,
  :func:`repro.geometry.distance.point_segment_distance`), which numpy's
  elementwise loops round identically.

``tests/test_index_direct_pack.py`` compares the packed arrays with the
oracle compile on generated inputs, ``tests/test_index_flat_parity.py`` the
query results on random point clouds and degenerate inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from operator import attrgetter, itemgetter
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.primitives import BoundingBox, Point

__all__ = [
    "FlatSpatialIndex",
    "BatchQueryResult",
    "box_columns",
    "expand_ranges",
    "point_columns",
]

#: ``(offsets, indices)`` — query ``i`` matched rows ``indices[offsets[i]:offsets[i+1]]``.
BatchQueryResult = Tuple[np.ndarray, np.ndarray]

#: Four equally long float columns: ``(min_xs, min_ys, max_xs, max_ys)`` of
#: boxes, ``(start_xs, start_ys, end_xs, end_ys)`` of segments.
Columns = Sequence[np.ndarray]

#: Upper bound on the ``query x entry`` pairs materialised per brute-force
#: chunk; keeps the distance matrices cache-friendly for large batches.
_CHUNK_PAIR_BUDGET = 1 << 21

#: Fan-out of a packed node (the STR leaf and parent capacity).
_NODE_CAPACITY = 16


class _Level:
    """One tree level: node boxes plus child slices into the next level."""

    __slots__ = ("min_xs", "min_ys", "max_xs", "max_ys", "child_starts", "child_ends")

    def __init__(self, boxes: Columns, counts: np.ndarray):
        self.min_xs, self.min_ys, self.max_xs, self.max_ys = (
            np.ascontiguousarray(column, dtype=np.float64) for column in boxes
        )
        counts = np.asarray(counts, dtype=np.intp)
        self.child_ends = np.cumsum(counts)
        self.child_starts = self.child_ends - counts


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


def box_columns(boxes: Iterable[BoundingBox]) -> Columns:
    """``(min_xs, min_ys, max_xs, max_ys)`` of a sequence of bounding boxes."""
    box_list = list(boxes)
    return [
        np.fromiter(map(attrgetter(corner), box_list), np.float64, len(box_list))
        for corner in ("min_x", "min_y", "max_x", "max_y")
    ]


def point_columns(points: Sequence[Point]) -> Tuple[np.ndarray, np.ndarray]:
    """``(xs, ys)`` of a sequence of points."""
    count = len(points)
    xs = np.fromiter((p.x for p in points), dtype=np.float64, count=count)
    ys = np.fromiter((p.y for p in points), dtype=np.float64, count=count)
    return xs, ys


def _str_pack(boxes: Columns, capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive packing of ``boxes`` into groups of at most ``capacity``.

    Returns ``(order, starts)``: the boxes in packed order and where in it each
    group begins.  Rows are stable-sorted by centre x and cut into vertical
    tiles of ``slice_size``; each tile is stable-sorted by centre y and cut
    into runs of ``capacity``.
    """
    min_xs, min_ys, max_xs, max_ys = boxes
    count = len(min_xs)
    leaf_count = math.ceil(count / capacity)
    slice_count = max(1, math.ceil(math.sqrt(leaf_count)))
    slice_size = math.ceil(count / slice_count)
    by_x = np.argsort((min_xs + max_xs) / 2.0, kind="stable")
    positions = np.arange(count)
    centre_ys = ((min_ys + max_ys) / 2.0)[by_x]
    # lexsort is stable: within a tile, equal centre ys keep their by-x order.
    order = by_x[np.lexsort((centre_ys, positions // slice_size))]
    starts = np.flatnonzero(positions % slice_size % capacity == 0)
    return order, starts


class FlatSpatialIndex:
    """Array-backed read-only spatial index with CSR batch queries.

    Build one with :meth:`from_boxes` or :meth:`from_points`; nothing can be
    added afterwards, so the arrays never go stale and the index is safe to
    share across threads and (copy-on-write, or as a pickled copy)
    processes.  The ``geometry`` kind fixes how entry distances are refined:

    ``"bbox"``
        minimum distance to the entry's bounding box;
    ``"point"``
        distance to the entry's point (the grid layout of :meth:`from_points`);
    ``"segment"``
        Equation 1 point-segment distance to the entry's segment (road
        networks; :meth:`from_boxes` with endpoint columns).

    The constructor takes a finished layout — levels root first, entry
    columns and payloads in row order — and is what the two packers (and the
    test oracles' tree and grid compilers) end in.
    """

    def __init__(
        self,
        levels: List[_Level],
        entry_boxes: Columns,
        payloads: List[Any],
        geometry: str,
        segments: Optional[Columns] = None,
        cell_size: Optional[float] = None,
    ):
        if geometry not in ("bbox", "point", "segment"):
            raise ValueError(f"unknown flat-index geometry {geometry!r}")
        if geometry == "segment" and segments is None:
            raise ValueError("segment geometry requires endpoint arrays")
        if geometry == "point" and not (cell_size is not None and cell_size > 0):
            raise ValueError("point geometry requires a positive cell_size")
        self._levels = levels
        self._min_xs, self._min_ys, self._max_xs, self._max_ys = (
            np.ascontiguousarray(column, dtype=np.float64) for column in entry_boxes
        )
        self._payloads = payloads
        self._geometry = geometry
        self._segments = None if segments is None else tuple(segments)
        self._cell_size = cell_size
        self._nearest_max_radius: Optional[float] = None
        if geometry == "point":
            assert cell_size is not None
            # A ring-doubling nearest search over the grid starts at cell_size
            # and gives up once the doubled radius exceeds cell_size * 1e6; the
            # largest radius it queries is the cap (same float expressions as
            # the oracle grid's loop, so the comparison is bit-identical).
            cap = cell_size
            while cap * 2.0 <= cell_size * 1e6:
                cap *= 2.0
            self._nearest_max_radius = cap
            self._index_cells(cell_size)

    def _index_cells(self, cell_size: float) -> None:
        """The occupied cells of a point layout, for the one-row cell walk.

        ``_cell_keys[k]`` is the k-th occupied ``(cell_x, cell_y)`` in
        lexicographic order and its rows are ``_cell_starts[k]:_cell_starts[k
        + 1]``; the coordinates are kept as Python floats beside the columns
        because the walk is scalar code.
        """
        cell_xs = np.floor(self._min_xs / cell_size).astype(np.int64)
        cell_ys = np.floor(self._min_ys / cell_size).astype(np.int64)
        firsts = np.flatnonzero((np.diff(cell_xs) != 0) | (np.diff(cell_ys) != 0)) + 1
        if len(cell_xs):
            firsts = np.concatenate(([0], firsts))
        self._cell_keys = list(zip(cell_xs[firsts].tolist(), cell_ys[firsts].tolist()))
        if any(a >= b for a, b in zip(self._cell_keys, self._cell_keys[1:])):
            raise ValueError("point rows must be laid out in (cell_x, cell_y) order")
        self._cell_starts = firsts.tolist() + [len(cell_xs)]
        self._point_xs = self._min_xs.tolist()
        self._point_ys = self._min_ys.tolist()

    # ---------------------------------------------------------------- packing
    @classmethod
    def from_boxes(
        cls,
        boxes: Columns,
        payloads: Sequence[Any],
        segments: Optional[Columns] = None,
        capacity: int = _NODE_CAPACITY,
    ) -> "FlatSpatialIndex":
        """Pack ``boxes`` (``min_xs, min_ys, max_xs, max_ys`` columns) bottom-up.

        Sort-Tile-Recursive: the entries are packed into leaves of
        ``capacity``, the leaves' boxes into parents, and so on until one root
        is left; a level's box is the ``min``/``max`` reduction of its
        children's.  Packing a level *reorders* the one below it, so the
        levels are then laid out top-down — each level in the order its
        parents list their children — which puts the entries in the
        left-to-right leaf order the ordering contract calls rows.

        With ``segments`` (``start_xs, start_ys, end_xs, end_ys`` columns in
        input order) distance queries refine by exact point-segment distance.
        """
        if capacity < 4:
            raise ValueError("capacity must be at least 4")
        entry_boxes = [np.asarray(column, dtype=np.float64) for column in boxes]
        count = len(payloads)
        if any(column.shape != (count,) for column in entry_boxes):
            raise ValueError("box columns and payloads must be equally long")
        reducers = (np.minimum, np.minimum, np.maximum, np.maximum)
        # Bottom-up: per level, its nodes' boxes and child slices in creation
        # order, and the level below in the packed order the slices refer to.
        packed = []
        node_boxes = entry_boxes
        while count > 0:
            order, starts = _str_pack(node_boxes, capacity)
            node_boxes = [
                reducer.reduceat(column[order], starts)
                for reducer, column in zip(reducers, node_boxes)
            ]
            packed.append((node_boxes, starts, np.diff(starts, append=len(order)), order))
            if len(starts) == 1:
                break
        # Top-down: ``rows`` is the current level's nodes, left to right, as
        # indices into its creation order — the root, then the children its
        # nodes list, and after the leaf level the entries themselves.
        levels: List[_Level] = []
        rows = np.zeros(min(count, 1), dtype=np.intp)
        for level_boxes, starts, counts, order in reversed(packed):
            starts, counts = starts[rows], counts[rows]
            levels.append(_Level([column[rows] for column in level_boxes], counts))
            rows = order[expand_ranges(rows, starts, starts + counts)[1]]
        if segments is not None:
            segments = [np.asarray(column, dtype=np.float64)[rows] for column in segments]
        return cls(
            levels,
            [column[rows] for column in entry_boxes],
            [payloads[row] for row in rows.tolist()],
            "bbox" if segments is None else "segment",
            segments,
        )

    @classmethod
    def from_points(
        cls, xs: np.ndarray, ys: np.ndarray, payloads: Sequence[Any], cell_size: float
    ) -> "FlatSpatialIndex":
        """Lay points out as a flattened uniform hash grid of ``cell_size`` cells.

        Rows are sorted by ``(cell_x, cell_y)`` with ``cell = floor(coordinate
        / cell_size)``, points of one cell in input order — the order a walk
        over any query rectangle's cells (``cell_x`` outer, ``cell_y`` inner)
        meets them in.  ``nearest`` queries honour the radius cap of a
        ring-doubling grid search (it starts at ``cell_size`` and stops
        doubling past ``cell_size * 1e6``), so that even its truncation on
        pathological inputs is part of the contract.
        """
        if not cell_size > 0:
            raise ValueError("cell_size must be positive")
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != (len(payloads),) or ys.shape != xs.shape:
            raise ValueError("coordinate columns and payloads must be equally long")
        order = np.lexsort((np.floor(ys / cell_size), np.floor(xs / cell_size)))  # stable
        xs, ys = xs[order], ys[order]
        return cls(
            [],
            (xs, ys, xs.copy(), ys.copy()),
            [payloads[row] for row in order.tolist()],
            "point",
            cell_size=cell_size,
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
    def segment_columns(self) -> Optional[Columns]:
        """Endpoint columns ``(start_xs, start_ys, end_xs, end_ys)`` by row (segment geometry)."""
        return self._segments

    @property
    def level_count(self) -> int:
        """Number of packed tree levels (0 for point layouts)."""
        return len(self._levels)

    def array_blocks(self) -> "OrderedDict[str, np.ndarray]":
        """Every contiguous numpy block of the index, by stable name.

        The enumeration the identity tests compare array by array (direct
        pack against tree-then-compile, a snapshot against its pickled copy):
        per-level bbox and child-slice columns, the entry-box columns and (for
        segment geometry) the endpoint columns.  Names are deterministic for
        a given index; payload objects are *not* included.
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

        Closed-interval intersection per query box; for point layouts a point
        intersects a box iff the box contains it.
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

        A box search expanded by ``radius`` followed by an exact distance
        filter (``<= radius``) and a stable sort by distance, so ties keep row
        order.  Returns ``(offsets, indices, distances)``.
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
        # query, so using the row as the final key is the stable sort's tie
        # order.
        order = np.lexsort((rows, distances, q))
        q, rows, distances = q[order], rows[order], distances[order]
        offsets = self._offsets_of(query_count, q)
        return offsets, rows, distances

    def nearest_batch(
        self, xs: np.ndarray, ys: np.ndarray, count: int = 1
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``count`` nearest rows per query point, in ``(distance, row)`` order.

        What a best-first tree search with the row tie-break returns, and for
        point layouts a ring-doubling grid search, whose radius cap is honoured
        (see :meth:`from_points`).  Returns ``(offsets, indices, distances)``.

        No annotation stage asks for nearest neighbours; the single-point
        ``nearest`` / ``nearest_segment`` of the sources are one-row calls of
        this, and ``bench/layers.py`` probes it.
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
            # the (distance, row) contract.
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
        """Chunked columnar scan for layouts without tree levels (points)."""
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
    def within_distance_pairs(
        self, points: Sequence[Point], radius: float
    ) -> List[List[Tuple[float, Any]]]:
        """Batch within-distance as per-point ``(distance, payload)`` lists.

        Query ``i``'s matches in ``(distance, row)`` order, materialised for
        consumers that work on payload objects.
        """
        if not points:
            return []
        xs, ys = point_columns(points)
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
        xs, ys = point_columns(points)
        offsets, rows = self.query_points_batch(xs, ys)
        payloads = self._payloads
        bounds = offsets.tolist()
        row_list = rows.tolist()
        return [
            [payloads[row_list[k]] for k in range(bounds[i], bounds[i + 1])]
            for i in range(len(points))
        ]

    def within_distance_point(self, point: Point, radius: float) -> List[Tuple[float, Any]]:
        """Single-point ``within_distance`` returning ``(distance, payload)`` pairs.

        A one-row batch query, except on point layouts: there one lookup is a
        walk over the occupied cells under the query square — a bisection per
        cell column into the sorted cell keys, then scalar arithmetic on the
        handful of rows found — which costs a fraction of a columnar scan of
        every row (the per-stop representative-POI lookup of the point
        annotator is the caller that counts).  Same candidates, same
        ``center - point`` distance expression, same stable sort.
        """
        if self._geometry != "point":
            return self.within_distance_pairs([point], radius)[0]
        if radius < 0:
            raise ValueError("radius must be non-negative")
        size = self._cell_size
        assert size is not None
        x, y = point.x, point.y
        min_x, max_x, min_y, max_y = x - radius, x + radius, y - radius, y + radius
        first_column, last_column = math.floor(min_x / size), math.floor(max_x / size)
        keys = self._cell_keys
        if last_column - first_column >= len(keys):
            # More cell columns under the square than occupied cells: scan.
            return self.within_distance_pairs([point], radius)[0]
        min_cell_y, max_cell_y = math.floor(min_y / size), math.floor(max_y / size)
        starts, xs, ys = self._cell_starts, self._point_xs, self._point_ys
        found: List[Tuple[float, int]] = []
        for column in range(first_column, last_column + 1):
            # The occupied cells of one column are adjacent in the key list,
            # and so are their rows.
            low = starts[bisect_left(keys, (column, min_cell_y))]
            high = starts[bisect_right(keys, (column, max_cell_y))]
            for row in range(low, high):
                px, py = xs[row], ys[row]
                if min_x <= px <= max_x and min_y <= py <= max_y:
                    dx = x - px
                    dy = y - py
                    distance = math.sqrt(dx * dx + dy * dy)
                    if distance <= radius:
                        found.append((distance, row))
        found.sort(key=itemgetter(0))  # stable: ties stay in row order
        payloads = self._payloads
        return [(distance, payloads[row]) for distance, row in found]

    def query_box_payloads(self, box: BoundingBox) -> List[Any]:
        """Payloads whose entry box intersects ``box``, in row order (one-row batch query)."""
        _, rows = self.query_boxes_batch([box.min_x], [box.min_y], [box.max_x], [box.max_y])
        payloads = self._payloads
        return [payloads[row] for row in rows.tolist()]

    def nearest_point(self, point: Point, count: int = 1) -> List[Tuple[float, Any]]:
        """The ``count`` nearest ``(distance, payload)`` pairs (one-row :meth:`nearest_batch`)."""
        _, rows, distances = self.nearest_batch([point.x], [point.y], count)
        payloads = self._payloads
        return [(d, payloads[row]) for d, row in zip(distances.tolist(), rows.tolist())]

    def bounds(self) -> Optional[BoundingBox]:
        """Bounding box of every entry, or ``None`` when the index is empty."""
        if not self._payloads:
            return None
        return BoundingBox(
            float(self._min_xs.min()),
            float(self._min_ys.min()),
            float(self._max_xs.max()),
            float(self._max_ys.max()),
        )
