"""Read-only, array-backed spatial index over the source rows.

The geographic sources (regions, road segments, POIs) are static: every query
hits an immutable structure, so the index is a handful of contiguous numpy
columns, taken once from the sources' coordinate columns and queried for
whole coordinate batches.  There is one layout: entry ``i`` is source row
``i`` — a box as given (:meth:`FlatSpatialIndex.from_boxes`, with the segment
endpoints beside it for road networks) or a point as a zero-size box
(:meth:`FlatSpatialIndex.from_points`).

Two paths answer the queries:

* the point-shaped ones — :meth:`~FlatSpatialIndex.query_points_batch`
  and :meth:`~FlatSpatialIndex.within_distance_batch`, a square of
  half-side ``pad`` (0 or the radius) around each point, and the one-row
  forms built on them — read **one cell** per point of a cell table: a
  uniform grid of about one cell per entry that lists, in row order, every
  entry whose box padded by ``pad`` overlaps the cell.  It is built on the
  first such query and kept for the last ``pad`` asked (one table per index;
  never pickled); the rows of the cell then get the exact box test;
* everything else — :meth:`~FlatSpatialIndex.query_boxes_batch`, and a
  point query for which no table can be built (a coordinate or the padded
  extent is not finite) — is a chunked columnar scan of every row.
  :meth:`~FlatSpatialIndex.nearest_batch` is a brute-force distance matrix.

All batch queries return CSR-style ``(offsets, indices[, distances])``
triples: query ``i``'s results are ``indices[offsets[i]:offsets[i + 1]]``,
indexing into :attr:`payloads`.

Result ordering contract
------------------------
Entry ``i`` of :attr:`payloads` has **row** ``i``, its position in the
source.  Box and point-containment queries return matches in ascending row
order; ``within_distance`` and ``nearest`` queries in ``(distance, row)``
order, so equal-distance entries — including duplicate boxes and coincident
points — come out in source order, never in an incidental one.
``tests/test_index_ordering.py`` pins the tie-breaks.

Parity contract
---------------
Every query result is **identical** — same sets, same order, bit-identical
distances — to what the pure-Python R-tree and hash grid kept with the other
test oracles answer one query at a time, their ties in insertion order:
distances use only IEEE ``+ - * /``, ``sqrt``, ``min``/``max`` and
comparisons — the same operation sequences as the scalar code
(:meth:`Point.distance_to`, :meth:`BoundingBox.min_distance_to_point`,
:func:`repro.geometry.distance.point_segment_distance`), which numpy's
elementwise loops round identically.  ``tests/test_index_flat_parity.py``
holds the queries to the oracles on random point clouds and degenerate
inputs, ``tests/test_index_cell_table.py`` the cell table to the scan.
"""

from __future__ import annotations

import math
from operator import attrgetter
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

#: Most ``(cell, entry)`` rows a cell table may hold per entry: past it the
#: cells double in size until the table fits (at one cell it holds one row per
#: entry), so a table stays O(entries) whatever the layout.
_CELL_ROWS_PER_ENTRY = 8

#: A cell table widens every padded box by this fraction of its coordinates'
#: magnitude, far above the rounding of ``x - pad`` and of the cell arithmetic,
#: so the cell a query point falls in lists every entry the exact box test of
#: the padded query can accept.
_CELL_MARGIN = 2.0**-40


class _CellTable:
    """The entries whose box, padded by ``pad``, overlaps each cell of a uniform grid.

    Cell ``(cx, cy)`` of a point is ``floor((x - origin_x) / size)`` and
    ``floor((y - origin_y) / size)``, which only grows with the coordinate;
    cell ``cy * columns + cx`` lists ``rows[starts[c]:starts[c + 1]]`` in
    ascending row order.  The grid spans the widened padded boxes, and a box
    is listed in every cell between those of its widened corners — so the one
    cell a query point falls in holds every entry the box test of that point
    padded by ``pad`` can accept, and a point outside the grid (or NaN) has
    none.
    """

    __slots__ = ("origin_x", "origin_y", "size", "columns", "cell_rows", "starts", "rows")

    def __init__(
        self,
        origin_x: float,
        origin_y: float,
        size: float,
        columns: int,
        cell_rows: int,
        starts: np.ndarray,
        rows: np.ndarray,
    ):
        self.origin_x = origin_x
        self.origin_y = origin_y
        self.size = size
        self.columns = columns
        self.cell_rows = cell_rows
        self.starts = starts
        self.rows = rows

    @classmethod
    def build(cls, boxes: Columns, pad: float) -> Optional["_CellTable"]:
        """The table for ``pad``, or ``None`` when a coordinate or the extent is not finite.

        The cell side aims at one cell per entry (``sqrt(area / n)``, at
        least ``max(width, height) / n`` so a flat layout does not divide
        into slivers) and doubles until the table holds at most
        :data:`_CELL_ROWS_PER_ENTRY` rows per entry.
        """
        min_xs, min_ys, max_xs, max_ys = boxes
        count = len(min_xs)
        widened = []
        for low, high in ((min_xs, max_xs), (min_ys, max_ys)):
            margin = np.abs(low)
            margin += np.abs(high)
            margin += pad
            margin *= _CELL_MARGIN
            margin += np.finfo(np.float64).tiny
            widened.append(np.subtract(low - pad, margin))
            widened.append(np.add(high + pad, margin))
        low_xs, high_xs, low_ys, high_ys = widened
        del widened, margin
        origin_x, origin_y = low_xs.min(), low_ys.min()
        top_x, top_y = high_xs.max(), high_ys.max()
        width, height = top_x - origin_x, top_y - origin_y
        if not (np.isfinite(width) and np.isfinite(height)):
            return None
        size = max(math.sqrt(width * height / count), max(width, height) / count)
        if not size > 0:
            size = 1.0
        scratch = np.empty(count)

        def cells_of(values: np.ndarray, origin: float) -> np.ndarray:
            np.subtract(values, origin, out=scratch)
            np.divide(scratch, size, out=scratch)
            return np.floor(scratch, out=scratch).astype(np.int32)

        while True:
            # columns * cell_rows <= 3 * count + 1: every cell number fits int32.
            columns = int(np.floor((top_x - origin_x) / size)) + 1
            cell_rows = int(np.floor((top_y - origin_y) / size)) + 1
            first_xs = cells_of(low_xs, origin_x)
            first_ys = cells_of(low_ys, origin_y)
            spans_x = cells_of(high_xs, origin_x) - first_xs + 1
            counts = cells_of(high_ys, origin_y) - first_ys + 1
            counts *= spans_x
            total = int(counts.sum(dtype=np.int64))
            if total <= _CELL_ROWS_PER_ENTRY * count or columns * cell_rows == 1:
                break
            size *= 2.0
        del low_xs, high_xs, low_ys, high_ys, scratch
        # One key ``cell * count + entry`` per covered (entry, cell) pair, each
        # entry's cells row by row: the k-th is (k // span_x, k % span_x) off
        # its first.  Keys are distinct, so one in-place sort orders the pairs
        # by cell and a cell's entries by row; built in place, 32-bit while
        # every key fits, as the pairs are the table's bulk.
        cell_count = columns * cell_rows
        key_type = np.int32 if cell_count * count <= np.iinfo(np.int32).max else np.int64
        bases = first_ys.astype(key_type)
        bases *= columns
        bases += first_xs
        bases *= count
        bases += np.arange(count, dtype=key_type)
        del first_xs, first_ys
        keys = np.arange(total, dtype=key_type)
        firsts = np.cumsum(counts, dtype=key_type)
        firsts -= counts
        keys -= np.repeat(firsts, counts)
        del firsts
        dxs = np.repeat(spans_x.astype(key_type), counts)
        np.divmod(keys, dxs, out=(keys, dxs))
        keys *= columns
        keys += dxs
        del dxs
        keys *= count
        keys += np.repeat(bases, counts)
        del bases, counts, spans_x
        keys.sort()
        bounds = np.arange(cell_count + 1, dtype=key_type)
        bounds *= count
        starts = np.searchsorted(keys, bounds).astype(np.int32)
        rows = np.remainder(keys, count, out=keys)
        return cls(origin_x, origin_y, size, columns, cell_rows, starts, rows)

    def pairs(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(query, row)`` pairs of each point with the entries its cell lists, sorted."""
        cell_xs = np.floor((xs - self.origin_x) / self.size)
        cell_ys = np.floor((ys - self.origin_y) / self.size)
        inside = (
            (cell_xs >= 0) & (cell_xs < self.columns) & (cell_ys >= 0) & (cell_ys < self.cell_rows)
        )
        q = np.flatnonzero(inside)
        cells = cell_ys[q].astype(np.intp) * self.columns + cell_xs[q].astype(np.intp)
        q, positions = expand_ranges(q, self.starts[cells], self.starts[cells + 1])
        return q, self.rows[positions].astype(np.intp)


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
    input order.  The cell table expands each query point over the rows its
    cell lists with it; the columnar map matcher expands per-point values over
    CSR candidate ranges.
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


class FlatSpatialIndex:
    """Array-backed read-only spatial index with CSR batch queries.

    Build one with :meth:`from_boxes` or :meth:`from_points`; nothing can be
    added afterwards, so the arrays never go stale and the index is safe to
    share across threads and (copy-on-write, or as a pickled copy)
    processes.  The ``geometry`` kind fixes how entry distances are refined:

    ``"bbox"``
        minimum distance to the entry's bounding box;
    ``"point"``
        distance to the entry's point (:meth:`from_points`);
    ``"segment"``
        Equation 1 point-segment distance to the entry's segment (road
        networks; :meth:`from_boxes` with endpoint columns).
    """

    def __init__(
        self,
        entry_boxes: Columns,
        payloads: Iterable[Any],
        geometry: str,
        segments: Optional[Columns] = None,
    ):
        if geometry not in ("bbox", "point", "segment"):
            raise ValueError(f"unknown flat-index geometry {geometry!r}")
        if geometry == "segment" and segments is None:
            raise ValueError("segment geometry requires endpoint arrays")
        self._payloads = list(payloads)
        self._min_xs, self._min_ys, self._max_xs, self._max_ys = (
            np.ascontiguousarray(column, dtype=np.float64) for column in entry_boxes
        )
        self._segments: Optional[Tuple[np.ndarray, ...]] = None
        if segments is not None:
            self._segments = tuple(
                np.ascontiguousarray(column, dtype=np.float64) for column in segments
            )
        columns = (*self.entry_columns, *(self._segments or ()))
        if any(column.shape != (len(self._payloads),) for column in columns):
            raise ValueError("coordinate columns and payloads must be equally long")
        self._geometry = geometry
        # ``(pad, table)`` of the last pad a point query asked for: built on
        # first use, replaced when the pad changes, never pickled.
        self._cells: Optional[Tuple[float, Optional[_CellTable]]] = None

    @classmethod
    def from_boxes(
        cls, boxes: Columns, payloads: Iterable[Any], segments: Optional[Columns] = None
    ) -> "FlatSpatialIndex":
        """Index ``boxes`` (``min_xs, min_ys, max_xs, max_ys`` columns), row ``i`` = box ``i``.

        With ``segments`` (``start_xs, start_ys, end_xs, end_ys`` columns in
        the same order) distance queries refine by exact point-segment
        distance.
        """
        return cls(boxes, payloads, "bbox" if segments is None else "segment", segments)

    @classmethod
    def from_points(
        cls, xs: np.ndarray, ys: np.ndarray, payloads: Iterable[Any]
    ) -> "FlatSpatialIndex":
        """Index points as zero-size boxes, row ``i`` = point ``i``."""
        return cls((xs, ys, xs, ys), payloads, "point")

    def __getstate__(self) -> dict:
        # The cell table is rebuilt lazily by whoever queries the copy.
        state = self.__dict__.copy()
        state["_cells"] = None
        return state

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
    def entry_columns(self) -> Columns:
        """Entry box columns ``(min_xs, min_ys, max_xs, max_ys)`` by row."""
        return (self._min_xs, self._min_ys, self._max_xs, self._max_ys)

    @property
    def segment_columns(self) -> Optional[Columns]:
        """Endpoint columns ``(start_xs, start_ys, end_xs, end_ys)`` by row (segment geometry)."""
        return self._segments

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
        q, rows = self._scan_pairs(qmin_x, qmin_y, qmax_x, qmax_y)
        return self._to_csr(len(qmin_x), q, rows)

    def query_points_batch(self, xs: np.ndarray, ys: np.ndarray) -> BatchQueryResult:
        """Rows whose entry box contains each query point (degenerate boxes)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        q, rows = self._point_pairs(xs, ys, 0.0)
        return self._to_csr(len(xs), q, rows)

    def within_distance_batch(
        self, xs: np.ndarray, ys: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows within ``radius`` of each query point, in ``(distance, row)`` order.

        A box search expanded by ``radius`` followed by an exact distance
        filter (``<= radius``) and a stable sort by distance, so ties keep row
        order.  Returns ``(offsets, indices, distances)``.
        """
        if not radius >= 0:
            raise ValueError("radius must be a non-negative number")
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        query_count = len(xs)
        q, rows = self._point_pairs(xs, ys, radius)
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

        A brute-force distance matrix per chunk of queries; what a best-first
        tree search with the row tie-break returns.  Returns ``(offsets,
        indices, distances)``.

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

    def _point_pairs(
        self, xs: np.ndarray, ys: np.ndarray, pad: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``(query, row)`` pairs whose entry box meets each point's ``pad`` square.

        Reads each point's one cell of the cell table for ``pad`` and
        box-tests the rows listed there; scans every row only where no table
        can be built (a coordinate or the padded extent is not finite).
        """
        qmin_x, qmin_y, qmax_x, qmax_y = xs - pad, ys - pad, xs + pad, ys + pad
        if len(xs) == 0 or not self._payloads:
            return self._scan_pairs(qmin_x, qmin_y, qmax_x, qmax_y)
        cells = self._cells
        if cells is None or cells[0] != pad:
            cells = self._cells = (pad, _CellTable.build(self.entry_columns, pad))
        table = cells[1]
        if table is None:
            return self._scan_pairs(qmin_x, qmin_y, qmax_x, qmax_y)
        q, rows = table.pairs(xs, ys)
        return self._box_hits(q, rows, qmin_x, qmin_y, qmax_x, qmax_y)

    def _box_hits(
        self,
        q: np.ndarray,
        rows: np.ndarray,
        qmin_x: np.ndarray,
        qmin_y: np.ndarray,
        qmax_x: np.ndarray,
        qmax_y: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(query, row)`` pairs whose query box and entry box intersect."""
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
        """Lexicographically sorted ``(query, row)`` pairs with intersecting boxes.

        A chunked columnar test of every query box against every entry box.
        """
        query_count = len(qmin_x)
        size = len(self._payloads)
        if query_count == 0 or size == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
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

    def within_distance_point(self, point: Point, radius: float) -> List[Tuple[float, Any]]:
        """Single-point ``within_distance`` returning ``(distance, payload)`` pairs."""
        return self.within_distance_pairs([point], radius)[0]

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
