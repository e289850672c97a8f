"""A point query reads one cell, and finds what the scan and the STR walk find.

Every point-shaped query of the flat index —
:meth:`FlatSpatialIndex.query_points_batch` (pad 0),
:meth:`FlatSpatialIndex.within_distance_batch` (pad ``radius``) and the
one-row forms built on them — reads each query point's one cell of a
uniform-grid cell table and box-tests the rows listed there, for box and
point layouts alike.  Two oracles hold it: the chunked scan of every row (the
same index, its table switched off), which must return the same offsets, rows
and distance bits, and the STR-loaded R-tree of ``repro.reference`` walked
one query at a time.  The layouts are built to break the table — zero-size
boxes, collinear boxes, one box covering all the others, duplicates, clusters
and coincident points — and the queries sit on cell edges and box edges,
outside the extent, at NaN and ±inf, at radius 0, a small radius and one
larger than the extent.  Where no table can be built (an entry box or the pad
is not finite) the scan answers, and an empty index builds no table at all.
"""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PipelineConfig
from repro.geometry.primitives import BoundingBox, Point
from repro.index.flat import _CELL_ROWS_PER_ENTRY, FlatSpatialIndex, _CellTable
from repro.parallel import GeoContext
from repro.reference import RTree, RTreeEntry

# Coordinates on a coarse lattice (shared edges and duplicates are likely)
# or anywhere in a window (cell edges fall at arbitrary floats).
_COORDINATE = st.one_of(
    st.integers(min_value=-40, max_value=40).map(lambda v: v * 2.5),
    st.floats(min_value=-120.0, max_value=120.0, allow_nan=False, allow_infinity=False),
)
_SIZE = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=12).map(lambda v: v * 2.5),
    st.sampled_from([0.1, 0.2, 0.3, 0.7]),
)
_KINDS = (
    "scattered",
    "zero-size",
    "collinear",
    "covering",
    "duplicates",
    "clustered",
    "coincident",
)


@st.composite
def _layouts(draw):
    """``(min_xs, min_ys, max_xs, max_ys)`` columns of one layout kind."""
    kind = draw(st.sampled_from(_KINDS))
    count = draw(st.integers(min_value=1, max_value=40))
    centre_x, centre_y = draw(_COORDINATE), draw(_COORDINATE)
    spread = draw(st.sampled_from([1e-12, 1e-3, 2.5]))
    boxes = []
    for _ in range(count):
        x, y = draw(_COORDINATE), draw(_COORDINATE)
        if kind == "clustered":
            # Zero-size boxes a few ulps to a few units around one centre.
            x = centre_x + spread * draw(st.integers(-3, 3))
            y = centre_y + spread * draw(st.integers(-3, 3))
        elif kind == "coincident":
            x, y = centre_x, centre_y
        if kind in ("zero-size", "clustered", "coincident"):
            width = height = 0.0
        elif kind == "collinear":
            y, height = 50.0, 0.0
            width = draw(_SIZE)
        else:
            width, height = draw(_SIZE), draw(_SIZE)
        boxes.append((x, y, x + width, y + height))
    if kind == "covering":
        boxes.insert(draw(st.integers(0, len(boxes))), (-200.0, -200.0, 200.0, 200.0))
    if kind == "duplicates":
        boxes.extend(draw(st.lists(st.sampled_from(boxes), min_size=1, max_size=10)))
    return [np.array(column, dtype=np.float64) for column in zip(*boxes)]


def _queries(draw, columns, radius):
    """Box edges and corners, cell edges of the table for ``radius``, and strays."""
    min_xs, min_ys, max_xs, max_ys = columns
    # The padded edges and the floats either side of them, where ``x - pad``
    # rounds across an edge.
    padded_xs = np.concatenate((min_xs - radius, max_xs + radius))
    padded_ys = np.concatenate((min_ys - radius, max_ys + radius))
    xs = [*min_xs, *max_xs, *padded_xs, *np.nextafter(padded_xs, math.inf)]
    xs += list(np.nextafter(padded_xs, -math.inf))
    ys = [*min_ys, *max_ys, *padded_ys, *np.nextafter(padded_ys, math.inf)]
    ys += list(np.nextafter(padded_ys, -math.inf))
    table = _CellTable.build(columns, radius)
    if table is not None:
        xs += [table.origin_x + k * table.size for k in range(table.columns + 1)]
        ys += [table.origin_y + k * table.size for k in range(table.cell_rows + 1)]
    strays = [math.nan, math.inf, -math.inf, 1e6, -1e6, 0.0]
    pool_x = st.sampled_from([float(x) for x in xs] + strays) | _COORDINATE
    pool_y = st.sampled_from([float(y) for y in ys] + strays) | _COORDINATE
    pairs = draw(st.lists(st.tuples(pool_x, pool_y), min_size=1, max_size=60))
    return (np.array([x for x, _ in pairs]), np.array([y for _, y in pairs]))


def _scanning(flat: FlatSpatialIndex, pad: float) -> FlatSpatialIndex:
    """A copy of ``flat`` answering point queries for ``pad`` by the scan."""
    scanner = copy.copy(flat)
    scanner._cells = (pad, None)
    return scanner


def _index(geometry: str, columns) -> FlatSpatialIndex:
    """The ``geometry`` index of a layout: its boxes, or their min corners as points."""
    payloads = list(range(len(columns[0])))
    if geometry == "point":
        return FlatSpatialIndex.from_points(columns[0], columns[1], payloads)
    return FlatSpatialIndex.from_boxes(columns, payloads)


def _str_walk(flat: FlatSpatialIndex, xs: np.ndarray, ys: np.ndarray, radius: float):
    """Per query, what the STR-loaded oracle tree over ``flat``'s rows answers:
    the rows containing the point, and ``(distance, row)`` within ``radius``."""
    corners = zip(*(column.tolist() for column in flat.entry_columns))
    tree = RTree.bulk_load(RTreeEntry(BoundingBox(*box), row) for row, box in enumerate(corners))
    points = [Point(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    contained = [[entry.item for entry in tree.query_point(point)] for point in points]
    near = [
        [(distance, entry.item) for distance, entry in tree.within_distance(point, radius)]
        for point in points
    ]
    return contained, near


def _per_query(offsets: np.ndarray, rows: np.ndarray, distances=None) -> list:
    """A CSR answer as one list per query (of ``(distance, row)`` with distances)."""
    bounds, found = offsets.tolist(), rows.tolist()
    if distances is not None:
        found = list(zip(distances.tolist(), found))
    return [found[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]


def _bits(array: np.ndarray) -> list:
    return array.view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    columns=_layouts(),
    radius=st.sampled_from([0.0, 0.3, 0.7, 7.5, 1000.0]),
    geometry=st.sampled_from(["bbox", "point"]),
)
def test_point_queries_equal_the_str_walk(data, columns, radius, geometry):
    flat = _index(geometry, columns)
    xs, ys = _queries(data.draw, flat.entry_columns, radius)
    contained, near = _str_walk(flat, xs, ys, radius)

    offsets, rows = flat.query_points_batch(xs, ys)
    scanned_offsets, scanned_rows = _scanning(flat, 0.0).query_points_batch(xs, ys)
    assert offsets.tolist() == scanned_offsets.tolist()
    assert rows.tolist() == scanned_rows.tolist()
    assert _per_query(offsets, rows) == contained

    offsets, rows, distances = flat.within_distance_batch(xs, ys, radius)
    scanned = _scanning(flat, radius).within_distance_batch(xs, ys, radius)
    assert offsets.tolist() == scanned[0].tolist()
    assert rows.tolist() == scanned[1].tolist()
    assert _bits(distances) == _bits(scanned[2])
    assert _per_query(offsets, rows, distances) == near


def test_a_point_past_a_padded_edge_by_rounding_is_found():
    """``-0.09999999999999999 + 0.3`` rounds up to ``0.2``, so the scan accepts a
    point one ulp outside ``0.2 - 0.3``, the grid's unwidened origin: the
    table's widened boxes must list it."""
    columns = [np.array(column) for column in ([0.2, 3.0], [0.1, 0.3], [0.2, 3.0], [1.1, 0.6])]
    flat = FlatSpatialIndex.from_boxes(columns, ["left", "right"])
    xs, ys = np.array([-0.09999999999999999]), np.array([0.5])
    offsets, rows, distances = flat.within_distance_batch(xs, ys, 0.3)
    scanned = _scanning(flat, 0.3).within_distance_batch(xs, ys, 0.3)
    assert [flat.payloads[row] for row in scanned[1].tolist()] == ["left"]
    assert offsets.tolist() == scanned[0].tolist() and rows.tolist() == scanned[1].tolist()
    assert _bits(distances) == _bits(scanned[2])


@settings(max_examples=60, deadline=None)
@given(columns=_layouts(), pad=st.sampled_from([0.0, 0.5, 7.5, 1000.0]))
def test_a_table_stays_linear_in_the_entries(columns, pad):
    """At most 8 rows per entry and ``3n + 1`` cells, whatever the layout."""
    count = len(columns[0])
    table = _CellTable.build(columns, pad)
    assert table is not None
    assert len(table.rows) <= _CELL_ROWS_PER_ENTRY * count
    assert len(table.starts) - 1 <= 3 * count + 1


def test_the_collinear_layout_of_the_degenerate_shapes_test():
    columns = [np.arange(40.0), np.full(40, 50.0), np.arange(40.0), np.full(40, 50.0)]
    table = _CellTable.build(columns, 0.0)
    assert table is not None
    assert table.cell_rows == 1 and table.columns <= 41
    assert len(table.rows) <= 80


def test_cycling_radii_keeps_one_table_per_index():
    rng = np.random.default_rng(7)
    corners = rng.uniform(0.0, 1000.0, size=(2, 200))
    sizes = rng.uniform(0.0, 40.0, size=(2, 200))
    flat = FlatSpatialIndex.from_boxes(
        [corners[0], corners[1], corners[0] + sizes[0], corners[1] + sizes[1]], list(range(200))
    )
    xs, ys = rng.uniform(-50.0, 1050.0, size=(2, 64))
    attributes = set(vars(flat))
    for radius in (0.0, 10.0, 35.0, 0.0, 90.0, 10.0) * 3:
        flat.within_distance_batch(xs, ys, radius)
        pad, table = flat._cells
        assert pad == radius and table is not None
        assert set(vars(flat)) == attributes
    flat.query_points_batch(xs, ys)
    assert flat._cells[0] == 0.0


def test_no_table_travels_with_a_pickle():
    """For every geometry: the copy has no table, the same columns and payloads."""
    boxes = [np.array([0.0, 5.0]), np.array([0.0, 5.0]), np.array([4.0, 9.0]), np.array([4.0, 9.0])]
    for flat in (
        FlatSpatialIndex.from_boxes(boxes, ["a", "b"]),
        FlatSpatialIndex.from_boxes(boxes, ["a", "b"], segments=boxes),
        FlatSpatialIndex.from_points(boxes[0], boxes[1], ["a", "b"]),
    ):
        flat.query_points_batch(np.array([1.0]), np.array([1.0]))
        assert flat._cells is not None
        clone = pickle.loads(pickle.dumps(flat))
        assert clone._cells is None
        assert clone.payloads == flat.payloads and clone.geometry == flat.geometry
        ours = flat.entry_columns + (flat.segment_columns or ())
        theirs = clone.entry_columns + (clone.segment_columns or ())
        assert len(ours) == len(theirs)
        for column, twin in zip(ours, theirs):
            assert column.dtype == twin.dtype and column.tolist() == twin.tolist()
        assert clone.within_distance_batch(np.array([1.0]), np.array([1.0]), 1.5)[1].tolist() == [0]


_FINITE = [np.array(column) for column in ([0.0, 5.0], [0.0, 5.0], [4.0, 9.0], [4.0, 9.0])]


@pytest.mark.parametrize(
    "columns, pad",
    [
        (_FINITE, math.inf),
        ([_FINITE[0], _FINITE[1], np.array([4.0, math.inf]), _FINITE[3]], 0.0),
        ([np.array([-math.inf, 5.0]), *_FINITE[1:]], 3.0),
    ],
    ids=["inf-pad", "entry-to-inf", "entry-from-minus-inf"],
)
def test_no_finite_extent_takes_the_scan(columns, pad):
    assert _CellTable.build(columns, pad) is None
    flat = FlatSpatialIndex.from_boxes(columns, [0, 1])
    xs, ys = np.array([2.0, 7.0, 100.0, -100.0]), np.array([2.0, 7.0, 5.0, 5.0])
    found = flat.within_distance_batch(xs, ys, pad)
    scanned = _scanning(flat, pad).within_distance_batch(xs, ys, pad)
    assert [column.tolist() for column in found] == [column.tolist() for column in scanned]
    assert flat._cells == (pad, None)
    contained, near = _str_walk(flat, xs, ys, pad)
    assert _per_query(*found) == near
    assert _per_query(*flat.query_points_batch(xs, ys)) == contained


@pytest.mark.parametrize("geometry", ["bbox", "segment", "point"])
def test_an_empty_index_answers_every_form_without_a_table(geometry):
    nothing = np.empty(0)
    if geometry == "point":
        flat = FlatSpatialIndex.from_points(nothing, nothing, [])
    else:
        segments = (nothing,) * 4 if geometry == "segment" else None
        flat = FlatSpatialIndex.from_boxes((nothing,) * 4, [], segments=segments)
    xs, ys = np.array([0.0, math.nan]), np.array([0.0, 1.0])
    assert flat.query_points_batch(xs, ys)[0].tolist() == [0, 0, 0]
    assert flat.within_distance_batch(xs, ys, 5.0)[0].tolist() == [0, 0, 0]
    assert flat.query_boxes_batch(xs, ys, xs, ys)[0].tolist() == [0, 0, 0]
    assert flat.nearest_batch(xs, ys, 2)[0].tolist() == [0, 0, 0]
    assert flat.within_distance_point(Point(0.0, 0.0), 5.0) == []
    assert flat.query_box_payloads(BoundingBox(-1.0, -1.0, 1.0, 1.0)) == []
    assert flat.nearest_point(Point(0.0, 0.0)) == [] and flat.bounds() is None
    assert flat._cells is None


def _three_along_x(geometry: str) -> FlatSpatialIndex:
    """Entries ``a``, ``b``, ``c`` 10 apart along the x axis, in ``geometry``."""
    xs = np.array([0.0, 10.0, 20.0])
    zeros = np.zeros(3)
    if geometry == "point":
        return FlatSpatialIndex.from_points(xs, zeros, ["a", "b", "c"])
    boxes = (xs, zeros, xs + 1.0, zeros + 1.0)
    return FlatSpatialIndex.from_boxes(
        boxes, ["a", "b", "c"], segments=boxes if geometry == "segment" else None
    )


@pytest.mark.parametrize("geometry", ["bbox", "segment", "point"])
@pytest.mark.parametrize("form", ["single", "batch"])
@pytest.mark.parametrize(
    "x, radius, expected",
    [
        (math.nan, 5.0, []),
        (math.inf, 5.0, []),
        (3.0, math.inf, ["a", "b", "c"]),
        (3.0, math.nan, ValueError),
    ],
    ids=["nan-x", "inf-x", "inf-radius", "nan-radius"],
)
def test_non_finite_lookups_answer_like_the_batch(geometry, form, x, radius, expected):
    """A NaN or infinite coordinate finds nothing, an infinite radius every row
    and a NaN radius is refused — by the one-row lookup as by the batch."""
    flat = _three_along_x(geometry)

    def lookup():
        if form == "single":
            return [item for _, item in flat.within_distance_point(Point(x, 0.5), radius)]
        _, rows, _ = flat.within_distance_batch(np.array([x]), np.array([0.5]), radius)
        return [flat.payloads[row] for row in rows.tolist()]

    if expected is ValueError:
        with pytest.raises(ValueError):
            lookup()
    else:
        assert lookup() == expected


def test_a_snapshot_pickle_carries_no_lazy_table(annotation_sources):
    """What a spawned worker is sent is the same before and after the joins."""
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    before = pickle.dumps(context, pickle.HIGHEST_PROTOCOL)
    regions, network = context.sources.regions, context.sources.road_network
    bounds = regions.flat_index().bounds()
    assert bounds is not None
    xs = np.linspace(bounds.min_x, bounds.max_x, 50)
    ys = np.linspace(bounds.min_y, bounds.max_y, 50)
    regions.first_regions_containing_columns(xs.tolist(), ys.tolist())
    network.flat_index().within_distance_batch(xs, ys, 40.0)
    assert regions._ranks is not None
    assert regions.flat_index()._cells is not None and network.flat_index()._cells is not None
    after = pickle.dumps(context, pickle.HIGHEST_PROTOCOL)
    assert after == before
    twin = pickle.loads(after)
    assert twin.sources.regions._ranks is None
    assert twin.sources.regions.flat_index()._cells is None
    assert twin.sources.road_network.flat_index()._cells is None
