"""A point query reads one cell, and finds what the STR walk finds.

A box layout's point-shaped queries — :meth:`FlatSpatialIndex.query_points_batch`
(pad 0) and :meth:`FlatSpatialIndex.within_distance_batch` (pad ``radius``) —
read each query point's one cell of a uniform-grid cell table and box-test
the rows listed there.  The walk over the packed STR levels is the oracle:
the same index, its table switched off, must return the same offsets, rows
and distance bits, on layouts built to break the table — zero-size boxes,
collinear boxes, one box covering all the others, duplicates — and for
query points on cell edges and box edges, outside the extent, NaN and ±inf,
at radius 0, a small radius and one larger than the extent.
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
from repro.index.flat import FlatSpatialIndex, _CellTable
from repro.parallel import GeoContext

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
_KINDS = ("scattered", "zero-size", "collinear", "covering", "duplicates")


@st.composite
def _layouts(draw):
    """``(min_xs, min_ys, max_xs, max_ys)`` columns of one layout kind."""
    kind = draw(st.sampled_from(_KINDS))
    count = draw(st.integers(min_value=1, max_value=40))
    boxes = []
    for _ in range(count):
        x, y = draw(_COORDINATE), draw(_COORDINATE)
        if kind == "zero-size":
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


def _walking(flat: FlatSpatialIndex, pad: float) -> FlatSpatialIndex:
    """A copy of ``flat`` answering point queries for ``pad`` by the STR walk."""
    walker = copy.copy(flat)
    walker._cells = (pad, None)
    return walker


def _bits(array: np.ndarray) -> list:
    return array.view(np.uint64).tolist()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), columns=_layouts(), radius=st.sampled_from([0.0, 0.3, 0.7, 7.5, 1000.0]))
def test_point_queries_equal_the_str_walk(data, columns, radius):
    flat = FlatSpatialIndex.from_boxes(columns, list(range(len(columns[0]))))
    xs, ys = _queries(data.draw, flat.entry_columns, radius)

    offsets, rows = flat.query_points_batch(xs, ys)
    walked_offsets, walked_rows = _walking(flat, 0.0).query_points_batch(xs, ys)
    assert offsets.tolist() == walked_offsets.tolist()
    assert rows.tolist() == walked_rows.tolist()

    offsets, rows, distances = flat.within_distance_batch(xs, ys, radius)
    walked = _walking(flat, radius).within_distance_batch(xs, ys, radius)
    assert offsets.tolist() == walked[0].tolist()
    assert rows.tolist() == walked[1].tolist()
    assert _bits(distances) == _bits(walked[2])


def test_a_point_past_a_padded_edge_by_rounding_is_found():
    """``-0.09999999999999999 + 0.3`` rounds up to ``0.2``, so the walk accepts a
    point one ulp outside ``0.2 - 0.3``, the grid's unwidened origin: the
    table's widened boxes must list it."""
    columns = [np.array(column) for column in ([0.2, 3.0], [0.1, 0.3], [0.2, 3.0], [1.1, 0.6])]
    flat = FlatSpatialIndex.from_boxes(columns, ["left", "right"])
    xs, ys = np.array([-0.09999999999999999]), np.array([0.5])
    offsets, rows, distances = flat.within_distance_batch(xs, ys, 0.3)
    walked = _walking(flat, 0.3).within_distance_batch(xs, ys, 0.3)
    assert [flat.payloads[row] for row in walked[1].tolist()] == ["left"]
    assert offsets.tolist() == walked[0].tolist() and rows.tolist() == walked[1].tolist()
    assert _bits(distances) == _bits(walked[2])


@settings(max_examples=60, deadline=None)
@given(columns=_layouts(), pad=st.sampled_from([0.0, 0.5, 7.5, 1000.0]))
def test_a_table_stays_linear_in_the_entries(columns, pad):
    """At most 8 rows per entry and ``3n + 1`` cells, whatever the layout."""
    count = len(columns[0])
    table = _CellTable.build(columns, pad)
    assert table is not None
    assert len(table.rows) <= 8 * count
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
    flat = FlatSpatialIndex.from_boxes(
        [np.array([0.0, 5.0]), np.array([0.0, 5.0]), np.array([4.0, 9.0]), np.array([4.0, 9.0])],
        ["a", "b"],
    )
    flat.query_points_batch(np.array([1.0]), np.array([1.0]))
    assert flat._cells is not None
    clone = pickle.loads(pickle.dumps(flat))
    assert clone._cells is None
    assert clone.query_points_batch(np.array([1.0]), np.array([1.0]))[1].tolist() == [0]


@pytest.mark.parametrize("pad", [math.inf, math.nan])
def test_a_pad_with_no_finite_extent_walks_the_tree(pad):
    columns = [np.array(column) for column in ([0.0, 5.0], [0.0, 5.0], [4.0, 9.0], [4.0, 9.0])]
    assert _CellTable.build(columns, pad) is None
    flat = FlatSpatialIndex.from_boxes(columns, ["a", "b"])
    offsets, rows, _ = flat.within_distance_batch(np.array([2.0]), np.array([2.0]), pad)
    walked = _walking(flat, pad).within_distance_batch(np.array([2.0]), np.array([2.0]), pad)
    assert offsets.tolist() == walked[0].tolist() and rows.tolist() == walked[1].tolist()


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
