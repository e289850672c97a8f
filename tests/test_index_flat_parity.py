"""Property-based parity: flat batch queries equal per-point scalar queries.

Hand-rolled hypothesis-style generator (seeded ``numpy.random.Generator``,
like the rest of the property suites): every seed produces a random point /
box cloud — including duplicate boxes and coincident points — plus a random
query batch, and the flat index packed from the same rows (the product's
build; for insertion-grown trees the oracle compile of ``repro.reference``)
must return exactly what the scalar tree / grid oracle returns per query: same
payloads, same order, bit-identical distances.  Degenerate shapes (empty
results, single-entry indexes, collinear point sets, zero radius, ``count``
larger than the index) are covered explicitly.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.geometry.primitives import BoundingBox, Point
from repro.index.flat import FlatSpatialIndex, box_columns, point_columns
from repro.reference import GridIndex, RTree, RTreeEntry, from_grid, from_rtree


def _pack(entries: List[RTreeEntry]) -> FlatSpatialIndex:
    """The product's build of the rows ``RTree.bulk_load(entries)`` indexes."""
    return FlatSpatialIndex.from_boxes(
        box_columns(entry.box for entry in entries), [entry.item for entry in entries]
    )


def _grid_and_flat(cell_size: float, pairs) -> Tuple[GridIndex, FlatSpatialIndex]:
    """The oracle grid and the product's point layout of the same ``(point, item)`` pairs."""
    grid = GridIndex(cell_size=cell_size)
    grid.insert_many(iter(pairs))
    flat = FlatSpatialIndex.from_points(
        *point_columns([point for point, _ in pairs]),
        [item for _, item in pairs],
        cell_size=cell_size,
    )
    return grid, flat


def _random_entries(rng: np.random.Generator, count: int) -> List[RTreeEntry]:
    entries: List[RTreeEntry] = []
    for index in range(count):
        x, y = rng.uniform(0.0, 1000.0, size=2)
        w, h = rng.uniform(0.0, 40.0, size=2)
        entries.append(RTreeEntry(BoundingBox(x, y, x + w, y + h), index))
    # Duplicate boxes: distinct payloads sharing identical geometry must keep
    # a deterministic relative order in every query.
    for duplicate in range(count // 10):
        box = entries[duplicate].box
        entries.append(RTreeEntry(box, count + duplicate))
    return entries


def _random_queries(
    rng: np.random.Generator, count: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    xs = rng.uniform(-200.0, 1200.0, size=count)
    ys = rng.uniform(-200.0, 1200.0, size=count)
    ws = rng.uniform(0.0, 100.0, size=count)
    hs = rng.uniform(0.0, 100.0, size=count)
    return xs, ys, xs + ws, ys + hs


def _assert_rtree_parity(tree: RTree, flat: FlatSpatialIndex, rng: np.random.Generator) -> None:
    query_count = 64
    min_xs, min_ys, max_xs, max_ys = _random_queries(rng, query_count)

    offsets, rows = flat.query_boxes_batch(min_xs, min_ys, max_xs, max_ys)
    for i in range(query_count):
        box = BoundingBox(min_xs[i], min_ys[i], max_xs[i], max_ys[i])
        scalar = [entry.item for entry in tree.search(box)]
        batch = [flat.payloads[rows[k]] for k in range(offsets[i], offsets[i + 1])]
        assert batch == scalar

    for radius in (0.0, 35.0, 90.0):
        offsets, rows, distances = flat.within_distance_batch(min_xs, min_ys, radius)
        for i in range(query_count):
            point = Point(min_xs[i], min_ys[i])
            scalar = [(d, entry.item) for d, entry in tree.within_distance(point, radius)]
            batch = [
                (float(distances[k]), flat.payloads[rows[k]])
                for k in range(offsets[i], offsets[i + 1])
            ]
            assert batch == scalar  # distances compared exactly, not approximately

    for count in (1, 3, len(tree) + 5):
        offsets, rows, distances = flat.nearest_batch(min_xs, min_ys, count)
        for i in range(query_count):
            point = Point(min_xs[i], min_ys[i])
            scalar = [(d, entry.item) for d, entry in tree.nearest(point, count=count)]
            batch = [
                (float(distances[k]), flat.payloads[rows[k]])
                for k in range(offsets[i], offsets[i + 1])
            ]
            assert batch == scalar


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_rtree_flat_parity_bulk_loaded(seed):
    rng = np.random.default_rng(seed)
    entries = _random_entries(rng, 150)
    tree = RTree.bulk_load(entries)
    flat = _pack(entries)
    assert len(flat) == len(tree)
    _assert_rtree_parity(tree, flat, rng)


@pytest.mark.parametrize("seed", [5, 19])
def test_rtree_flat_parity_insertion_built(seed):
    """The flat compiler handles insertion-grown (split-shaped) trees too."""
    rng = np.random.default_rng(seed)
    tree = RTree(max_entries=8)
    for entry in _random_entries(rng, 90):
        tree.insert(entry.box, entry.item)
    flat = from_rtree(tree)
    _assert_rtree_parity(tree, flat, rng)


def test_rtree_flat_degenerate_shapes():
    rng = np.random.default_rng(3)

    # Empty tree: every batch query is empty but well-formed CSR.
    empty = _pack([])
    assert empty.level_count == from_rtree(RTree.bulk_load([])).level_count == 0
    offsets, rows = empty.query_boxes_batch(
        np.array([0.0]), np.array([0.0]), np.array([10.0]), np.array([10.0])
    )
    assert offsets.tolist() == [0, 0] and len(rows) == 0
    offsets, rows, distances = empty.nearest_batch(np.array([0.0]), np.array([0.0]), 3)
    assert offsets.tolist() == [0, 0] and len(rows) == 0 and len(distances) == 0

    # Single-entry tree (root is a leaf, no internal levels beyond it).
    only = [RTreeEntry(BoundingBox(5.0, 5.0, 6.0, 6.0), "only")]
    single = RTree.bulk_load(only)
    flat = _pack(only)
    _assert_rtree_parity(single, flat, rng)

    # Collinear degenerate (zero-area) boxes along one axis.
    points = [RTreeEntry(BoundingBox(float(i), 50.0, float(i), 50.0), i) for i in range(40)]
    collinear = RTree.bulk_load(points)
    flat = _pack(points)
    _assert_rtree_parity(collinear, flat, rng)

    # Queries far away from everything: all-empty result sets.
    offsets, rows, distances = flat.within_distance_batch(
        np.array([10_000.0, -10_000.0]), np.array([10_000.0, -10_000.0]), 5.0
    )
    assert offsets.tolist() == [0, 0, 0] and len(rows) == 0


def _assert_grid_parity(
    grid: GridIndex,
    flat: FlatSpatialIndex,
    rng: np.random.Generator,
    nearest_counts: Tuple[int, ...] = (1, 4),
) -> None:
    # ``nearest_counts`` must stay <= the number of reachable points: the
    # scalar ring-doubling search degenerates to a near-exhaustive cell scan
    # when it can never satisfy the count (see test_grid_flat_nearest_cap).
    query_count = 64
    min_xs, min_ys, max_xs, max_ys = _random_queries(rng, query_count)

    offsets, rows = flat.query_boxes_batch(min_xs, min_ys, max_xs, max_ys)
    for i in range(query_count):
        box = BoundingBox(min_xs[i], min_ys[i], max_xs[i], max_ys[i])
        scalar = [item for _, item in grid.query_box(box)]
        batch = [flat.payloads[rows[k]] for k in range(offsets[i], offsets[i + 1])]
        assert batch == scalar

    for radius in (0.0, 60.0):
        offsets, rows, distances = flat.within_distance_batch(min_xs, min_ys, radius)
        for i in range(query_count):
            center = Point(min_xs[i], min_ys[i])
            scalar = [(d, item) for d, _, item in grid.query_radius(center, radius)]
            batch = [
                (float(distances[k]), flat.payloads[rows[k]])
                for k in range(offsets[i], offsets[i + 1])
            ]
            assert batch == scalar
            # The one-row form walks the cell columns instead of scanning.
            assert flat.within_distance_point(center, radius) == scalar

    for count in nearest_counts:
        offsets, rows, distances = flat.nearest_batch(min_xs, min_ys, count)
        for i in range(query_count):
            center = Point(min_xs[i], min_ys[i])
            scalar = [(d, item) for d, _, item in grid.nearest(center, count=count)]
            batch = [
                (float(distances[k]), flat.payloads[rows[k]])
                for k in range(offsets[i], offsets[i + 1])
            ]
            assert batch == scalar


@pytest.mark.parametrize("seed", [7, 29])
def test_grid_flat_parity(seed):
    rng = np.random.default_rng(seed)
    pairs = [
        (Point(float(x), float(y)), index)
        for index, (x, y) in enumerate(rng.uniform(0.0, 1000.0, size=(300, 2)))
    ]
    # Coincident points: equal distance to every query, so their relative
    # order exercises the (distance, row) tie-break.
    pairs += [(Point(333.0, 444.0), 1000 + duplicate) for duplicate in range(15)]
    grid, flat = _grid_and_flat(50.0, pairs)
    assert len(flat) == len(grid)
    _assert_grid_parity(grid, flat, rng)


def test_grid_flat_degenerate_shapes():
    rng = np.random.default_rng(13)

    # Single point.
    grid, flat = _grid_and_flat(10.0, [(Point(1.0, 2.0), "only")])
    _assert_grid_parity(grid, flat, rng, nearest_counts=(1,))

    # Collinear points in one cell column.
    grid, flat = _grid_and_flat(25.0, [(Point(12.0, float(i)), i) for i in range(30)])
    _assert_grid_parity(grid, flat, rng)


def test_grid_flat_nearest_cap():
    """The flat index honours the scalar ring-doubling's radius cap.

    ``GridIndex.nearest`` stops doubling once the radius would exceed
    ``cell_size * 1e6``, i.e. the largest radius it ever scans is
    ``cell_size * 2**19``; anything farther is invisible to it.  Running the
    scalar search all the way to that cap is infeasible (the cell loop grows
    as 4^k in the doublings), so this asserts the flat index's replication of
    the cap analytically: a payload just inside it is found, one outside is
    not — matching what the scalar semantics prescribe.
    """
    inside = float(2**19) - 1.0
    _, flat = _grid_and_flat(
        1.0,
        [
            (Point(0.0, 0.0), "near"),
            (Point(inside, 0.0), "at-cap"),
            (Point(2.0e6, 0.0), "beyond-cap"),
        ],
    )
    offsets, rows, distances = flat.nearest_batch(np.array([0.0]), np.array([0.0]), 3)
    batch = [flat.payloads[rows[k]] for k in range(offsets[0], offsets[1])]
    assert batch == ["near", "at-cap"]
    assert distances.tolist() == [0.0, inside]


def test_flat_compile_freezes_source():
    tree = RTree.bulk_load([RTreeEntry(BoundingBox(0.0, 0.0, 1.0, 1.0), "a")])
    from_rtree(tree)
    assert tree.frozen
    with pytest.raises(TypeError):
        tree.insert(BoundingBox(2.0, 2.0, 3.0, 3.0), "b")

    grid = GridIndex(cell_size=5.0)
    grid.insert(Point(0.0, 0.0), "a")
    from_grid(grid)
    assert grid.frozen
    with pytest.raises(TypeError):
        grid.insert(Point(1.0, 1.0), "b")


def test_flat_negative_radius_rejected():
    flat = _pack([RTreeEntry(BoundingBox(0.0, 0.0, 1.0, 1.0), "a")])
    with pytest.raises(ValueError):
        flat.within_distance_batch(np.array([0.0]), np.array([0.0]), -1.0)
    _, points = _grid_and_flat(5.0, [(Point(0.0, 0.0), "a")])
    with pytest.raises(ValueError):
        points.within_distance_point(Point(0.0, 0.0), -1.0)


def test_geocontext_precompiles_and_shares_flat_indexes(annotation_sources):
    """The sources' flat indexes exist from construction on; a snapshot shares them."""
    from repro.core import PipelineConfig
    from repro.parallel import GeoContext

    GeoContext.build(annotation_sources, PipelineConfig.for_people())
    region_flat = annotation_sources.regions.flat_index()
    road_flat = annotation_sources.road_network.flat_index()
    poi_flat = annotation_sources.pois.flat_index()
    assert annotation_sources.regions.flat_index() is region_flat
    assert annotation_sources.road_network.flat_index() is road_flat
    assert annotation_sources.pois.flat_index() is poi_flat
    assert len(region_flat) == len(annotation_sources.regions)
    assert len(road_flat) == len(annotation_sources.road_network)
    assert len(poi_flat) == len(annotation_sources.pois)


def test_flat_index_pickles_for_spawn_workers(annotation_sources):
    """A compiled flat index survives pickling (spawn-based process pools)."""
    import pickle

    flat = annotation_sources.road_network.flat_index()
    clone = pickle.loads(pickle.dumps(flat))
    xs = np.array([3000.0, 4000.0])
    ys = np.array([3000.0, 4000.0])
    original = flat.within_distance_batch(xs, ys, 60.0)
    restored = clone.within_distance_batch(xs, ys, 60.0)
    assert original[0].tolist() == restored[0].tolist()
    assert original[1].tolist() == restored[1].tolist()
    assert original[2].tolist() == restored[2].tolist()
    assert [p.place_id for p in clone.payloads] == [p.place_id for p in flat.payloads]
