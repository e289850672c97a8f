"""The flat index packs itself: same arrays as the oracle compile, no tree on the product path.

``FlatSpatialIndex.from_boxes`` / ``from_points`` build the index straight
from coordinate columns with numpy Sort-Tile-Recursive / cell sorting.  The
long way round — ``repro.reference``'s pure-Python ``RTree.bulk_load`` or
``GridIndex`` inserts, then ``from_rtree`` / ``from_grid`` walking the nodes —
is how the product built the same index before, and stays the oracle:

* generated box and point sets pack to the identical layout (payload order,
  every level array, child ranges, entry and segment columns, ``nearest``
  radius cap), and so do the benchmark fleet's three sources;
* the single-point methods of the three source classes, now one-row flat
  queries, answer exactly what the tree / grid answers;
* with the oracles patched to raise, every execution mode still runs.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import AnnotationSources, PipelineConfig
from repro.core.errors import SourceError
from repro.datasets import SyntheticWorld
from repro.geometry.distance import point_segment_distance
from repro.geometry.predicates import polygon_intersects_bbox
from repro.geometry.primitives import BoundingBox, Point, Polygon
from repro.index.flat import FlatSpatialIndex, box_columns
from repro.lines.road_network import RoadNetwork
from repro.parallel import GeoContext, canonical_bytes
from repro.points.poi import PoiSource
from repro.reference import GridIndex, RTree, RTreeEntry, from_grid, from_rtree
from repro.regions.sources import RegionSource


def _assert_same_layout(packed: FlatSpatialIndex, compiled: FlatSpatialIndex) -> None:
    """Array-for-array identity of two flat indexes (payloads by identity)."""
    assert packed.geometry == compiled.geometry
    assert packed.level_count == compiled.level_count
    assert len(packed.payloads) == len(compiled.payloads)
    assert all(a is b for a, b in zip(packed.payloads, compiled.payloads))
    ours, theirs = packed.array_blocks(), compiled.array_blocks()
    assert list(ours) == list(theirs)
    for name, block in ours.items():
        assert block.dtype == theirs[name].dtype, name
        assert block.flags["C_CONTIGUOUS"], name
        assert np.array_equal(block, theirs[name]), name
    assert packed._nearest_max_radius == compiled._nearest_max_radius
    if packed.geometry == "point":
        assert packed._cell_keys == compiled._cell_keys
        assert packed._cell_starts == compiled._cell_starts


# ------------------------------------------------------------------ properties
# Coordinates from a small lattice: equal centres, duplicate boxes, shared
# edges and zero-area boxes are the rule, not the exception, so every stable
# sort in the packing has ties to keep in order.
_LATTICE = st.integers(min_value=-6, max_value=6).map(lambda v: v * 12.5)
_EXTENT = st.sampled_from([0.0, 0.0, 12.5, 25.0, 40.0])


@st.composite
def _boxes(draw):
    count = draw(st.one_of(st.integers(1, 40), st.integers(1, 600)))
    xs = draw(st.lists(_LATTICE, min_size=count, max_size=count))
    ys = draw(st.lists(_LATTICE, min_size=count, max_size=count))
    ws = draw(st.lists(_EXTENT, min_size=count, max_size=count))
    hs = draw(st.lists(_EXTENT, min_size=count, max_size=count))
    return [BoundingBox(x, y, x + w, y + h) for x, y, w, h in zip(xs, ys, ws, hs)]


@pytest.mark.parametrize("capacity", [4, 16])
@settings(max_examples=40, deadline=None)
@given(boxes=_boxes())
def test_direct_box_pack_equals_tree_compile(capacity, boxes):
    payloads = [object() for _ in boxes]
    entries = [RTreeEntry(box, payload) for box, payload in zip(boxes, payloads)]
    compiled = from_rtree(RTree.bulk_load(entries, max_entries=capacity))
    packed = FlatSpatialIndex.from_boxes(box_columns(boxes), payloads, capacity=capacity)
    _assert_same_layout(packed, compiled)


@settings(max_examples=40, deadline=None)
@given(
    cell_size=st.sampled_from([5.0, 12.5, 30.0, 100.0]),
    coordinates=st.lists(
        st.tuples(
            st.one_of(_LATTICE, st.floats(-80.0, 80.0)), st.one_of(_LATTICE, st.floats(-80.0, 80.0))
        ),
        min_size=1,
        max_size=300,
    ),
    center=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    radius=st.sampled_from([0.0, 7.0, 12.5, 40.0, 500.0]),
)
def test_direct_point_layout_equals_grid_compile(cell_size, coordinates, center, radius):
    payloads = [object() for _ in coordinates]
    grid = GridIndex(cell_size=cell_size)
    for (x, y), payload in zip(coordinates, payloads):
        grid.insert(Point(x, y), payload)
    packed = FlatSpatialIndex.from_points(
        np.array([x for x, _ in coordinates]),
        np.array([y for _, y in coordinates]),
        payloads,
        cell_size=cell_size,
    )
    _assert_same_layout(packed, from_grid(grid))
    # The one-row cell walk: the grid's answer, the columnar scan's answer.
    query = Point(*center)
    scalar = [(distance, item) for distance, _, item in grid.query_radius(query, radius)]
    assert packed.within_distance_point(query, radius) == scalar
    assert packed.within_distance_pairs([query], radius)[0] == scalar


def test_direct_pack_degenerate_shapes():
    empty = FlatSpatialIndex.from_boxes(box_columns([]), [])
    _assert_same_layout(empty, from_rtree(RTree.bulk_load([])))
    assert empty.bounds() is None and empty.nearest_point(Point(0.0, 0.0)) == []
    no_points = FlatSpatialIndex.from_points(np.array([]), np.array([]), [], cell_size=10.0)
    _assert_same_layout(no_points, from_grid(GridIndex(cell_size=10.0)))
    assert no_points.within_distance_point(Point(0.0, 0.0), 50.0) == []
    with pytest.raises(ValueError):
        FlatSpatialIndex.from_boxes(box_columns([BoundingBox(0, 0, 1, 1)]), [])
    with pytest.raises(ValueError):
        FlatSpatialIndex.from_boxes(box_columns([]), [], capacity=2)
    with pytest.raises(ValueError):
        FlatSpatialIndex.from_points(np.array([1.0]), np.array([1.0]), ["a"], cell_size=0.0)
    with pytest.raises(ValueError):  # rows handed to the constructor out of cell order
        FlatSpatialIndex(
            [], (np.array([50.0, 0.0]),) * 2 + (np.array([50.0, 0.0]),) * 2, ["a", "b"], "point",
            cell_size=10.0,
        )


# ------------------------------------------------------- the benchmark's sources
def test_bench_fleet_sources_pack_identically_to_the_oracle_compile():
    """The three sources every ``bench/run.py`` set-up builds, array for array."""
    from bench.fleet import WORLD

    world = SyntheticWorld(WORLD)
    regions = list(world.landuse_regions())
    segments = list(world.road_network().segments)
    pois = list(world.generate_pois())

    region_tree = RTree.bulk_load(RTreeEntry(region.bounding_box(), region) for region in regions)
    _assert_same_layout(RegionSource(regions).flat_index(), from_rtree(region_tree))

    road_tree = RTree.bulk_load(RTreeEntry(seg.bounding_box(), seg) for seg in segments)
    network = RoadNetwork(segments)
    compiled = from_rtree(road_tree, segment_of=lambda segment: segment.segment)
    _assert_same_layout(network.flat_index(), compiled)
    assert network.flat_index().segment_columns is not None  # compared as array blocks above

    grid = GridIndex(cell_size=100.0)
    grid.insert_many((poi.location, poi) for poi in pois)
    source = PoiSource(pois)
    _assert_same_layout(source.flat_index(), from_grid(grid))
    assert source.flat_index()._nearest_max_radius == 100.0 * 2.0**19


# ------------------------------------------------- one-row forms of the sources
def _query_points(bounds: BoundingBox, count: int, seed: int):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(bounds.min_x - 150.0, bounds.max_x + 150.0, size=count)
    ys = rng.uniform(bounds.min_y - 150.0, bounds.max_y + 150.0, size=count)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys)]


def test_region_source_single_point_methods_equal_the_tree(region_source):
    regions = region_source.regions
    tree = RTree.bulk_load(RTreeEntry(region.bounding_box(), region) for region in regions)
    assert tree.bounds is not None
    for point in _query_points(tree.bounds, 150, seed=3):
        containing = [
            entry.item for entry in tree.query_point(point) if entry.item.contains(point)
        ]
        assert region_source.regions_containing(point) == containing
        first = min(containing, key=lambda r: (r.area, r.place_id)) if containing else None
        assert region_source.first_region_containing(point) is first

        box = BoundingBox(point.x, point.y, point.x + 260.0, point.y + 140.0)
        intersecting = []
        for entry in tree.search(box):
            extent = entry.item.extent
            if isinstance(extent, BoundingBox):
                if extent.intersects(box):
                    intersecting.append(entry.item)
            elif isinstance(extent, Polygon) and polygon_intersects_bbox(extent, box):
                intersecting.append(entry.item)
        assert region_source.regions_intersecting(box) == intersecting


def test_road_network_single_point_methods_equal_the_tree(road_network):
    tree = RTree.bulk_load(
        RTreeEntry(segment.bounding_box(), segment) for segment in road_network.segments
    )

    def segment_distance(point, entry):
        return point_segment_distance(point, entry.item.segment)

    assert road_network.bounds() == tree.bounds
    for point in _query_points(road_network.bounds(), 150, seed=5):
        for radius, max_candidates in ((60.0, None), (400.0, 3)):
            scalar = [
                (distance, entry.item)
                for distance, entry in tree.within_distance(point, radius, segment_distance)
            ][:max_candidates]
            assert road_network.candidate_segments(point, radius, max_candidates) == scalar
        ((distance, entry),) = tree.nearest(point, count=1, distance_fn=segment_distance)
        assert road_network.nearest_segment(point) == (distance, entry.item)


def test_poi_source_single_point_methods_equal_the_grid(poi_source):
    grid = GridIndex(cell_size=100.0)
    grid.insert_many((poi.location, poi) for poi in poi_source.pois)
    assert poi_source.bounds() == grid.bounds()
    for point in _query_points(poi_source.bounds(), 150, seed=7):
        for radius in (0.0, 100.0, 800.0):
            scalar = [(distance, poi) for distance, _, poi in grid.query_radius(point, radius)]
            assert poi_source.pois_within(point, radius) == scalar
        box = BoundingBox(point.x - 300.0, point.y - 200.0, point.x + 300.0, point.y + 200.0)
        assert poi_source.pois_in_box(box) == [poi for _, poi in grid.query_box(box)]
        for count in (1, 4):
            scalar = [(distance, poi) for distance, _, poi in grid.nearest(point, count=count)]
            assert poi_source.nearest(point, count=count) == scalar


def test_sources_reject_empty_inputs_without_an_index():
    for source_type in (RegionSource, RoadNetwork, PoiSource):
        with pytest.raises(SourceError):
            source_type([])


# ----------------------------------------------- no oracle on the product path
def test_every_execution_mode_runs_with_the_oracles_raising(world, car_dataset, monkeypatch):
    """``GeoContext.build``, ``annotate_many``, a stream pass and a one-shard
    service drain never touch the tree or the grid."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the product reached for a test oracle")

    monkeypatch.setattr(RTree, "bulk_load", forbidden)
    monkeypatch.setattr(RTree, "insert", forbidden)
    monkeypatch.setattr(GridIndex, "insert", forbidden)

    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    config = PipelineConfig.for_vehicles().with_overrides({"service.shards": 1})
    context = GeoContext.build(sources, config)
    batch = car_dataset.trajectories[:3]
    expected = repro.annotate_many(batch, context=context)
    assert len(expected) == len(batch)

    engine = repro.stream(context)
    for trajectory in batch:
        for point in trajectory.points:
            engine.ingest(trajectory.object_id, point)
    streamed = engine.close_all()
    assert sum(len(r.trajectory.points) for r in streamed) == sum(len(t.points) for t in batch)

    service = repro.serve(context)

    async def drive():
        async with service:
            for trajectory in batch:
                for point in trajectory.points:
                    await service.ingest(trajectory.object_id, point)
            return await service.drain()

    served = asyncio.run(drive())
    assert service.dropped_events == 0

    def by_id(results):
        return sorted(results, key=lambda result: result.trajectory.trajectory_id)

    assert canonical_bytes(by_id(served)) == canonical_bytes(by_id(streamed))
