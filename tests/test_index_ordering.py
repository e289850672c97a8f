"""The result-ordering tie-break contract of the flat index and its scalar oracles.

The contract (documented in :mod:`repro.index.flat`, and for the oracles in
:mod:`repro.reference.rtree` and :mod:`repro.reference.grid_index`): every
query returns results ordered by ``(distance, row)`` — or plain row order for
box searches — where an entry's *row* is its position in the source (for the
oracles: its insertion order).  Equal-distance neighbours and duplicate
bounding boxes therefore have a *provable* relative order, not an accidental
one: these tests construct exact ties (coordinates chosen so distances are
bit-equal floats) and pin the order on both the scalar oracles and the flat
index built from the same rows.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.primitives import BoundingBox, Point
from repro.index.flat import FlatSpatialIndex, box_columns, point_columns
from repro.reference import GridIndex, RTree, RTreeEntry


def _pack(entries) -> FlatSpatialIndex:
    """The product's index of the rows ``RTree.bulk_load(entries)`` indexes."""
    return FlatSpatialIndex.from_boxes(
        box_columns(entry.box for entry in entries), [entry.item for entry in entries]
    )


def test_rtree_duplicate_boxes_keep_row_order_in_search():
    """Duplicate bounding boxes appear in source order, repeatably."""
    box = BoundingBox(10.0, 10.0, 20.0, 20.0)
    entries = [RTreeEntry(box, f"dup-{i}") for i in range(10)]
    entries += [RTreeEntry(BoundingBox(100.0, 100.0, 110.0, 110.0), "far")]
    tree = RTree.bulk_load(entries, max_entries=4)
    flat = _pack(entries)
    rows = flat.payloads
    assert rows == [entry.item for entry in entries]

    query = BoundingBox(0.0, 0.0, 50.0, 50.0)
    scalar = [entry.item for entry in tree.search(query)]
    assert scalar == [f"dup-{i}" for i in range(10)]
    # Repeat: the order is deterministic, not incidental.
    assert [entry.item for entry in tree.search(query)] == scalar

    offsets, indices = flat.query_boxes_batch(
        np.array([0.0]), np.array([0.0]), np.array([50.0]), np.array([50.0])
    )
    assert [rows[i] for i in indices[offsets[0] : offsets[1]]] == scalar


def test_rtree_equal_distance_within_distance_ties_by_row():
    """Four corners exactly 5.0 from the centre: ties resolve by row."""
    corners = [
        RTreeEntry(BoundingBox(5.0, 0.0, 5.0, 0.0), "east"),
        RTreeEntry(BoundingBox(-5.0, 0.0, -5.0, 0.0), "west"),
        RTreeEntry(BoundingBox(0.0, 5.0, 0.0, 5.0), "north"),
        RTreeEntry(BoundingBox(0.0, -5.0, 0.0, -5.0), "south"),
        RTreeEntry(BoundingBox(1.0, 0.0, 1.0, 0.0), "inner"),
    ]
    tree = RTree.bulk_load(corners)
    flat = _pack(corners)
    rows = flat.payloads
    center = Point(0.0, 0.0)

    scalar = tree.within_distance(center, 5.0)
    assert [d for d, _ in scalar] == [1.0, 5.0, 5.0, 5.0, 5.0]
    # The tie block is the source order of the tied entries.
    assert [entry.item for _, entry in scalar[1:]] == ["east", "west", "north", "south"]

    offsets, indices, distances = flat.within_distance_batch(
        np.array([0.0]), np.array([0.0]), 5.0
    )
    batch = [rows[i] for i in indices[offsets[0] : offsets[1]]]
    assert batch == [entry.item for _, entry in scalar]
    assert distances.tolist() == [d for d, _ in scalar]


def test_rtree_equal_distance_nearest_ties_by_row():
    """nearest() emits equal-distance entries in row order.

    The truncation boundary is the interesting case: with count=3 and four
    entries tied at distance 5, the kept entries must be the three with the
    smallest rows — the heap's node-before-entry popping guarantees no
    unexpanded subtree can hide a smaller-row tie.
    """
    entries = [
        RTreeEntry(BoundingBox(5.0, 0.0, 5.0, 0.0), "a"),
        RTreeEntry(BoundingBox(0.0, 5.0, 0.0, 5.0), "b"),
        RTreeEntry(BoundingBox(-5.0, 0.0, -5.0, 0.0), "c"),
        RTreeEntry(BoundingBox(0.0, -5.0, 0.0, -5.0), "d"),
    ]
    # Spread across several leaves so ties span node boundaries.
    filler = [
        RTreeEntry(BoundingBox(50.0 + i, 50.0 + i, 51.0 + i, 51.0 + i), f"f{i}")
        for i in range(12)
    ]
    tree = RTree.bulk_load(filler[:6] + entries + filler[6:], max_entries=4)
    flat = _pack(filler[:6] + entries + filler[6:])
    tied_rows = ["a", "b", "c", "d"]

    center = Point(0.0, 0.0)
    scalar_all = tree.nearest(center, count=4)
    assert [entry.item for _, entry in scalar_all] == tied_rows
    scalar_three = tree.nearest(center, count=3)
    assert [entry.item for _, entry in scalar_three] == tied_rows[:3]

    offsets, indices, _ = flat.nearest_batch(np.array([0.0]), np.array([0.0]), 3)
    assert [flat.payloads[i] for i in indices[offsets[0] : offsets[1]]] == tied_rows[:3]


def test_rtree_inserts_take_the_next_row():
    """An insert's row is the count of entries before it, whatever leaf it lands in."""
    tree = RTree(max_entries=4)
    for i in range(8):
        tree.insert(BoundingBox(float(i), 0.0, float(i), 0.0), f"p{i}")
    first = [entry.item for _, entry in tree.nearest(Point(3.5, 10.0), count=8)]
    # Two inserts that tie at the query distance with existing entries.
    tree.insert(BoundingBox(3.0, 20.0, 3.0, 20.0), "late-a")
    tree.insert(BoundingBox(4.0, 20.0, 4.0, 20.0), "late-b")
    inserted = [f"p{i}" for i in range(8)] + ["late-a", "late-b"]
    positions = [Point(float(i), 0.0) for i in range(8)] + [Point(3.0, 20.0), Point(4.0, 20.0)]
    result = [entry.item for _, entry in tree.nearest(Point(3.5, 10.0), count=10)]
    # (distance, row) order, rows counted in insertion order.
    expected = sorted(
        inserted,
        key=lambda item: (
            Point(3.5, 10.0).distance_to(positions[inserted.index(item)]),
            inserted.index(item),
        ),
    )
    assert result == expected
    assert set(result) == set(first) | {"late-a", "late-b"}
    flat = FlatSpatialIndex.from_points(*point_columns(positions), inserted)
    assert [item for _, item in flat.nearest_point(Point(3.5, 10.0), count=10)] == expected


def test_grid_ties_follow_insertion_order():
    """Grid ties: insertion order, whichever cells the tied points fall in."""
    # Two coincident points in one cell (insertion order), plus a point in a
    # cell that sorts first, at exactly the same distance from the centre.
    pairs = [
        (Point(15.0, 5.0), "cell-a-first"),
        (Point(15.0, 5.0), "cell-a-second"),
        (Point(-15.0, 5.0), "cell-west"),  # same |dx| as cell-a points
    ]
    grid = GridIndex(cell_size=10.0)
    grid.insert_many(iter(pairs))
    center = Point(0.0, 5.0)

    scalar = [item for _, _, item in grid.query_radius(center, 20.0)]
    assert scalar == ["cell-a-first", "cell-a-second", "cell-west"]
    assert [item for _, _, item in grid.nearest(center, count=3)] == scalar

    flat = FlatSpatialIndex.from_points(
        *point_columns([point for point, _ in pairs]), [item for _, item in pairs]
    )
    offsets, indices, _ = flat.within_distance_batch(np.array([0.0]), np.array([5.0]), 20.0)
    assert [flat.payloads[i] for i in indices[offsets[0] : offsets[1]]] == scalar
    assert [item for _, item in flat.within_distance_point(center, 20.0)] == scalar
    assert [item for _, item in flat.nearest_point(center, count=3)] == scalar
