"""Unit and property-based tests for the R-tree."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.primitives import BoundingBox, Point
from repro.reference import RTree, RTreeEntry


def _box_for(x: float, y: float, w: float = 1.0, h: float = 1.0) -> BoundingBox:
    return BoundingBox(x, y, x + w, y + h)


class TestRTreeBasics:
    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.bounds is None
        assert tree.search(_box_for(0, 0)) == []
        assert tree.nearest(Point(0, 0)) == []

    def test_insert_and_search(self):
        tree = RTree()
        tree.insert(_box_for(0, 0), "a")
        tree.insert(_box_for(10, 10), "b")
        hits = tree.search_items(_box_for(-1, -1, 3, 3))
        assert hits == ["a"]

    def test_insert_point(self):
        tree = RTree()
        tree.insert_point(Point(5, 5), "p")
        assert tree.query_point(Point(5, 5))[0].item == "p"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=5)

    def test_bulk_load_matches_inserted_content(self):
        entries = [RTreeEntry(_box_for(i, i), i) for i in range(100)]
        tree = RTree.bulk_load(entries, max_entries=8)
        assert len(tree) == 100
        assert sorted(entry.item for entry in tree.all_entries()) == list(range(100))

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0

    def test_query_point_exact_containment(self):
        tree = RTree()
        tree.insert(BoundingBox(0, 0, 10, 10), "big")
        tree.insert(BoundingBox(20, 20, 30, 30), "far")
        hits = [entry.item for entry in tree.query_point(Point(5, 5))]
        assert hits == ["big"]

    def test_nearest_returns_sorted_distances(self):
        tree = RTree()
        for i in range(10):
            tree.insert_point(Point(i * 10, 0), i)
        results = tree.nearest(Point(2, 0), count=3)
        assert [entry.item for _, entry in results] == [0, 1, 2]
        distances = [distance for distance, _ in results]
        assert distances == sorted(distances)

    def test_nearest_with_custom_distance(self):
        tree = RTree()
        tree.insert(BoundingBox(0, 0, 10, 0.1), "h")
        tree.insert(BoundingBox(5, 5, 5.1, 15), "v")
        results = tree.nearest(
            Point(5, 3), count=2, distance_fn=lambda p, e: e.box.min_distance_to_point(p)
        )
        assert results[0][1].item == "v" or results[0][0] <= results[1][0]

    def test_within_distance(self):
        tree = RTree()
        for i in range(20):
            tree.insert_point(Point(i, 0), i)
        results = tree.within_distance(Point(0, 0), radius=5.0)
        assert [entry.item for _, entry in results] == [0, 1, 2, 3, 4, 5]

    def test_within_distance_negative_radius_raises(self):
        tree = RTree()
        with pytest.raises(ValueError):
            tree.within_distance(Point(0, 0), radius=-1.0)


class TestRTreeScale:
    def test_many_inserts_keep_invariants(self):
        rng = random.Random(3)
        tree = RTree(max_entries=8)
        boxes = []
        for i in range(400):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            box = _box_for(x, y, rng.uniform(1, 20), rng.uniform(1, 20))
            boxes.append((box, i))
            tree.insert(box, i)
        tree.check_invariants()
        # Every inserted item must be findable through its own box.
        for box, item in boxes:
            assert item in tree.search_items(box)

    def test_search_agrees_with_linear_scan(self):
        rng = random.Random(7)
        boxes = [
            (_box_for(rng.uniform(0, 500), rng.uniform(0, 500), 5, 5), i) for i in range(300)
        ]
        tree = RTree.bulk_load([RTreeEntry(box, item) for box, item in boxes], max_entries=10)
        tree.check_invariants()
        query = BoundingBox(100, 100, 200, 250)
        expected = sorted(item for box, item in boxes if box.intersects(query))
        actual = sorted(tree.search_items(query))
        assert actual == expected

    def test_nearest_agrees_with_linear_scan(self):
        rng = random.Random(11)
        points = [(Point(rng.uniform(0, 100), rng.uniform(0, 100)), i) for i in range(200)]
        tree = RTree()
        for point, item in points:
            tree.insert_point(point, item)
        query = Point(50, 50)
        expected = min(points, key=lambda pair: pair[0].distance_to(query))[1]
        actual = tree.nearest(query, count=1)[0][1].item
        assert actual == expected


@st.composite
def boxes(draw):
    x = draw(st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False))
    y = draw(st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False))
    w = draw(st.floats(min_value=0, max_value=50, allow_nan=False, allow_infinity=False))
    h = draw(st.floats(min_value=0, max_value=50, allow_nan=False, allow_infinity=False))
    return BoundingBox(x, y, x + w, y + h)


class TestRTreeProperties:
    @given(st.lists(boxes(), min_size=0, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_insertion_preserves_invariants_and_count(self, box_list):
        tree = RTree(max_entries=6)
        for index, box in enumerate(box_list):
            tree.insert(box, index)
        tree.check_invariants()
        assert len(tree) == len(box_list)

    @given(st.lists(boxes(), min_size=1, max_size=60), boxes())
    @settings(max_examples=50, deadline=None)
    def test_range_query_matches_linear_scan(self, box_list, query):
        tree = RTree.bulk_load(
            [RTreeEntry(box, index) for index, box in enumerate(box_list)], max_entries=6
        )
        expected = sorted(index for index, box in enumerate(box_list) if box.intersects(query))
        assert sorted(tree.search_items(query)) == expected

    @given(st.lists(boxes(), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_every_entry_found_by_point_query_at_its_center(self, box_list):
        tree = RTree(max_entries=5)
        for index, box in enumerate(box_list):
            tree.insert(box, index)
        for index, box in enumerate(box_list):
            hits = [entry.item for entry in tree.query_point(box.center)]
            assert index in hits
