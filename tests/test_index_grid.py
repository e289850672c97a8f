"""Unit tests for the uniform grid index."""

from __future__ import annotations

import random

import pytest

from repro.geometry.primitives import BoundingBox, Point
from repro.reference import GridIndex


class TestGridIndex:
    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(cell_size=0)

    def test_insert_and_len(self):
        index = GridIndex(cell_size=10)
        index.insert(Point(5, 5), "a")
        index.insert(Point(15, 5), "b")
        assert len(index) == 2

    def test_query_box(self):
        index = GridIndex(cell_size=10)
        index.insert(Point(5, 5), "a")
        index.insert(Point(50, 50), "b")
        hits = [item for _, item in index.query_box(BoundingBox(0, 0, 10, 10))]
        assert hits == ["a"]

    def test_query_box_excludes_points_in_overlapping_cells_but_outside_box(self):
        index = GridIndex(cell_size=100)
        index.insert(Point(99, 99), "inside-cell-outside-box")
        hits = index.query_box(BoundingBox(0, 0, 50, 50))
        assert hits == []

    def test_query_radius_sorted_by_distance(self):
        index = GridIndex(cell_size=10)
        for i in range(10):
            index.insert(Point(i * 5, 0), i)
        results = index.query_radius(Point(0, 0), radius=12)
        assert [item for _, _, item in results] == [0, 1, 2]
        distances = [distance for distance, _, _ in results]
        assert distances == sorted(distances)

    def test_query_radius_negative_raises(self):
        with pytest.raises(ValueError):
            GridIndex(10).query_radius(Point(0, 0), -1)

    def test_nearest_expands_search(self):
        index = GridIndex(cell_size=1)
        index.insert(Point(100, 100), "far")
        results = index.nearest(Point(0, 0), count=1)
        assert results[0][2] == "far"

    def test_nearest_on_empty_index(self):
        assert GridIndex(10).nearest(Point(0, 0)) == []

    def test_nearest_matches_linear_scan(self):
        rng = random.Random(5)
        index = GridIndex(cell_size=10)
        points = []
        for i in range(200):
            point = Point(rng.uniform(0, 200), rng.uniform(0, 200))
            points.append((point, i))
            index.insert(point, i)
        query = Point(100, 100)
        expected = min(points, key=lambda pair: pair[0].distance_to(query))[1]
        assert index.nearest(query, count=1)[0][2] == expected

    def test_bounds(self):
        index = GridIndex(cell_size=10)
        assert index.bounds() is None
        index.insert(Point(0, 0), "a")
        index.insert(Point(10, 20), "b")
        assert index.bounds() == BoundingBox(0, 0, 10, 20)

    def test_cell_counts(self):
        index = GridIndex(cell_size=10)
        index.insert(Point(1, 1), "a")
        index.insert(Point(2, 2), "b")
        index.insert(Point(15, 1), "c")
        counts = index.cell_counts()
        assert counts[(0, 0)] == 2
        assert counts[(1, 0)] == 1

    def test_all_items(self):
        index = GridIndex(cell_size=10)
        index.insert(Point(1, 1), "a")
        index.insert(Point(2, 2), "b")
        assert sorted(item for _, item in index.all_items()) == ["a", "b"]
