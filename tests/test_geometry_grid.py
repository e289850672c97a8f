"""Unit tests for the regular grid utilities."""

from __future__ import annotations

import pytest

from repro.geometry.grid import GridSpec
from repro.geometry.primitives import BoundingBox, Point


class TestGridSpec:
    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, 0, 10, 10)
        with pytest.raises(ValueError):
            GridSpec(0, 0, 10, 0, 10)

    def test_covering_box(self):
        spec = GridSpec.covering(BoundingBox(0, 0, 950, 450), cell_size=100)
        assert spec.n_cols == 10
        assert spec.n_rows == 5

    def test_bounds_cover_requested_box(self):
        box = BoundingBox(0, 0, 950, 450)
        spec = GridSpec.covering(box, cell_size=100)
        assert spec.bounds.contains_box(box)

    def test_cell_of_inside_and_outside(self):
        spec = GridSpec(0, 0, 100, 10, 10)
        assert spec.cell_of(Point(50, 50)) == (0, 0)
        assert spec.cell_of(Point(999, 999)) == (9, 9)
        assert spec.cell_of(Point(-1, 50)) is None
        assert spec.cell_of(Point(50, 1001)) is None

    def test_point_on_max_boundary_maps_to_last_cell(self):
        spec = GridSpec(0, 0, 100, 10, 10)
        assert spec.cell_of(Point(1000, 1000)) == (9, 9)

    def test_cell_bounds_and_center(self):
        spec = GridSpec(0, 0, 100, 10, 10)
        assert spec.cell_bounds((2, 3)) == BoundingBox(200, 300, 300, 400)
        assert spec.cell_center((2, 3)) == Point(250, 350)

    def test_cell_bounds_out_of_range_raises(self):
        spec = GridSpec(0, 0, 100, 2, 2)
        with pytest.raises(IndexError):
            spec.cell_bounds((5, 0))

    def test_neighbors_at_corner(self):
        spec = GridSpec(0, 0, 100, 10, 10)
        neighbors = spec.neighbors((0, 0), radius=1)
        assert set(neighbors) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_neighbors_in_middle(self):
        spec = GridSpec(0, 0, 100, 10, 10)
        assert len(spec.neighbors((5, 5), radius=1)) == 9

    def test_all_cells_count(self):
        spec = GridSpec(0, 0, 100, 4, 3)
        assert len(list(spec.all_cells())) == 12
