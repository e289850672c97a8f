"""Unit tests for the landuse ontology of Figure 4."""

from __future__ import annotations

import pytest

from repro.core.errors import SourceError
from repro.regions.landuse import (
    ALL_LANDUSE_CODES,
    LANDUSE_CATEGORIES,
    LANDUSE_TOP_LEVELS,
    label_of,
    landuse_category,
)


class TestOntologyStructure:
    def test_seventeen_subcategories(self):
        assert len(LANDUSE_CATEGORIES) == 17
        assert len(ALL_LANDUSE_CODES) == 17

    def test_four_top_levels(self):
        assert set(LANDUSE_TOP_LEVELS) == {1, 2, 3, 4}

    def test_every_code_maps_to_a_declared_top_level(self):
        for code, category in LANDUSE_CATEGORIES.items():
            assert category.top_level in LANDUSE_TOP_LEVELS
            assert code.startswith(str(category.top_level))

    def test_expected_codes_present(self):
        for code in ("1.1", "1.2", "1.3", "2.7", "3.10", "4.13", "4.17"):
            assert code in LANDUSE_CATEGORIES

    def test_building_and_transport_labels(self):
        assert label_of("1.2") == "building areas"
        assert label_of("1.3") == "transportation areas"
        assert label_of("4.13") == "lakes"


class TestLookups:
    def test_landuse_category_lookup(self):
        category = landuse_category("1.5")
        assert category.top_level == 1
        assert "recreational" in category.label

    def test_unknown_code_raises(self):
        with pytest.raises(SourceError):
            landuse_category("9.99")
