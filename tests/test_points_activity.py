"""Unit tests for activity mapping and trajectory classification (Equation 8)."""

from __future__ import annotations

import pytest

from repro.points.activity import (
    ACTIVITY_BY_CATEGORY,
    activity_for_category,
    trajectory_category,
)


class TestActivityMapping:
    def test_known_categories(self):
        assert activity_for_category("item sale") == "shopping"
        assert activity_for_category("feedings") == "eating"
        assert activity_for_category("office") == "work"

    def test_unknown_category_falls_back_to_itself(self):
        assert activity_for_category("museum") == "museum"

    def test_all_milan_categories_covered(self):
        for category in ("services", "feedings", "item sale", "person life", "unknown"):
            assert category in ACTIVITY_BY_CATEGORY


class TestTrajectoryCategory:
    def test_longest_total_stop_time_wins(self):
        categories = ["feedings", "item sale", "item sale"]
        durations = [1000.0, 300.0, 400.0]
        assert trajectory_category(categories, durations) == "feedings"

    def test_summed_durations_per_category(self):
        categories = ["feedings", "item sale", "item sale"]
        durations = [500.0, 300.0, 400.0]
        assert trajectory_category(categories, durations) == "item sale"

    def test_empty_returns_none(self):
        assert trajectory_category([], []) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            trajectory_category(["a"], [1.0, 2.0])

    def test_negative_durations_treated_as_zero(self):
        assert trajectory_category(["a", "b"], [-5.0, 1.0]) == "b"

    def test_tie_broken_deterministically(self):
        assert trajectory_category(["b", "a"], [10.0, 10.0]) == trajectory_category(
            ["a", "b"], [10.0, 10.0]
        )
