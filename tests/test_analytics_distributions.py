"""Unit tests for distribution helpers."""

from __future__ import annotations

import pytest

from repro.analytics.distributions import (
    cumulative_share,
    log_log_histogram,
    normalize_counts,
    top_k_categories,
)


class TestNormalizeCounts:
    def test_basic(self):
        normalized = normalize_counts({"a": 3, "b": 1})
        assert normalized["a"] == pytest.approx(0.75)
        assert sum(normalized.values()) == pytest.approx(1.0)

    def test_zero_total(self):
        assert normalize_counts({"a": 0}) == {"a": 0.0}


class TestTopK:
    def test_top_k_order(self):
        counts = {"1.2": 50, "1.3": 30, "2.7": 15, "3.10": 5}
        top = top_k_categories(counts, k=2)
        assert [category for category, _ in top] == ["1.2", "1.3"]
        assert top[0][1] == pytest.approx(0.5)

    def test_ties_broken_by_name(self):
        counts = {"b": 10, "a": 10}
        top = top_k_categories(counts, k=2)
        assert [category for category, _ in top] == ["a", "b"]

    def test_k_larger_than_categories(self):
        assert len(top_k_categories({"a": 1}, k=5)) == 1


class TestLogLogHistogram:
    def test_bins_by_order_of_magnitude(self):
        values = [1, 5, 9, 10, 50, 99, 100, 500, 5000]
        histogram = dict(log_log_histogram(values))
        assert histogram[1.0] == 3
        assert histogram[10.0] == 3
        assert histogram[100.0] == 2
        assert histogram[1000.0] == 1

    def test_zero_values_in_first_bin(self):
        histogram = dict(log_log_histogram([0, 0, 1]))
        assert histogram[1.0] == 3

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            log_log_histogram([1], base=1.0)

    def test_counts_sum_to_input_size(self):
        values = list(range(1, 200))
        histogram = log_log_histogram(values)
        assert sum(count for _, count in histogram) == len(values)


class TestCumulativeShare:
    def test_building_plus_transport_share(self):
        counts = {"1.2": 466, "1.3": 361, "2.7": 173}
        share = cumulative_share(counts, ["1.2", "1.3"])
        assert share == pytest.approx(0.827, abs=1e-3)

    def test_missing_categories_count_zero(self):
        assert cumulative_share({"a": 10}, ["b"]) == 0.0
