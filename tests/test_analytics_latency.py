"""LatencyProfile edge cases (Figure 17 vocabulary).

These tests pin down the behaviours the telemetry subsystem leans on:
``merge()`` with overlapping stages (the registry's absorption path),
``percentile()`` fraction bounds, and — the load-bearing one — **bitwise**
equality of the Figure 17 means when profiles are absorbed through the
:class:`~repro.obs.metrics.MetricsRegistry` histogram backend instead of
being merged directly.
"""

from __future__ import annotations

import pytest

from repro.analytics.latency import FIGURE17_STAGES, LatencyProfile
from repro.obs.metrics import MetricsRegistry


# ------------------------------------------------------------------- merge()
def test_merge_with_overlapping_stages_extends_in_order():
    left = LatencyProfile()
    left.add("map_match", 0.1)
    left.add("map_match", 0.2)
    left.add("landuse_join", 0.5)
    right = LatencyProfile()
    right.add("map_match", 0.3)
    right.add("poi_annotation", 0.9)

    left.merge(right)
    assert left.samples["map_match"] == [0.1, 0.2, 0.3]
    assert left.samples["landuse_join"] == [0.5]
    assert left.samples["poi_annotation"] == [0.9]
    # merge() reads, never mutates, the other profile
    assert right.samples == {"map_match": [0.3], "poi_annotation": [0.9]}


def test_merge_preserves_stage_insertion_order():
    profile = LatencyProfile()
    for stage in FIGURE17_STAGES:
        profile.add(stage, 0.01)
    other = LatencyProfile()
    other.add("poi_annotation", 0.02)
    other.add("compute_episode", 0.03)
    profile.merge(other)
    # overlapping stages keep their original position; new ones append
    assert profile.stages() == list(FIGURE17_STAGES) + ["poi_annotation"]


def test_merge_empty_profiles_is_a_noop():
    profile = LatencyProfile()
    profile.merge(LatencyProfile())
    assert profile.stages() == []
    profile.add("map_match", 0.1)
    profile.merge(LatencyProfile())
    assert profile.samples["map_match"] == [0.1]


# -------------------------------------------------------------- percentile()
def test_percentile_fraction_bounds():
    profile = LatencyProfile()
    profile.add("map_match", 0.1)
    for bad in (0.0, -0.1, 1.0001, 2.0):
        with pytest.raises(ValueError):
            profile.percentile("map_match", bad)
    # the closed upper bound is valid and returns the maximum sample
    profile.add("map_match", 0.4)
    assert profile.percentile("map_match", 1.0) == 0.4


def test_percentile_nearest_rank_and_unsampled_stage():
    profile = LatencyProfile()
    for value in (0.5, 0.1, 0.3, 0.2, 0.4):
        profile.add("store_episode", value)
    # nearest-rank over the sorted samples: always an observed value
    assert profile.percentile("store_episode", 0.2) == 0.1
    assert profile.percentile("store_episode", 0.5) == 0.3
    assert profile.percentile("store_episode", 0.95) == 0.5
    assert profile.p95("store_episode") == 0.5
    # tiny fractions clamp to the first rank, not rank zero
    assert profile.percentile("store_episode", 1e-9) == 0.1
    assert profile.percentile("never_sampled", 0.5) == 0.0


def test_add_rejects_negative_samples():
    profile = LatencyProfile()
    with pytest.raises(ValueError):
        profile.add("map_match", -1e-9)


# --------------------------------------- histogram-backend absorption parity
def test_figure17_means_bitwise_identical_through_registry_backend():
    """Absorbing per-trajectory profiles into the registry's LatencyProfile
    backend must reproduce the direct-merge means **bitwise** — the Figure 17
    numbers may not move by a single ulp when observability is enabled."""
    per_trajectory = []
    for index in range(7):
        profile = LatencyProfile()
        for offset, stage in enumerate(FIGURE17_STAGES):
            # awkward floats on purpose: bitwise equality must survive them
            profile.add(stage, (index + 1) * 0.1 + offset * 1e-7 + 1e-13)
            profile.add(stage, 0.3 / (index + 3))
        per_trajectory.append(profile)

    direct = LatencyProfile()
    registry = MetricsRegistry()
    for profile in per_trajectory:
        direct.merge(profile)
        registry.observe_latency(profile)

    absorbed = registry.stage_latency
    assert absorbed.samples == direct.samples
    for stage in FIGURE17_STAGES:
        # exact float comparison, deliberately not pytest.approx
        assert absorbed.mean(stage) == direct.mean(stage)
        assert absorbed.total(stage) == direct.total(stage)
        assert absorbed.p95(stage) == direct.p95(stage)
    assert absorbed.means() == direct.means()
