"""Scalar-versus-numpy speedups of the hot-path kernels (the bench-gate set).

Times the vectorized kernels of :mod:`repro.geometry.vectorized` (and the
velocity flags built on them) against their pure-Python reference loops on a
dwell-heavy 15k-point trajectory — the shape the acceptance criterion names:
stop-flag and distance kernels must be at least 3x faster vectorized on
trajectories of 10k+ points.  Only kernels the product runs are timed: the
density scan has one (scalar) implementation and no row.

A second table records global map matching — the scalar oracle of
:mod:`repro.reference` against the columnar kernel — per episode length (4 to
256 points), so the short-episode regime, where the kernel's fixed cost per
call shows, is on record next to the long one.

Every timing also asserts output equality first, so a "fast but wrong"
kernel can never post a speedup.  The recorded metrics are *ratios*
(vectorized over scalar on the same machine, same process), which makes the
CI regression gate robust to absolute machine speed; the sidecar still
carries machine metadata for like-with-like checks.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

from benchmarks.conftest import bench_gate_run, save_result
from repro.analytics.reporting import render_table
from repro.core.arrays import TrajectoryArrays
from repro.core.config import MapMatchingConfig
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.geometry.distance import point_segment_distance
from repro.geometry.kernels import gaussian_kernel_weight
from repro.geometry.primitives import Point, Segment
from repro.geometry.vectorized import (
    consecutive_distances,
    gaussian_kernel_weights,
    point_segment_distances,
)
from repro.lines.map_matching import GlobalMapMatcher
from repro.preprocessing.stops import velocity_stop_flags_arrays
from repro.reference import ScalarMapMatcher, velocity_stop_flags

POINT_COUNT = 15_000
SPEED_THRESHOLD = 1.5
KERNEL_BANDWIDTH = 50.0
KERNEL_RADIUS = 100.0
#: The acceptance floor for the gated kernels (stop flags + distances).
REQUIRED_SPEEDUP = 3.0
_REPEATS = 5
#: Episode lengths of the map-matching table, and the points timed per length
#: (as many episodes as fit, matched one call each).
MATCH_EPISODE_LENGTHS = (4, 8, 16, 64, 256)
MATCH_POINTS_PER_LENGTH = 1024
_MATCH_REPEATS = 7


def _dwell_heavy_trajectory(n: int = POINT_COUNT, seed: int = 97) -> RawTrajectory:
    """A synthetic trajectory mixing move stretches with long dwell clusters."""
    rng = np.random.default_rng(seed)
    points: List[SpatioTemporalPoint] = []
    t, x, y = 0.0, 1000.0, 1000.0
    dwell = 0
    for _ in range(n):
        t += float(rng.uniform(10.0, 30.0))
        if dwell > 0:
            dwell -= 1
            x += float(rng.normal(0.0, 2.0))
            y += float(rng.normal(0.0, 2.0))
        else:
            if rng.random() < 0.02:
                dwell = int(rng.integers(20, 60))
            x += float(rng.normal(0.0, 25.0))
            y += float(rng.normal(0.0, 25.0))
        points.append(SpatioTemporalPoint(x, y, t))
    return RawTrajectory(points, object_id="bench", trajectory_id="bench-0")


def _best_of(fn: Callable[[], object], repeats: int = _REPEATS) -> Tuple[float, object]:
    """Minimum wall time over ``repeats`` runs, plus the last return value."""
    best = float("inf")
    value: object = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _median_of(fn: Callable[[], object], repeats: int = _MATCH_REPEATS) -> Tuple[float, object]:
    """Median wall time over ``repeats`` runs, plus the last return value."""
    samples = []
    value: object = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), value


def _street_episodes(world, length: int) -> List[List[SpatioTemporalPoint]]:
    """Episodes of ``length`` fixes zig-zagging along the street grid, 10 m per 1 s."""
    core_min = world.config.core_min
    episodes = []
    for episode in range(MATCH_POINTS_PER_LENGTH // length):
        points = []
        for i in range(episode * length, (episode + 1) * length):
            x = core_min + (i * 10.0) % 3000.0
            y = core_min + ((i * 10.0) // 3000.0) * 400.0
            points.append(SpatioTemporalPoint(x, y, float(i)))
        episodes.append(points)
    return episodes


def _map_matching_rows(world):
    """Scalar oracle versus columnar kernel per episode length (median timings)."""
    network = world.road_network()
    config = MapMatchingConfig(candidate_radius=50.0)
    oracle = ScalarMapMatcher(network, config)
    columnar = GlobalMapMatcher(network, config)
    rows = []
    for length in MATCH_EPISODE_LENGTHS:
        episodes = _street_episodes(world, length)
        oracle_seconds, expected = _median_of(
            lambda: [oracle.match_runs([episode])[0] for episode in episodes]
        )
        columnar_seconds, got = _median_of(
            lambda: [columnar.match_runs([episode])[0] for episode in episodes]
        )
        batched_seconds, together = _median_of(lambda: columnar.match_runs(episodes))
        assert got == expected and together == expected  # same segment runs
        rows.append((length, len(episodes), oracle_seconds, columnar_seconds, batched_seconds))
    return rows


def test_vectorized_kernel_speedups(benchmark, world):
    trajectory = _dwell_heavy_trajectory()
    points = trajectory.points
    arrays = TrajectoryArrays.from_trajectory(trajectory)

    # Batched segment geometry: one query point against POINT_COUNT segments.
    seg_rng = np.random.default_rng(131)
    axs = seg_rng.uniform(0.0, 4000.0, size=POINT_COUNT)
    ays = seg_rng.uniform(0.0, 4000.0, size=POINT_COUNT)
    bxs = axs + seg_rng.uniform(-120.0, 120.0, size=POINT_COUNT)
    bys = ays + seg_rng.uniform(-120.0, 120.0, size=POINT_COUNT)
    segments = [
        Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in zip(axs, ays, bxs, bys)
    ]
    query = Point(2000.0, 2000.0)
    kernel_distances = seg_rng.uniform(0.0, 2.0 * KERNEL_RADIUS, size=POINT_COUNT)
    kernel_distance_list = kernel_distances.tolist()

    measured = {}

    def run_all():
        cases = {
            "stop_flags_velocity": (
                lambda: velocity_stop_flags(points, SPEED_THRESHOLD),
                lambda: velocity_stop_flags_arrays(arrays, SPEED_THRESHOLD),
            ),
            "consecutive_distances": (
                lambda: [points[i].distance_to(points[i + 1]) for i in range(len(points) - 1)],
                lambda: consecutive_distances(arrays.xs, arrays.ys).tolist(),
            ),
            "point_segment_distances": (
                lambda: [point_segment_distance(query, segment) for segment in segments],
                lambda: point_segment_distances(
                    query.x, query.y, axs, ays, bxs, bys
                ).tolist(),
            ),
            "gaussian_kernel_weights": (
                lambda: [
                    gaussian_kernel_weight(d, KERNEL_BANDWIDTH, KERNEL_RADIUS)
                    for d in kernel_distance_list
                ],
                lambda: gaussian_kernel_weights(
                    kernel_distances, KERNEL_BANDWIDTH, KERNEL_RADIUS
                ).tolist(),
            ),
        }
        for name, (scalar_fn, vector_fn) in cases.items():
            scalar_seconds, scalar_value = _best_of(scalar_fn)
            vector_seconds, vector_value = _best_of(vector_fn)
            if name == "gaussian_kernel_weights":
                # exp-based kernel: documented 1-ulp tolerance per element.
                assert np.allclose(scalar_value, vector_value, rtol=1e-14, atol=0.0)
            else:
                assert scalar_value == vector_value  # bit-for-bit
            measured[name] = (scalar_seconds, vector_seconds)
        return measured

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    match_rows = _map_matching_rows(world)

    rows = []
    metrics = {}
    for name, (scalar_seconds, vector_seconds) in measured.items():
        speedup = scalar_seconds / vector_seconds
        metrics[f"speedup_{name}"] = round(speedup, 2)
        rows.append(
            [
                name,
                f"{scalar_seconds * 1e3:.2f}",
                f"{vector_seconds * 1e3:.2f}",
                f"{speedup:.1f}x",
            ]
        )
    text = render_table(
        ["kernel", "python (ms)", "numpy (ms)", "speedup"],
        rows,
        title=f"Vectorized kernel speedups ({POINT_COUNT} points, best of {_REPEATS})",
    )
    match_table = []
    for length, episodes, oracle_s, columnar_s, batched_s in match_rows:
        points = length * episodes
        metrics[f"speedup_map_match_{length}pt"] = round(oracle_s / columnar_s, 2)
        match_table.append(
            [
                length,
                episodes,
                f"{oracle_s / points * 1e6:.1f}",
                f"{columnar_s / points * 1e6:.1f}",
                f"{batched_s / points * 1e6:.1f}",
                f"{oracle_s / columnar_s:.1f}x",
            ]
        )
    text += "\n" + render_table(
        [
            "points/episode",
            "episodes",
            "oracle us/pt",
            "columnar us/pt",
            "columnar, one call, us/pt",
            "speedup",
        ],
        match_table,
        title=(
            "Global map matching per episode length "
            f"(one call per episode unless stated, median of {_MATCH_REPEATS})"
        ),
    )
    save_result(
        "vectorized_kernels",
        text,
        data={
            "point_count": POINT_COUNT,
            "repeats": _REPEATS,
            "seconds": {
                name: {"python": s, "numpy": v} for name, (s, v) in measured.items()
            },
            "map_matching": {
                "repeats": _MATCH_REPEATS,
                "series": [
                    {
                        "points_per_episode": length,
                        "episodes": episodes,
                        "oracle_seconds": oracle_s,
                        "columnar_seconds": columnar_s,
                        "columnar_one_call_seconds": batched_s,
                    }
                    for length, episodes, oracle_s, columnar_s, batched_s in match_rows
                ],
            },
        },
        metrics=metrics,
    )

    # The acceptance floor: stop-flag + distance kernels at >= 3x — a timing
    # threshold, so armed in the bench-gate environment only; the ratios are in
    # the table every run prints.
    if bench_gate_run():
        for gated in ("stop_flags_velocity", "consecutive_distances", "point_segment_distances"):
            assert metrics[f"speedup_{gated}"] >= REQUIRED_SPEEDUP, (
                f"{gated} speedup {metrics[f'speedup_{gated}']}x below the "
                f"{REQUIRED_SPEEDUP}x acceptance floor"
            )
