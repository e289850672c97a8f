"""Scalability checks backing the paper's complexity claims.

Section 4.1 states the region annotation runs in O(n log m) (n GPS records, m
regions, thanks to the R*-tree) and Section 4.2 states the global map matching
is linear in the number of GPS points because only neighbouring segments are
candidates.  These benchmarks measure how runtime grows with the input size
and assert the growth is compatible with those claims (sub-linear in the
number of regions, roughly linear in the number of points).
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import bench_write_run, record_timing
from repro.analytics.reporting import render_table
from repro.core.config import MapMatchingConfig
from repro.core.places import RegionOfInterest
from repro.core.points import SpatioTemporalPoint
from repro.geometry.primitives import BoundingBox
from repro.lines.map_matching import GlobalMapMatcher
from repro.regions.sources import RegionSource


def _landuse_like_source(cells_per_side: int, cell_size: float = 100.0) -> RegionSource:
    regions = []
    for col in range(cells_per_side):
        for row in range(cells_per_side):
            regions.append(
                RegionOfInterest(
                    place_id=f"c-{col}-{row}",
                    name=f"c-{col}-{row}",
                    category="1.2" if (col + row) % 2 == 0 else "1.3",
                    extent=BoundingBox(
                        col * cell_size,
                        row * cell_size,
                        (col + 1) * cell_size,
                        (row + 1) * cell_size,
                    ),
                )
            )
    return RegionSource(regions, name=f"grid-{cells_per_side}")


def test_scalability_region_lookup_vs_source_size(benchmark):
    """Per-point region lookup time should grow sub-linearly with the region count."""
    sizes = (10, 20, 40, 80)
    queries = [
        SpatioTemporalPoint(37.0 + i * 11.3 % 900, 53.0 + i * 7.7 % 900, float(i)) for i in range(400)
    ]

    def run():
        timings = []
        for cells_per_side in sizes:
            source = _landuse_like_source(cells_per_side)
            started = time.perf_counter()
            found = [source.first_region_containing(query.position) for query in queries]
            elapsed = time.perf_counter() - started
            # Every query lies on the grid, whatever its size.
            assert all(
                region is not None and region.extent.contains_point(query.position)
                for region, query in zip(found, queries)
            )
            timings.append((cells_per_side ** 2, elapsed))
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [f"{regions:,}", f"{seconds * 1e3:.2f}", f"{seconds / len(queries) * 1e6:.1f}"]
        for regions, seconds in timings
    ]
    text = render_table(
        ["#regions", "total ms for 400 lookups", "us per lookup"],
        rows,
        title="Scalability - region lookup vs landuse source size (Algorithm 1, O(n log m))",
    )
    record_timing(
        "scalability_region_lookup",
        text,
        data={
            "queries": len(queries),
            "series": [
                {"regions": regions, "total_seconds": seconds} for regions, seconds in timings
            ],
        },
    )

    smallest_regions, smallest_time = timings[0]
    largest_regions, largest_time = timings[-1]
    region_growth = largest_regions / smallest_regions
    time_growth = largest_time / max(smallest_time, 1e-9)
    print(f"region growth x{region_growth:.0f}, time growth x{time_growth:.2f}")
    if bench_write_run():
        # 64x more regions should cost far less than 64x more time.  A timing
        # bound: armed under SEMITRI_BENCH_WRITE=1 only.
        assert time_growth < region_growth / 2


#: Timed repetitions per track length; the table reports their median.
MATCH_REPEATS = 5


def test_scalability_map_matching_vs_point_count(benchmark, world):
    """Map-matching time should grow roughly linearly with the number of points."""
    network = world.road_network()
    matcher = GlobalMapMatcher(network, MapMatchingConfig(candidate_radius=50.0))
    core_min = world.config.core_min

    def track_of(length: int):
        points = []
        for i in range(length):
            # Zig-zag along the street grid at 10 m per 1 s sample.
            x = core_min + (i * 10.0) % 3000.0
            y = core_min + ((i * 10.0) // 3000.0) * 400.0
            points.append(SpatioTemporalPoint(x, y, float(i)))
        return points

    lengths = (250, 500, 1000, 2000)

    def run():
        timings = []
        for length in lengths:
            points = track_of(length)
            samples = []
            for _ in range(MATCH_REPEATS):
                started = time.perf_counter()
                matched = matcher.match(points)
                samples.append(time.perf_counter() - started)
                assert len(matched) == length
            timings.append((length, statistics.median(samples), samples))
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [length, f"{seconds * 1e3:.1f}", f"{seconds / length * 1e6:.1f}"]
        for length, seconds, _ in timings
    ]
    text = render_table(
        ["#GPS points", "total ms", "us per point"],
        rows,
        title=(
            "Scalability - global map matching vs trajectory length "
            f"(Algorithm 2, O(n); median of {MATCH_REPEATS})"
        ),
    )
    record_timing(
        "scalability_map_matching",
        text,
        data={
            "repeats": MATCH_REPEATS,
            "series": [
                {"points": length, "total_seconds": seconds, "samples_seconds": samples}
                for length, seconds, samples in timings
            ],
        },
    )

    shortest_length, shortest_time, _ = timings[0]
    longest_length, longest_time, _ = timings[-1]
    per_point_growth = (longest_time / longest_length) / max(shortest_time / shortest_length, 1e-9)
    print(
        f"per-point cost growth x{per_point_growth:.2f} "
        f"from {shortest_length} to {longest_length} points"
    )
    if bench_write_run():
        # Per-point cost should stay roughly constant (allow 3x slack for
        # noise).  A timing bound: armed under SEMITRI_BENCH_WRITE=1 only.
        assert per_point_growth < 3.0
