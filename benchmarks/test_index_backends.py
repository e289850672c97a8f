"""Scalar-tree versus flat-batch spatial index timings (the bench-gate set).

Times the three query families the annotation layers issue — box range
search, within-distance candidate selection and nearest-neighbour lookups —
on the seed benchmark sources (region geometry, the road network, the POIs),
per-point through the scalar oracles of :mod:`repro.reference` (an STR-loaded
R-tree, a hash grid) versus one batch call through the sources' own
:class:`~repro.index.flat.FlatSpatialIndex`.  A second table times the build:
oracle tree / grid plus its compile into the flat layout (how the product
built its indexes until it packed them directly) against the direct pack.

Before anything is timed, every family's results are materialised once from
both backends and compared exactly (payload identity, order and
bit-identical distances), so a "fast but wrong" index can never post a
speedup.  The timed region then covers the query APIs themselves — the
scalar per-point calls against the flat CSR batch call — the table on record
for the product issuing batch queries only.  The
recorded metrics are same-process ratios, which keeps the CI regression gate
robust to absolute machine speed; the acceptance floor is a >= 3x speedup on
the range and within-distance batches.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple

import numpy as np

from benchmarks.conftest import bench_gate_run, save_result
from repro.analytics.reporting import render_table
from repro.geometry.primitives import BoundingBox, Point
from repro.geometry.distance import point_segment_distance
from repro.lines.road_network import RoadNetwork
from repro.points.poi import PoiSource
from repro.reference import GridIndex, RTree, RTreeEntry, from_grid, from_rtree
from repro.regions.sources import RegionSource

QUERY_COUNT = 2_000
BOX_EXTENT = 120.0
WITHIN_RADIUS = 50.0
NEAREST_COUNT = 3
#: The acceptance floor for the gated query families (range + within).
REQUIRED_SPEEDUP = 3.0
_REPEATS = 5


def _best_of(fn: Callable[[], object], repeats: int = _REPEATS) -> Tuple[float, object]:
    """Minimum wall time over ``repeats`` runs, plus the last return value."""
    best = float("inf")
    value: object = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _csr_lists(offsets, rows, payload_of, distances=None):
    """Materialise a CSR batch result into per-query Python lists."""
    bounds = offsets.tolist()
    row_list = rows.tolist()
    if distances is None:
        return [
            [payload_of(row_list[k]) for k in range(bounds[i], bounds[i + 1])]
            for i in range(len(bounds) - 1)
        ]
    distance_list = distances.tolist()
    return [
        [(distance_list[k], payload_of(row_list[k])) for k in range(bounds[i], bounds[i + 1])]
        for i in range(len(bounds) - 1)
    ]


def test_index_backend_speedups(benchmark, annotation_sources):
    regions = annotation_sources.regions
    network = annotation_sources.road_network
    pois = annotation_sources.pois

    # Query workload: uniform points over the (padded) world extent, seeded
    # through the conftest RNG reset for run-to-run reproducibility.
    bounds = network.bounds()
    rng = np.random.default_rng(20110325)
    xs = rng.uniform(bounds.min_x - 200.0, bounds.max_x + 200.0, size=QUERY_COUNT)
    ys = rng.uniform(bounds.min_y - 200.0, bounds.max_y + 200.0, size=QUERY_COUNT)
    points = [Point(float(x), float(y)) for x, y in zip(xs, ys)]
    boxes = [
        BoundingBox(float(x), float(y), float(x) + BOX_EXTENT, float(y) + BOX_EXTENT)
        for x, y in zip(xs, ys)
    ]

    # The scalar side: the oracles over the same rows the sources packed.
    def build_region_tree() -> RTree:
        return RTree.bulk_load(
            RTreeEntry(box=region.bounding_box(), item=region) for region in regions.regions
        )

    def build_road_tree() -> RTree:
        return RTree.bulk_load(
            RTreeEntry(box=segment.bounding_box(), item=segment) for segment in network.segments
        )

    def build_poi_grid() -> GridIndex:
        grid = GridIndex(cell_size=100.0)  # PoiSource's default cell size
        grid.insert_many((poi.location, poi) for poi in pois.pois)
        return grid

    def segment_distance(point, entry):
        return point_segment_distance(point, entry.item.segment)

    region_tree, road_tree, poi_index = build_region_tree(), build_road_tree(), build_poi_grid()
    region_flat = regions.flat_index()
    road_flat = network.flat_index()
    poi_flat = pois.flat_index()

    # ---------------------------------------------------------------- parity
    # Materialise both sides once and compare exactly; only then time them.
    scalar_range_results = [
        [entry.item.place_id for entry in region_tree.search(box)] for box in boxes
    ]
    assert scalar_range_results == _csr_lists(
        *region_flat.query_boxes_batch(xs, ys, xs + BOX_EXTENT, ys + BOX_EXTENT),
        lambda row: region_flat.payloads[row].place_id,
    )

    scalar_within_results = [
        [
            (d, entry.item.place_id)
            for d, entry in road_tree.within_distance(p, WITHIN_RADIUS, segment_distance)
        ]
        for p in points
    ]
    flat_offsets, flat_rows, flat_distances = road_flat.within_distance_batch(
        xs, ys, WITHIN_RADIUS
    )
    assert scalar_within_results == _csr_lists(
        flat_offsets,
        flat_rows,
        lambda row: road_flat.payloads[row].place_id,
        flat_distances,
    )

    scalar_nearest_results = [
        [(d, item.place_id) for d, _, item in poi_index.nearest(p, NEAREST_COUNT)]
        for p in points
    ]
    near_offsets, near_rows, near_distances = poi_flat.nearest_batch(xs, ys, NEAREST_COUNT)
    assert scalar_nearest_results == _csr_lists(
        near_offsets,
        near_rows,
        lambda row: poi_flat.payloads[row].place_id,
        near_distances,
    )

    # ---------------------------------------------------------------- timing
    cases = {
        "range_boxes": (
            lambda: [region_tree.search(box) for box in boxes],
            lambda: region_flat.query_boxes_batch(xs, ys, xs + BOX_EXTENT, ys + BOX_EXTENT),
        ),
        "within_distance": (
            lambda: [road_tree.within_distance(p, WITHIN_RADIUS, segment_distance) for p in points],
            lambda: road_flat.within_distance_batch(xs, ys, WITHIN_RADIUS),
        ),
        "nearest": (
            lambda: [poi_index.nearest(p, NEAREST_COUNT) for p in points],
            lambda: poi_flat.nearest_batch(xs, ys, NEAREST_COUNT),
        ),
    }
    measured = {}

    def run_all():
        for name, (scalar_fn, flat_fn) in cases.items():
            scalar_seconds, _ = _best_of(scalar_fn)
            flat_seconds, _ = _best_of(flat_fn)
            measured[name] = (scalar_seconds, flat_seconds)
        return measured

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    metrics = {}
    for name, (scalar_seconds, flat_seconds) in measured.items():
        speedup = scalar_seconds / flat_seconds
        metrics[f"speedup_{name}"] = round(speedup, 2)
        rows.append(
            [
                name,
                f"{scalar_seconds * 1e3:.2f}",
                f"{flat_seconds * 1e3:.2f}",
                f"{speedup:.1f}x",
            ]
        )
    text = render_table(
        ["query family", "scalar tree (ms)", "flat batch (ms)", "speedup"],
        rows,
        title=(
            f"Spatial index backends: scalar per-point vs flat batch "
            f"({QUERY_COUNT} queries, best of {_REPEATS})"
        ),
    )

    # ----------------------------------------------------------------- build
    # Oracle structure + compile (the product's build until the flat index
    # packed its own arrays) against the direct pack, from the same rows.
    builds = {
        "regions": (
            lambda: from_rtree(build_region_tree()),
            lambda: RegionSource(regions.regions),
        ),
        "road_segments": (
            lambda: from_rtree(build_road_tree(), segment_of=lambda item: item.segment),
            lambda: RoadNetwork(network.segments),
        ),
        "pois": (lambda: from_grid(build_poi_grid()), lambda: PoiSource(pois.pois)),
    }
    build_ms = {
        name: {
            "tree_and_compile": _best_of(compile_fn)[0] * 1e3,
            "direct_pack": _best_of(pack_fn)[0] * 1e3,
        }
        for name, (compile_fn, pack_fn) in builds.items()
    }
    text += "\n\n" + render_table(
        ["source", "rows", "tree + compile (ms)", "direct pack (ms)"],
        [
            [
                name,
                str(len(source)),
                f"{build_ms[name]['tree_and_compile']:.2f}",
                f"{build_ms[name]['direct_pack']:.2f}",
            ]
            for name, source in (("regions", regions), ("road_segments", network), ("pois", pois))
        ],
        title=f"Index build (whole source constructor on the direct side; best of {_REPEATS})",
    )
    save_result(
        "index_backends",
        text,
        data={
            "query_count": QUERY_COUNT,
            "box_extent": BOX_EXTENT,
            "within_radius": WITHIN_RADIUS,
            "nearest_count": NEAREST_COUNT,
            "repeats": _REPEATS,
            "index_sizes": {
                "regions": len(regions),
                "road_segments": len(network),
                "pois": len(pois),
            },
            "seconds": {
                name: {"scalar": s, "flat": f} for name, (s, f) in measured.items()
            },
            "build_ms": build_ms,
        },
        metrics=metrics,
    )

    # The acceptance floor: batch range + within-distance queries at >= 3x — a timing
    # threshold, so armed in the bench-gate environment only; the ratios are in
    # the table every run prints.
    if bench_gate_run():
        for gated in ("range_boxes", "within_distance"):
            assert metrics[f"speedup_{gated}"] >= REQUIRED_SPEEDUP, (
                f"{gated} speedup {metrics[f'speedup_{gated}']}x below the "
                f"{REQUIRED_SPEEDUP}x acceptance floor"
            )
