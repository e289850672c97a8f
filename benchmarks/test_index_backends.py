"""Scalar-tree versus flat-batch spatial index timings (the bench-gate set).

Times the three query families the annotation layers issue — box range
search, within-distance candidate selection and nearest-neighbour lookups —
on the seed benchmark sources (region R-tree geometry, the road network, the
POI grid), per-point through the scalar index APIs versus one batch call
through the compiled :class:`~repro.index.flat.FlatSpatialIndex`.

Before anything is timed, every family's results are materialised once from
both backends and compared exactly (payload identity, order and
bit-identical distances), so a "fast but wrong" index can never post a
speedup.  The timed region then covers the query APIs themselves — the
scalar per-point calls against the flat CSR batch call — the table on record
for the product issuing batch queries only (and, at its small end, for
``regions/annotator.py::_FLAT_MIN_BATCH``).  The
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
from repro.index.flat import FlatSpatialIndex
from repro.index.rtree import RTree, RTreeEntry

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

    # Range queries run on an R-tree over the region geometry (the Algorithm 1
    # join index); the flat index is compiled from that same tree.
    region_tree = RTree.bulk_load(
        RTreeEntry(box=region.bounding_box(), item=region.place_id)
        for region in regions.regions
    )
    region_flat = FlatSpatialIndex.from_rtree(region_tree)
    road_flat = network.flat_index()
    poi_flat = pois.flat_index()
    poi_index = pois._index  # the scalar grid the flat index was compiled from

    # ---------------------------------------------------------------- parity
    # Materialise both sides once and compare exactly; only then time them.
    scalar_range_results = [[entry.item for entry in region_tree.search(box)] for box in boxes]
    assert scalar_range_results == _csr_lists(
        *region_flat.query_boxes_batch(xs, ys, xs + BOX_EXTENT, ys + BOX_EXTENT),
        lambda row: region_flat.payloads[row],
    )

    scalar_within_results = [
        [(d, segment.place_id) for d, segment in network.candidate_segments(p, WITHIN_RADIUS)]
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
            lambda: [network.candidate_segments(p, WITHIN_RADIUS) for p in points],
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
