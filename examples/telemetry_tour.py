"""A tour of the telemetry subsystem: traces, metrics and exporters.

The engine's observability is selected per pipeline configuration
(``PipelineConfig.observability``, or the ``SEMITRI_OBSERVABILITY``
environment variable) and defaults to a zero-overhead no-op.  This example
turns everything on and walks through what you get:

* it annotates a small synthetic dataset **with persistence** through the
  sequential executor, so store transaction metrics appear too;
* it prints one trajectory's **span tree** — the trace id is the trajectory
  id, the root span covers the whole journey and each stage execution is a
  child span;
* it prints the human-readable **metrics summary** (engine throughput
  counters, store transaction counters, and the per-stage latency table
  whose numbers are bitwise identical to the Figure 17 benchmark's, because
  the registry's latency backend *is* the ``LatencyProfile``);
* it runs the same batch through the **process-pool executor** and shows
  that spans emitted inside worker processes crossed the pickle boundary
  (their pid differs from ours);
* finally it renders the Prometheus exposition
  (``PrometheusExporter().render``), writes the JSONL dump
  (``JsonlExporter(path).export``) and rebuilds span trees from that file
  alone.

Run it with::

    python examples/telemetry_tour.py
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AnnotationSources, PipelineConfig, compile_plan
from repro.core import ObservabilityConfig
from repro.datasets import PrivateCarSimulator, SyntheticWorld, WorldConfig
from repro.engine import ProcessPoolExecutor, SequentialExecutor
from repro.obs import (
    JsonlExporter,
    PrometheusExporter,
    build_span_tree,
    read_spans,
    render_span_tree,
)
from repro.parallel import GeoContext, canonical_bytes
from repro.store.store import SemanticTrajectoryStore


def main() -> None:
    # 1. A small world and fleet, and a configuration with everything on.
    world = SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    dataset = PrivateCarSimulator(world, car_count=6, trips_per_car=2, seed=23).generate()
    trajectories = dataset.trajectories
    config = dataclasses.replace(
        PipelineConfig.for_vehicles(), observability=ObservabilityConfig(enabled=True)
    )

    # 2. A traced, persisted sequential run.  The snapshot's annotators are
    #    reused by every plan below; each plan has its own telemetry.
    context = GeoContext.build(sources, config)
    store = SemanticTrajectoryStore()
    plan = compile_plan(context=context, store=store, persist=True)
    results = SequentialExecutor().run(plan, trajectories)
    print(f"annotated {len(results)} trajectories with telemetry enabled\n")

    # 3. One trajectory's span tree: root + one child per stage execution.
    print("span tree of the first trajectory:")
    print(render_span_tree(results[0].spans))
    print()

    # 4. The metrics summary: throughput, store transactions, stage latency.
    print(plan.telemetry.summary())
    print()

    # 5. The same batch through the process pool: worker spans survive the
    #    process boundary and are adopted into this process's tracer.
    pool_plan = compile_plan(context=context)
    with ProcessPoolExecutor(workers=2) as pool:
        pooled = pool.run(pool_plan, trajectories)
    baseline = compile_plan(context=context, config=PipelineConfig.for_vehicles())
    assert canonical_bytes(pooled) == canonical_bytes(
        SequentialExecutor().run(baseline, trajectories)
    )
    tracer = pool_plan.telemetry.tracer
    assert tracer is not None
    worker_pids = sorted({span.pid for span in tracer.spans})
    print(
        f"process-pool run: {len(tracer.spans)} spans adopted from worker "
        f"pids {worker_pids} (this process is {os.getpid()}); "
        "canonical output unchanged"
    )

    # 6. Exporters: the Prometheus exposition, then a JSONL dump re-read.
    exposition = PrometheusExporter().render(plan.telemetry)
    print("\nprometheus exposition:")
    print("\n".join(exposition.splitlines()[:8]) + "\n...")
    with tempfile.TemporaryDirectory() as tmp:
        spans = read_spans(JsonlExporter(Path(tmp) / "telemetry.jsonl").export(plan.telemetry))
        forests = build_span_tree(spans)
        print(
            f"\njsonl round-trip: {len(spans)} spans re-read, "
            f"{len(forests)} trace trees rebuilt"
        )
    store.close()


if __name__ == "__main__":
    main()
