"""Custom stage plans on the stage-graph execution engine.

Every runtime — batch, streaming, parallel — executes the same compiled
:class:`~repro.engine.plan.Plan`.  This example drives the engine directly:

* it compiles the full plan and prints its dataflow (stages with their
  declared inputs and outputs);
* it compiles a **region-only** plan over the same sources (the landuse join
  without map matching or POI decoding, the cheap first-pass the paper's
  partial-annotation scenarios call for);
* it then runs a **re-annotation pass**: the same trajectories again through
  a full plan compiled from the same :class:`GeoContext` snapshot — no index
  or HMM is rebuilt — persisting into the semantic store through
  the store's commit-on-success transaction scope;
* finally it runs the full plan on the sharded process-pool executor and
  checks all executors produced byte-identical annotations.

Run it with::

    python examples/engine_plans.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AnnotationSources, PipelineConfig, compile_plan
from repro.datasets import PrivateCarSimulator, SyntheticWorld, WorldConfig
from repro.engine import ProcessPoolExecutor, SequentialExecutor
from repro.parallel import GeoContext, canonical_bytes
from repro.store.store import SemanticTrajectoryStore


def main() -> None:
    # 1. Geographic substrate and a small car fleet.
    world = SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    dataset = PrivateCarSimulator(world, car_count=6, trips_per_car=2, seed=23).generate()
    trajectories = dataset.trajectories
    config = PipelineConfig.for_vehicles()

    # 2. Build the snapshot (indexes, observation model, HMM) once, compile
    #    the full plan from it and show its dataflow.
    context = GeoContext.build(sources, config)
    full_plan = compile_plan(context=context)
    print("full plan dataflow:")
    print(full_plan.describe())
    print()

    # 3. A cheap region-only first pass: same sources, one annotation layer.
    region_plan = compile_plan(context=context, layers=("region",))
    started = time.perf_counter()
    region_results = SequentialExecutor().run(region_plan, trajectories)
    region_s = time.perf_counter() - started
    annotated = sum(
        1
        for result in region_results
        for record in (result.region_trajectory or [])
        if record.place is not None
    )
    print(
        f"region-only pass: stages={region_plan.stage_names()}, "
        f"{annotated} episode-region links in {region_s * 1e3:.0f} ms"
    )

    # 4. Re-annotation pass: the full plan from the same snapshot (indexes,
    #    observation model, HMM are NOT rebuilt), with persistence — each
    #    trajectory commits atomically via `with store:`.
    store = SemanticTrajectoryStore()
    replan = compile_plan(context=context, store=store, persist=True)
    started = time.perf_counter()
    full_results = SequentialExecutor().run(replan, trajectories)
    full_s = time.perf_counter() - started
    print(
        f"re-annotation pass: stages={replan.stage_names()}, "
        f"store now holds {store.stop_move_summary()} in {full_s * 1e3:.0f} ms"
    )

    # 5. The same plan on the sharded process-pool executor: byte-identical.
    with ProcessPoolExecutor(workers=4) as pool:
        pooled = pool.run(full_plan, trajectories)
    sequential = SequentialExecutor().run(full_plan, trajectories)
    assert canonical_bytes(pooled) == canonical_bytes(sequential)
    print("process-pool executor output is byte-identical to sequential")

    # 6. The region-only pass agrees with the full plan's region layer.
    for region_only, full in zip(region_results, full_results):
        assert canonical_bytes([region_only])  # well-formed partial result
        region_a = region_only.region_trajectory
        region_b = full.region_trajectory
        assert region_a is not None and region_b is not None
        assert [r.place.place_id if r.place else None for r in region_a] == [
            r.place.place_id if r.place else None for r in region_b
        ]
    print("region-only plan reproduces the full plan's landuse join exactly")
    store.close()


if __name__ == "__main__":
    main()
