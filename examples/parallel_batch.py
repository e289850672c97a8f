"""Sharded parallel batch annotation over a shared geographic snapshot.

This example builds a private-car fleet, snapshots the geographic sources
once into an immutable :class:`GeoContext` (the sources' flat indexes, HMM)
and annotates the whole fleet three ways:

* sequentially, ``repro.annotate_many(batch, context=...)``;
* across processes for one call, ``repro.annotate_many(..., workers=4)`` —
  the pool lives exactly as long as the call;
* across processes with a *warm* pool: hold a
  :class:`~repro.engine.ProcessPoolExecutor` and a plan compiled from the
  snapshot, and run batch after batch on the same workers.

It then verifies that all three outputs are byte-identical and prints the
wall-clock comparison and the per-trajectory summary.

Run it with::

    python examples/parallel_batch.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import AnnotationSources, PipelineConfig
from repro.core.cpu import effective_cpu_count
from repro.datasets import PrivateCarSimulator, SyntheticWorld, WorldConfig
from repro.engine import ProcessPoolExecutor
from repro.parallel import GeoContext, canonical_bytes
from repro.store.store import SemanticTrajectoryStore

WORKERS = 4


def main() -> None:
    # 1. Geographic substrate and a fleet of private cars.
    world = SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    dataset = PrivateCarSimulator(world, car_count=8, trips_per_car=3, seed=23).generate()
    trajectories = dataset.trajectories
    config = PipelineConfig.for_vehicles()

    # 2. Build the read-only snapshot once: indexes, observation model, HMM.
    context = GeoContext.build(sources, config)
    print(
        f"snapshot ready: layers={context.available_layers()}, "
        f"{len(trajectories)} trajectories from {len({t.object_id for t in trajectories})} cars"
    )

    # 3. Sequential reference.
    started = time.perf_counter()
    sequential = repro.annotate_many(trajectories, context=context)
    sequential_s = time.perf_counter() - started

    # 4. One-shot process pool: started, used and stopped inside the call.
    started = time.perf_counter()
    one_shot = repro.annotate_many(trajectories, context=context, workers=WORKERS)
    one_shot_s = time.perf_counter() - started

    # 5. Warm pool: the executor keeps its workers (primed with the snapshot)
    #    across runs of plans compiled from that snapshot.  Workers never
    #    touch the store — the parent commits the merged batch in input order
    #    in one transaction.
    store = SemanticTrajectoryStore()
    plan = repro.compile_plan(context=context, store=store, persist=True)
    with ProcessPoolExecutor(workers=WORKERS) as executor:
        # Warm with a full-width batch: a single-object batch would collapse
        # to one shard and never start the workers.
        executor.run(repro.compile_plan(context=context), trajectories)
        started = time.perf_counter()
        warm = executor.run(plan, trajectories)
        warm_s = time.perf_counter() - started
    print(f"persisted by the parent after the merge: {store.stop_move_summary()}")

    # 6. Determinism guarantee: all three runs are byte-identical.
    assert canonical_bytes(sequential) == canonical_bytes(one_shot) == canonical_bytes(warm)
    print("outputs byte-identical across sequential / one-shot pool / warm pool")
    print(
        f"sequential {sequential_s * 1e3:6.0f} ms | one-shot pool x{WORKERS} "
        f"{one_shot_s * 1e3:6.0f} ms | warm pool x{WORKERS} {warm_s * 1e3:6.0f} ms "
        f"({effective_cpu_count()} cores usable)"
    )

    # 7. Per-trajectory summary, in input order as always.
    for result in warm[:6]:
        modes = ", ".join(result.transport_modes()) or "-"
        print(
            f"  {result.trajectory.trajectory_id:10s} {len(result.stops)} stops / "
            f"{len(result.moves)} moves  modes: {modes}"
        )
    print(f"  ... {len(warm) - 6} more")


if __name__ == "__main__":
    main()
