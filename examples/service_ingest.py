"""Annotation-as-a-service: many concurrent emitters, one ingest tier.

This example runs the asyncio :func:`repro.serve` front end end to end: a
taxi fleet, a handful of private cars and a couple of smartphone users all
emit their GPS fixes concurrently; the service consistent-hashes every
object onto a shard, absorbs the streams through bounded queues (producers
feel backpressure instead of losing events), annotates sealed trajectories
online and — at drain — flushes every still-open session through the same
gap close-out path an explicit hang-up takes.  Two of the emitters are
"killed" mid-stream to show that drain recovers their partial trajectories.

Run it with::

    python examples/service_ingest.py
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import AnnotationSources, PipelineConfig
from repro.datasets import (
    PersonSimulator,
    PrivateCarSimulator,
    SyntheticWorld,
    TaxiFleetSimulator,
    WorldConfig,
)
from repro.store.store import SemanticTrajectoryStore


async def main() -> None:
    # 1. Geographic substrate and three heterogeneous emitter populations.
    world = SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    fleets = [
        TaxiFleetSimulator(world, taxi_count=1, days=1, fares_per_day=4, seed=11)
        .generate()
        .trajectories,
        PrivateCarSimulator(world, car_count=4, trips_per_car=2, seed=23).generate().trajectories,
        PersonSimulator(world, user_count=2, days_per_user=1, seed=31).generate().all_trajectories,
    ]
    streams = {}
    for trajectories in fleets:
        for trajectory in trajectories:
            streams.setdefault(trajectory.object_id, []).extend(trajectory.points)

    # 2. The service: 2 shards, small queues so backpressure is visible.
    config = PipelineConfig.for_vehicles().with_overrides(
        {
            "streaming.apply_cleaning": True,
            "service.shards": 2,
            "service.queue_depth": 32,
            "service.max_batch": 16,
        }
    )
    store = SemanticTrajectoryStore()
    service = repro.serve(
        sources,
        config=config,
        store=store,
        persist=True,
        on_result=lambda result: print(
            f"  sealed {result.trajectory.trajectory_id:12s} "
            f"({len(result.trajectory):4d} fixes, {len(result.stops)} stops)"
        ),
    )

    killed = sorted(streams)[::4]  # these emitters vanish without closing
    print(
        f"{len(streams)} emitters over {service.shard_count} shards "
        f"(killed mid-stream: {', '.join(killed)})"
    )

    # 3. One coroutine per emitter, all feeding concurrently.
    async def emit(object_id: str, points) -> None:
        delivered = points[: len(points) // 2] if object_id in killed else points
        for point in delivered:
            await service.ingest(object_id, point)  # awaits when the shard is full
        if object_id not in killed:
            await service.close_object(object_id)

    async with service:
        await asyncio.gather(*(emit(oid, pts) for oid, pts in sorted(streams.items())))
        # 4. Drain: absorb every queued event, close every open session,
        #    commit all sealed trajectories in one deterministic transaction.
        results = await service.drain()

    print(
        f"\ndrained: {len(results)} trajectories from {service.stats.events} events, "
        f"dropped={service.dropped_events}, "
        f"backpressure waits={service.stats.backpressure_waits}"
    )
    print(f"store: {store.stop_move_summary()}")
    latency = service.metrics.ingest_latency
    print(
        f"ingest latency p50={latency.percentile(50.0) * 1e3:.1f} ms "
        f"p99={latency.percentile(99.0) * 1e3:.1f} ms"
    )
    print("\nPrometheus sample:")
    for line in service.render_prometheus().splitlines():
        if "service_events_total" in line and not line.startswith("#"):
            print(f"  {line}")


if __name__ == "__main__":
    asyncio.run(main())
