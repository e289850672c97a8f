"""Benchmark inputs, the recorded configuration and the sequential reference.

The program under test receives only what :func:`generate` returns: the raw
map (regions, road segments, POIs) and one time-ordered GPS stream per moving
object.  The map is fixed; the fleet derives from ``--seed``.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.core.config import PipelineConfig
from repro.core.pipeline import AnnotationSources, PipelineResult
from repro.core.points import SpatioTemporalPoint
from repro.datasets import PersonSimulator, PrivateCarSimulator, SyntheticWorld, WorldConfig
from repro.lines.road_network import RoadNetwork
from repro.parallel import GeoContext, canonical_digest
from repro.points.poi import PoiSource
from repro.regions.sources import RegionSource

WORLD = WorldConfig(size=8000, poi_count=2000)

#: Concurrently active objects: emitter coroutines of the closed loop and
#: interleave lanes of the event-by-event and open-loop feeds.
LANES = 64

#: One queued operation: ``(object id, point)``, or ``(object id, None)`` for a close.
Op = Tuple[str, Optional[SpatioTemporalPoint]]


@dataclass(frozen=True)
class FleetSize:
    """How many GPS events of people and of cars the fleet holds (to within 20).

    Both counts are pinned (70/30 cars/people by events) so that neither the
    per-event cost nor the memory footprint drifts with the seed; simulated
    objects are taken in order and the last one of each kind is cut short.
    """

    people_events: int
    car_events: int
    users: int
    days: int
    car_pool: int


#: Frozen sizes.  ``FULL`` is 12,000 events in about 125 objects: short enough
#: that a run holds many repetitions.  ``QUICK`` is the
#: smoke test.
FULL = FleetSize(people_events=3600, car_events=8400, users=8, days=2, car_pool=200)
QUICK = FleetSize(people_events=750, car_events=1750, users=2, days=2, car_pool=60)

#: A cut-short stream still has to survive trajectory identification.
_MIN_STREAM = 20


@dataclass
class Inputs:
    """Everything handed to the program, plus how long generating it took."""

    regions: list
    segments: list
    pois: list
    streams: Dict[str, List[SpatioTemporalPoint]]
    order: List[str]
    """Replay order of the objects."""
    ops: List[Op]
    """The fleet interleaved over ``LANES`` lanes (see :func:`interleave`)."""
    op_positions: Dict[str, List[int]]
    """Per object, where in ``ops`` each of its operations sits (close last)."""
    events: int
    generate_s: float


def generate(seed: int, size: FleetSize) -> Inputs:
    """The raw map and a mixed fleet: move-dominated cars, stop-heavy people."""
    started = time.perf_counter()
    world = SyntheticWorld(WORLD)
    # Simulators seed per object with ``seed + index``; spreading --seed keeps
    # neighbouring seeds from sharing objects.
    people = PersonSimulator(
        world, user_count=size.users, days_per_user=size.days, seed=seed * 1_000_003 + 500_009
    ).generate()
    cars = PrivateCarSimulator(
        world,
        car_count=size.car_pool,
        trips_per_car=1,
        sample_interval=40.0,
        seed=seed * 1_000_003 + 17,
    ).generate()
    streams: Dict[str, List[SpatioTemporalPoint]] = {}
    for trajectories, budget in (
        (people.all_trajectories, size.people_events),
        (cars.trajectories, size.car_events),
    ):
        for trajectory in trajectories:
            taken = trajectory.points[:budget]
            if len(taken) < min(_MIN_STREAM, len(trajectory.points)):
                break  # too short a remainder to cut an object for
            streams.setdefault(trajectory.object_id, []).extend(taken)
            budget -= len(taken)
        if budget >= _MIN_STREAM:
            raise ValueError(f"simulated pool is {budget} events short of the fleet size")
    for points in streams.values():
        points.sort(key=lambda point: point.t)
    order = sorted(streams)
    random.Random(seed).shuffle(order)
    ops, positions = interleave(order, streams)
    return Inputs(
        regions=list(world.landuse_regions()),
        segments=list(world.road_network().segments),
        pois=list(world.generate_pois()),
        streams=streams,
        order=order,
        ops=ops,
        op_positions=positions,
        events=sum(len(points) for points in streams.values()),
        generate_s=time.perf_counter() - started,
    )


def interleave(
    order: Sequence[str], streams: Dict[str, List[SpatioTemporalPoint]]
) -> Tuple[List[Op], Dict[str, List[int]]]:
    """The fleet over ``LANES`` lanes, round-robin, one operation per lane per turn.

    Each lane replays one object (events, then its close) and then takes the
    next from ``order`` — ``LANES`` fair concurrent emitters, written down as
    one sequence.  Per-object order is preserved.
    """
    ops: List[Op] = []
    positions: Dict[str, List[int]] = {object_id: [] for object_id in order}
    waiting = iter(order)
    lanes: List[Tuple[str, int]] = [(object_id, 0) for _, object_id in zip(range(LANES), waiting)]
    while lanes:
        survivors = []
        for object_id, cursor in lanes:
            points = streams[object_id]
            positions[object_id].append(len(ops))
            if cursor < len(points):
                ops.append((object_id, points[cursor]))
                survivors.append((object_id, cursor + 1))
            else:
                ops.append((object_id, None))
                following = next(waiting, None)
                if following is not None:
                    survivors.append((following, 0))
        lanes = survivors
    return ops, positions


# ------------------------------------------------------------------- program set-up
def pipeline_config(
    transport: str = "thread", shards: int = 1, journal_dir: str = ""
) -> PipelineConfig:
    """The one recorded configuration; only the service placement varies by workload."""
    return PipelineConfig.for_vehicles().with_overrides(
        {
            "streaming.micro_batch_size": 64,
            "streaming.apply_cleaning": True,
            "service.queue_depth": 128,
            "service.max_batch": 64,
            "service.session_budget": 1_000_000,
            "service.transport": transport,
            "service.shards": shards,
            "service.journal_dir": journal_dir,
            "observability.enabled": False,
        }
    )


def build_context(inputs: Inputs, config: PipelineConfig) -> GeoContext:
    """Set-up every workload pays: index the raw map, freeze the snapshot."""
    sources = AnnotationSources(
        regions=RegionSource(inputs.regions, name="landuse"),
        road_network=RoadNetwork(inputs.segments, name="synthetic-city"),
        pois=PoiSource(inputs.pois, name="synthetic-pois"),
    )
    return GeoContext.build(sources, config)


def sequential(context: GeoContext, inputs: Inputs) -> List[PipelineResult]:
    """The sequential pipeline: ``ingest_stream`` per object, then ``annotate_many``.

    This is both the timed body of ``batch_store`` and the reference every
    other workload is checked against.
    """
    pipeline = api.open_pipeline(context.config)
    raws = []
    for object_id in inputs.order:
        raws.extend(pipeline.ingest_stream(inputs.streams[object_id], object_id=object_id))
    return api.annotate_many(raws, context=context)


# ------------------------------------------------------------------------ reference
@dataclass
class Reference:
    """What the sequential pipeline made of the inputs."""

    results: List[PipelineResult]
    digests: Dict[str, str]
    last_op: Dict[str, int]
    """Per trajectory, the position in ``Inputs.ops`` of its last operation:
    the first operation of its object after the trajectory's last point — the
    gap-opening event, or the close."""
    store_rows: Dict[str, int]
    digest_s: float

    @classmethod
    def build(cls, inputs: Inputs, results: List[PipelineResult]) -> "Reference":
        started = time.perf_counter()
        digests = {r.trajectory.trajectory_id: canonical_digest([r]) for r in results}
        digest_s = time.perf_counter() - started
        last_op: Dict[str, int] = {}
        times = {oid: [p.t for p in points] for oid, points in inputs.streams.items()}
        for result in results:
            trajectory = result.trajectory
            local = bisect.bisect_right(times[trajectory.object_id], trajectory.points[-1].t)
            last_op[trajectory.trajectory_id] = inputs.op_positions[trajectory.object_id][local]
        return cls(
            results=results,
            digests=digests,
            last_op=last_op,
            store_rows=expected_rows(results),
            digest_s=digest_s,
        )


def expected_rows(results: Sequence[PipelineResult]) -> Dict[str, int]:
    """Store row counts a complete, duplicate-free write of ``results`` leaves."""
    return {
        "trajectory_count": len(results),
        "gps_record_count": sum(len(r.trajectory) for r in results),
        "episode_count": sum(len(r.episodes) for r in results),
        "annotation_count": sum(len(e.annotations) for r in results for e in r.episodes),
    }


@dataclass
class Ledger:
    """Operations attempted and failed, by kind; ``failed_share`` is their ratio."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    """Raw per-repetition samples behind the reported numbers, kept for the record."""

    def count(self, what: str, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    def trajectories(
        self, what: str, reference: Reference, results: Sequence[PipelineResult]
    ) -> None:
        """Missing, unexpected, duplicated or digest-mismatched trajectories fail."""
        got = {r.trajectory.trajectory_id: r for r in results}
        failed = len(results) - len(got) + len(set(got) - set(reference.digests))
        for trajectory_id, digest in reference.digests.items():
            result = got.get(trajectory_id)
            if result is None or canonical_digest([result]) != digest:
                failed += 1
        self.count(f"{what} trajectories", len(reference.digests), failed)

    def store_rows(self, what: str, expected: Dict[str, int], store: object) -> None:
        """Each of the four row counts must reconcile with the reference."""
        wrong = [
            f"{name}={getattr(store, name)()} (expected {count})"
            for name, count in expected.items()
            if getattr(store, name)() != count
        ]
        self.count(f"{what} store rows {wrong}", len(expected), len(wrong))
