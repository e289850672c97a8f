#!/usr/bin/env python3
"""Deterministic load generator for the annotation ingestion service.

Replays the seed synthetic datasets (taxi fleet, private cars, people) from
simulated emitters — one concurrent emitter per moving object — into an
:class:`repro.service.AnnotationService`, either in-process (default) or
through the stdlib HTTP facade (``--http``).  Event content is fully
deterministic (fixed world and simulator seeds); ``--rate`` paces each
emitter in events/second (0 = as fast as the service accepts, which is how
the throughput benchmark drives it), and ``--kill-fraction`` makes that
fraction of emitters vanish mid-stream without closing, exercising the
drain-time close-out path.

Prints a JSON report (sustained events/s, p50/p99 enqueue-to-absorbed
latency, backpressure waits, dropped events, and the summed per-shard
``service_events_total`` / ``service_results_total`` series) to stdout or
``--output``; with ``--require-zero-dropped`` the exit status enforces the
service's no-drop contract and that those two series equal
``events_absorbed`` and ``results``, which is how the CI smoke leg uses it::

    PYTHONPATH=src python scripts/load_generator.py \
        --cars 3 --taxis 1 --people 1 --rate 200 --shards 2 \
        --require-zero-dropped
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.core import PipelineConfig  # noqa: E402
from repro.core.points import SpatioTemporalPoint  # noqa: E402
from repro.datasets import (  # noqa: E402
    PersonSimulator,
    PrivateCarSimulator,
    SyntheticWorld,
    TaxiFleetSimulator,
    WorldConfig,
)
from repro.faults import FaultInjector, FaultPlan  # noqa: E402
from repro.faults.inject import FAULTS_ENV_VAR  # noqa: E402
from repro.parallel.context import GeoContext  # noqa: E402
from repro.service import AnnotationService, HttpIngestServer  # noqa: E402
from repro.store.store import SemanticTrajectoryStore  # noqa: E402


def build_streams(
    cars: int, taxis: int, people: int, seed: int
) -> Tuple[object, Dict[str, List[SpatioTemporalPoint]]]:
    """The seed world plus one deterministic raw point stream per emitter."""
    world = SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))
    trajectory_lists = []
    if taxis:
        fleet = TaxiFleetSimulator(world, taxi_count=taxis, days=1, fares_per_day=4, seed=seed)
        trajectory_lists.append(fleet.generate().trajectories)
    if cars:
        owners = PrivateCarSimulator(world, car_count=cars, trips_per_car=2, seed=seed + 1)
        trajectory_lists.append(owners.generate().trajectories)
    if people:
        users = PersonSimulator(world, user_count=people, days_per_user=1, seed=seed + 2)
        trajectory_lists.append(users.generate().all_trajectories)
    streams: Dict[str, List[SpatioTemporalPoint]] = {}
    grouped: Dict[str, list] = {}
    for trajectories in trajectory_lists:
        for trajectory in trajectories:
            grouped.setdefault(trajectory.object_id, []).append(trajectory)
    for object_id, trajectories in sorted(grouped.items()):
        trajectories.sort(key=lambda trajectory: trajectory.points[0].t)
        streams[object_id] = [
            point for trajectory in trajectories for point in trajectory.points
        ]
    return world, streams


def service_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig.for_vehicles().with_overrides(
        {
            "streaming.micro_batch_size": 8,
            "streaming.apply_cleaning": True,
            "service.shards": args.shards,
            "service.queue_depth": args.queue_depth,
            "service.max_batch": args.max_batch,
            "service.transport": args.transport,
            "failure.mode": args.failure_mode,
        }
    )


class _HttpEmitterClient:
    """One keep-alive connection speaking the ingest protocol."""

    def __init__(self, port: int):
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _request(self, method: str, path: str, payload: Optional[dict]) -> dict:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection("127.0.0.1", self._port)
        assert self._reader is not None and self._writer is not None
        body = json.dumps(payload).encode() if payload is not None else b""
        head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {len(body)}\r\n\r\n"
        self._writer.write(head.encode() + body)
        await self._writer.drain()
        status = int((await self._reader.readline()).split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self._reader.readexactly(length)
        reply = json.loads(data) if data.startswith(b"{") else {}
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {reply}")
        return reply

    async def ingest(self, object_id: str, point: SpatioTemporalPoint) -> None:
        await self._request(
            "POST", "/ingest", {"object_id": object_id, "x": point.x, "y": point.y, "t": point.t}
        )

    async def close_object(self, object_id: str) -> None:
        await self._request("POST", "/close", {"object_id": object_id})

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionResetError:
                pass


async def _emit(
    sink, object_id: str, points: List[SpatioTemporalPoint], rate: float, killed: bool
) -> int:
    """Replay one emitter; returns the number of events delivered."""
    delivered_points = points[: max(1, int(len(points) * 0.6))] if killed else points
    interval = 1.0 / rate if rate > 0 else 0.0
    sent = 0
    for point in delivered_points:
        await sink.ingest(object_id, point)
        sent += 1
        if interval:
            await asyncio.sleep(interval)
    if not killed:
        await sink.close_object(object_id)
    return sent


async def run_load(args: argparse.Namespace) -> Dict[str, object]:
    from repro.core.pipeline import AnnotationSources

    world, streams = build_streams(args.cars, args.taxis, args.people, args.seed)
    config = service_config(args)
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    # Build the snapshot up front so index construction stays out of the
    # timed window — the report measures ingest, not setup.
    context = GeoContext.build(sources, config)
    injector = (
        FaultInjector(FaultPlan.parse(args.fault_plan)) if args.fault_plan else None
    )
    store = SemanticTrajectoryStore(str(args.store)) if args.store else None
    service = AnnotationService(
        context, store=store, persist=store is not None, fault_injector=injector
    )

    killed = {
        object_id
        for index, object_id in enumerate(sorted(streams))
        if args.kill_fraction > 0 and (index % max(1, round(1 / args.kill_fraction)) == 0)
    }

    async with service:
        server: Optional[HttpIngestServer] = None
        clients: List[_HttpEmitterClient] = []
        try:
            if args.http:
                server = await HttpIngestServer(service, port=0).start()

            def sink_for() -> object:
                if server is None:
                    return service
                client = _HttpEmitterClient(server.port)
                clients.append(client)
                return client

            started = time.perf_counter()
            sent = await asyncio.gather(
                *(
                    _emit(sink_for(), object_id, points, args.rate, object_id in killed)
                    for object_id, points in sorted(streams.items())
                )
            )
            await service.drain()
            elapsed = time.perf_counter() - started
        finally:
            for client in clients:
                await client.close()
            if server is not None:
                await server.stop()
        await service.shutdown()

    latency = service.metrics.ingest_latency

    def shard_total(name: str) -> int:
        """One per-shard series of ``/metrics``, summed over the shards."""
        return int(
            sum(
                service.registry.value(name, shard=str(index)) or 0
                for index in range(service.shard_count)
            )
        )

    failures = service.failure_log.snapshot()
    stored = len(store.trajectory_ids()) if store is not None else None
    if store is not None:
        store.close()
    return {
        "stored_trajectories": stored,
        "ingress": "http" if args.http else "in-process",
        "transport": service.transport,
        "emitters": len(streams),
        "killed_emitters": len(killed),
        "shards": service.shard_count,
        "rate_per_emitter": args.rate,
        "fault_plan": args.fault_plan,
        "failure_mode": args.failure_mode,
        "events_sent": int(sum(sent)),
        "events_absorbed": service.delivered_events,
        "dropped_events": service.dropped_events,
        "shard_errors": service.stats.errors,
        "failures": failures["failures"],
        "retries": failures["retries"],
        "quarantined": failures["quarantined"],
        "wal_replayed": failures["wal_replayed"],
        "results": len(service.results),
        "metrics_events_total": shard_total("service_events_total"),
        "metrics_results_total": shard_total("service_results_total"),
        "sessions_evicted": service.sessions_evicted,
        "backpressure_waits": service.stats.backpressure_waits,
        "elapsed_s": round(elapsed, 4),
        "events_per_s": round(sum(sent) / elapsed, 1) if elapsed > 0 else 0.0,
        "ingest_latency_p50_s": latency.percentile(50.0),
        "ingest_latency_p99_s": latency.percentile(99.0),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cars", type=int, default=4, help="private-car emitters")
    parser.add_argument("--taxis", type=int, default=1, help="taxi emitters")
    parser.add_argument("--people", type=int, default=2, help="smartphone emitters")
    parser.add_argument(
        "--rate", type=float, default=0.0, help="events/sec per emitter (0 = unpaced)"
    )
    parser.add_argument("--shards", type=int, default=2, help="service shards (0 = auto)")
    parser.add_argument("--queue-depth", type=int, default=64, help="per-shard queue bound")
    parser.add_argument("--max-batch", type=int, default=32, help="events per shard batch")
    parser.add_argument(
        "--transport",
        choices=["thread", "process", "auto"],
        default="auto",
        help="shard execution tier (auto = process on multi-core, thread otherwise)",
    )
    parser.add_argument(
        "--kill-fraction", type=float, default=0.0, help="fraction of emitters killed mid-stream"
    )
    parser.add_argument(
        "--fault-plan",
        default=os.environ.get(FAULTS_ENV_VAR, ""),
        help=(
            'deterministic fault plan, e.g. "seed=3;raise@map_match:n=4,times=2" '
            f"(defaults to ${FAULTS_ENV_VAR}, the knob the CI chaos matrix sets)"
        ),
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="persist drained trajectories to this SQLite store (exercises the commit path)",
    )
    parser.add_argument(
        "--failure-mode",
        choices=["fail_fast", "skip", "retry"],
        default="fail_fast",
        help="per-trajectory failure policy the service runs under",
    )
    parser.add_argument("--seed", type=int, default=11, help="dataset seed")
    parser.add_argument("--http", action="store_true", help="go through the HTTP facade")
    parser.add_argument("--output", type=Path, default=None, help="write the JSON report here")
    parser.add_argument(
        "--require-zero-dropped",
        action="store_true",
        help="exit nonzero unless every accepted event was absorbed (CI smoke)",
    )
    args = parser.parse_args(argv)

    report = asyncio.run(run_load(args))
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.write_text(rendered + "\n", encoding="utf-8")
    print(rendered)
    # Under an active fault plan, shard errors and quarantines are *expected*
    # and fully accounted (surfaced above); the no-drop contract then means
    # "nothing vanished": zero dropped events and results still produced.
    unaccounted_errors = 0 if args.fault_plan else report["shard_errors"]
    if args.require_zero_dropped and (
        report["dropped_events"] or unaccounted_errors or not report["results"]
    ):
        print(
            "FAIL: events were dropped or no results produced "
            f"(dropped={report['dropped_events']}, errors={report['shard_errors']}, "
            f"quarantined={report['quarantined']}, results={report['results']})",
            file=sys.stderr,
        )
        return 2
    # /metrics must read the ledger: a count that drifts from it (e.g. replayed
    # work counted twice) fails the smoke as surely as a dropped event.
    if args.require_zero_dropped and (
        report["metrics_events_total"] != report["events_absorbed"]
        or report["metrics_results_total"] != report["results"]
    ):
        print(
            "FAIL: /metrics disagrees with the ledger "
            f"(service_events_total={report['metrics_events_total']}, "
            f"events_absorbed={report['events_absorbed']}, "
            f"service_results_total={report['metrics_results_total']}, "
            f"results={report['results']})",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
