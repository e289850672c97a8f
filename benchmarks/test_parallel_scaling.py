"""Multi-core scaling of the process-pool batch executor.

Annotates a scalability-style workload (many objects, full annotation stack)
three ways and reports throughput for each:

* ``sequential`` — ``api.annotate_many`` on one worker, the reference;
* ``pool xN (fork)`` — a held :class:`~repro.engine.ProcessPoolExecutor`, the
  path ``api.annotate_many(..., workers=N)`` takes on Linux;
* ``pool xN (spawn)`` — the same executor with its workers spawned, so each
  receives the snapshot as a pickle: what macOS and Windows run.  Recorded,
  never gated (Linux does not ship this path).

Output equality is asserted byte-for-byte for every row.

One pool row means one sample per run, so the gate is built to be trusted
alone: sequential and fork-pool rounds **alternate** (slow drift of the
machine hits both sides equally), each side runs ``ROUNDS`` times, the gate
compares ``median(sequential) / median(pool)`` and the sidecar records the
quartiles so the spread is visible next to the number.

The speedup gate is tiered by what the machine can actually deliver: the
sidecar records the affinity-aware effective core count next to every number
and the assertion arms only with >= 2 effective cores (>1.5x target at
>= ``WORKERS`` cores, >1.1x at 2-3).  A 1-core runner records an honest <1x
pool number instead of a silently-passed gate.

It is a timing assertion, so it also arms only under ``SEMITRI_BENCH_WRITE=1``
— the bench-gate environment, which CI's "Multi-core scaling gate" step sets.
An ordinary test run (tier-1 includes ``benchmarks/``) asserts the
byte-for-byte output equality and prints the ratio: four tier-1 runs of one
commit on a shared 2-vCPU box read 1.09x, 1.22x, 1.31x and 1.32x.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import Callable, Dict, List

from benchmarks.conftest import bench_gate_run, save_result
from repro import api
from repro.analytics.reporting import render_table
from repro.core import PipelineConfig
from repro.core.cpu import effective_cpu_count
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine import ProcessPoolExecutor, executors
from repro.parallel import GeoContext, canonical_bytes, canonical_digest

WORKERS = 4
#: Timed rounds per row.  Interference on a shared 2-vCPU box comes in phases
#: a few rounds long and costs the pool (which needs both cores) more than the
#: sequential side, so alternation alone does not cancel it: 9-round windows
#: cut from one 40-round trace gave 1.07x-1.84x around a 1.31x median.  Fifteen
#: rounds keep such a phase under half of the samples the medians are taken on.
ROUNDS = 15
#: Untimed full-width batches before the timed rounds.  One is not enough: the
#: first three to six batches of a fresh pool were measured up to 1.7x slower
#: than its steady state (each batch shows a worker only two of the eight
#: shards, and a forked worker faults inherited pages in on first touch).
WARMUP_ROUNDS = 4
#: ... and the least time they must fill.  What a warm-up has to outlast is
#: measured in seconds, not batches: after a single-threaded stretch (the
#: tests that run before this one) two busy processes on a 2-vCPU box each ran
#: at half speed for the first ~1.0 s (23.6 then 11.8 ms per fixed loop), and
#: four batches, ~1 s when a batch took 250 ms, are 0.2 s at 45 ms.
WARMUP_SECONDS = 2.0
#: Required pool speedup when the machine really has >= WORKERS cores.
SPEEDUP_TARGET = 1.5
#: Reduced target on 2-3 core machines: perfect WORKERS-way scaling is
#: impossible there, but the pool must still beat sequential.
SPEEDUP_TARGET_SMALL = 1.1

SEQUENTIAL = "sequential"
POOL_FORK = f"pool x{WORKERS} (fork)"
POOL_SPAWN = f"pool x{WORKERS} (spawn)"


def _scalability_workload(world, objects: int = 8, points_per_object: int = 600):
    """Zig-zag drives with dwell clusters for several objects over the world core."""
    core_min = world.config.core_min
    trajectories: List[RawTrajectory] = []
    for obj in range(objects):
        points: List[SpatioTemporalPoint] = []
        t = 0.0
        x = core_min + 120.0 * obj
        y = core_min + 80.0 * obj
        for i in range(points_per_object):
            if i % 150 < 12:  # periodic dwell: stop episodes for the point layer
                x += 0.3
                t += 60.0
            else:
                x = core_min + (x - core_min + 10.0) % 3000.0
                y = core_min + ((i * 10.0) // 3000.0 * 400.0 + 80.0 * obj) % 3000.0
                t += 1.0
            points.append(SpatioTemporalPoint(x, y, t))
        trajectories.append(
            RawTrajectory(points, object_id=f"car{obj}", trajectory_id=f"car{obj}-t0")
        )
    return trajectories


def _warm_up(pool: ProcessPoolExecutor, plan, trajectories) -> None:
    deadline = time.perf_counter() + WARMUP_SECONDS
    rounds = 0
    while rounds < WARMUP_ROUNDS or time.perf_counter() < deadline:
        pool.run(plan, trajectories)
        rounds += 1


def test_parallel_scaling(benchmark, world, annotation_sources, monkeypatch):
    config = PipelineConfig.for_vehicles()
    trajectories = _scalability_workload(world)
    total_points = sum(len(t) for t in trajectories)
    context = GeoContext.build(annotation_sources, config)
    plan = api.compile_plan(context=context)
    effective = effective_cpu_count()

    samples: Dict[str, List[float]] = {SEQUENTIAL: [], POOL_FORK: [], POOL_SPAWN: []}
    outputs: Dict[str, list] = {}

    def timed(mode: str, fn: Callable[[], list]) -> None:
        started = time.perf_counter()
        outputs[mode] = fn()
        samples[mode].append(time.perf_counter() - started)

    def run():
        with ProcessPoolExecutor(workers=WORKERS) as pool:
            _warm_up(pool, plan, trajectories)
            for _ in range(ROUNDS):
                timed(SEQUENTIAL, lambda: api.annotate_many(trajectories, context=context))
                timed(POOL_FORK, lambda: pool.run(plan, trajectories))
        with monkeypatch.context() as patch:
            patch.setattr(
                executors, "_pool_mp_context", lambda: multiprocessing.get_context("spawn")
            )
            with ProcessPoolExecutor(workers=WORKERS) as pool:
                _warm_up(pool, plan, trajectories)
                for _ in range(ROUNDS):
                    timed(POOL_SPAWN, lambda: pool.run(plan, trajectories))

    benchmark.pedantic(run, rounds=1, iterations=1)

    reference_bytes = canonical_bytes(outputs[SEQUENTIAL])
    for mode, results in outputs.items():
        assert canonical_bytes(results) == reference_bytes, f"{mode} output diverged"

    gate_armed = effective >= 2 and bench_gate_run()
    if gate_armed:
        gate_reason = f"{effective} effective core(s) >= 2"
    elif effective >= 2:
        gate_reason = "not a bench-gate run (SEMITRI_BENCH_WRITE unset); ratio printed, not judged"
    else:
        gate_reason = f"only {effective} effective core(s); pool numbers recorded, not judged"
    gate_target = SPEEDUP_TARGET if effective >= WORKERS else SPEEDUP_TARGET_SMALL
    medians = {mode: statistics.median(times) for mode, times in samples.items()}
    rows = []
    data = {
        "workers": WORKERS,
        "rounds": ROUNDS,
        "effective_cores": effective,
        "gps_points": total_points,
        "canonical_digest": canonical_digest(outputs[SEQUENTIAL]),
        "gate": {
            "armed": gate_armed,
            "mode": POOL_FORK,
            "statistic": "median(sequential) / median(pool), alternating rounds",
            "target": gate_target if gate_armed else None,
            "reason": gate_reason,
        },
        "modes": {},
    }
    for mode, times in samples.items():
        q1, median, q3 = statistics.quantiles(times, n=4)
        speedup = medians[SEQUENTIAL] / max(median, 1e-9)
        gated = mode == POOL_FORK and gate_armed
        rows.append(
            [
                mode,
                f"{median * 1e3:.0f}",
                f"{q1 * 1e3:.0f}-{q3 * 1e3:.0f}",
                f"{total_points / median:,.0f}",
                f"{speedup:.2f}x",
                "-" if mode == SEQUENTIAL else ("yes" if gated else "no"),
            ]
        )
        data["modes"][mode] = {
            "seconds_median": median,
            "seconds_q1": q1,
            "seconds_q3": q3,
            "seconds_rounds": times,
            "points_per_second": total_points / median,
            "speedup_vs_sequential": speedup,
            "gating": gated,
        }
    text = render_table(
        ["mode", "median ms", "q1-q3 ms", "GPS points/s", "speedup", "gated"],
        rows,
        title=(
            f"Parallel annotation scaling ({len(trajectories)} objects, "
            f"{total_points:,} points, {ROUNDS} rounds, {effective} effective core(s))"
        ),
    )
    save_result("parallel_scaling", text, data=data)

    speedup = data["modes"][POOL_FORK]["speedup_vs_sequential"]
    if gate_armed:
        assert speedup > gate_target, (
            f"expected >{gate_target}x at {WORKERS} workers on {effective} cores, "
            f"got {speedup:.2f}x"
        )
    else:
        print(
            f"\n[speedup gate disarmed ({gate_reason}); recorded "
            f"{POOL_FORK}: {speedup:.2f}x, {POOL_SPAWN}: "
            f"{data['modes'][POOL_SPAWN]['speedup_vs_sequential']:.2f}x]"
        )
