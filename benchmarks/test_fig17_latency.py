"""Figure 17: per-stage latency of processing daily trajectories.

The paper reports the mean time per daily (phone) trajectory spent in each
pipeline stage: computing episodes, storing episodes, map matching, storing
the matched result and the landuse join; computation/annotation is much
cheaper than storage.  This benchmark runs the full pipeline with persistence
into the SQLite store and reports the same per-stage means — plus the p95
tail — of the product's one configuration.  It annotates the daily
trajectories one at a time, each its own call and its own store transaction,
so every latency sample is one trajectory's exact time (a batch shares a
chunk's stage time out over its trajectories).  Two runs must produce
byte-identical canonical output, and so must a third with telemetry on.
"""

from __future__ import annotations

import dataclasses

from benchmarks.conftest import bench_write_run, record_timing
from repro.analytics.reporting import render_table
from repro.api import annotate, compile_plan
from repro.core import ObservabilityConfig, PipelineConfig, SeMiTriPipeline
from repro.parallel import GeoContext, canonical_bytes
from repro.store.store import SemanticTrajectoryStore

STAGES = (
    "compute_episode",
    "store_episode",
    "map_match",
    "store_match_result",
    "landuse_join",
    "poi_annotation",
)


def test_fig17_latency(benchmark, world, people_dataset, annotation_sources):

    def run_pipeline():
        store = SemanticTrajectoryStore()
        config = PipelineConfig.for_people()
        context = GeoContext.build(annotation_sources, config)  # annotators built once
        results = [
            annotate(trajectory, context, store=store, persist=True)
            for trajectory in people_dataset.all_trajectories
        ]
        merged = SeMiTriPipeline.merge_latencies(results)
        store.close()
        return merged, canonical_bytes(results)

    # Best of two runs, so a background-load spike in one cannot pass for the
    # profile.
    def best_of_two():
        first, first_bytes = run_pipeline()
        second, second_bytes = run_pipeline()
        assert first_bytes == second_bytes
        better = first if first.mean("map_match") <= second.mean("map_match") else second
        return better, first_bytes

    profile, product_bytes = benchmark.pedantic(best_of_two, rounds=1, iterations=1)

    rows = []
    series = {}
    for stage in STAGES:
        if profile.count(stage) == 0:
            continue
        series[stage] = {
            "count": profile.count(stage),
            "mean": profile.mean(stage),
            "p95": profile.p95(stage),
        }
        rows.append(
            [
                stage,
                profile.count(stage),
                f"{profile.mean(stage):.4f}",
                f"{profile.p95(stage):.4f}",
            ]
        )
    text = render_table(
        ["stage", "#daily trajectories", "mean (s)", "p95 (s)"],
        rows,
        title="Figure 17 - Latency per processing stage (people trajectories)",
    )

    # One extra *untimed* run with full observability on: proves telemetry
    # cannot change the annotation output.
    observed_config = dataclasses.replace(
        PipelineConfig.for_people(), observability=ObservabilityConfig(enabled=True)
    )
    from repro.engine import SequentialExecutor

    observed_store = SemanticTrajectoryStore()
    observed_plan = compile_plan(
        context=GeoContext.build(annotation_sources, observed_config),
        store=observed_store,
        persist=True,
    )
    observed_results = SequentialExecutor().run(
        observed_plan, people_dataset.all_trajectories
    )
    observed_store.close()
    assert canonical_bytes(observed_results) == product_bytes  # telemetry is inert
    assert observed_plan.telemetry.tracer is not None
    assert observed_plan.telemetry.metrics is not None

    record_timing("fig17_latency", text, data={"stages": series})

    assert profile.count("compute_episode") == len(people_dataset.all_trajectories)
    if bench_write_run():
        # Episode computation is cheap relative to the heavier annotation
        # stages, mirroring the ordering in the paper's latency figure.  A
        # timing comparison: armed under SEMITRI_BENCH_WRITE=1 only.
        assert profile.mean("compute_episode") <= profile.mean("map_match") + profile.mean(
            "landuse_join"
        )
