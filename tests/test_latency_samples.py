"""One latency sample per stage and trajectory, in every runtime (Figure 17).

Batch times an episode stage once per chunk and shares the time out over the
chunk's trajectories; streaming runs the same stage once per annotate-queue
flush, over whatever episodes the flush holds.  Either way the executor holds
each trajectory's share until it closes and records it as one sample, so the
per-stage means and percentiles of Figure 17 (and the ``/metrics`` stage
histograms) count the same unit — trajectories — in batch, in a streaming
executor and in a service.  A traced held stage becomes one span that starts
when the stage first ran for the trajectory and lasts its summed time.
"""

from __future__ import annotations

import asyncio
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro import api
from repro.core import PipelineConfig
from repro.core.pipeline import PipelineResult
from repro.core.points import RawTrajectory
from repro.engine.stages import WorkItem
from repro.obs.trace import Tracer

# The benchmark fleet (bench/fleet.py) lives beside src/ at the checkout root.
_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from bench import fleet  # noqa: E402

#: The stages every executor records for every result of the fleet.
_STAGES = ("compute_episode", "landuse_join", "map_match", "poi_annotation")


def _config(**service: object) -> PipelineConfig:
    overrides = {
        "streaming.micro_batch_size": 64,
        "streaming.apply_cleaning": True,
        "service.session_budget": 1_000_000,
    }
    overrides.update({f"service.{key}": value for key, value in service.items()})
    return PipelineConfig.for_vehicles().with_overrides(overrides)


@pytest.fixture(scope="module")
def fleet_inputs() -> fleet.Inputs:
    """The benchmark fleet of seed 1: 12,000 events of about 125 objects."""
    return fleet.generate(1, fleet.FULL)


def _batch(inputs: fleet.Inputs) -> List[PipelineResult]:
    return fleet.sequential(fleet.build_context(inputs, _config()), inputs)


def _stream(inputs: fleet.Inputs) -> List[PipelineResult]:
    results: List[PipelineResult] = []
    engine = api.stream(fleet.build_context(inputs, _config()), on_result=results.append)
    for object_id, point in inputs.ops:
        if point is None:
            engine.close_object(object_id)
        else:
            engine.ingest(object_id, point)
    engine.close_all()
    return results


def _serve(inputs: fleet.Inputs) -> List[PipelineResult]:
    context = fleet.build_context(inputs, _config(transport="thread", shards=1))

    async def run() -> List[PipelineResult]:
        async with api.serve(context) as service:
            for object_id, point in inputs.ops:
                if point is None:
                    await service.close_object(object_id)
                else:
                    await service.ingest(object_id, point)
            return await service.drain()

    return asyncio.run(run())


def _sample_counts(results: List[PipelineResult]) -> Dict[Tuple[str, float], Dict[str, int]]:
    """Per trajectory (object, first timestamp: streaming renumbers the ids), its counts."""
    return {
        (result.trajectory.object_id, result.trajectory.ts[0]): {
            stage: result.latency.count(stage) for stage in result.latency.stages()
        }
        for result in results
    }


def test_every_runtime_records_one_sample_per_stage_and_trajectory(fleet_inputs):
    batch = _sample_counts(_batch(fleet_inputs))
    assert len(batch) == 132
    for counts in batch.values():
        assert counts == {stage: 1 for stage in _STAGES}
    assert _sample_counts(_stream(fleet_inputs)) == batch
    assert _sample_counts(_serve(fleet_inputs)) == batch


def test_a_held_stage_is_one_span_dated_from_its_first_run(monkeypatch):
    item = WorkItem.start(RawTrajectory.from_columns([0.0], [0.0], [0.0]))
    item.trace = Tracer().start_trace("t")
    clock = iter([100.0, 107.0])
    monkeypatch.setattr(time, "time", lambda: next(clock))
    item.hold_stage("landuse_join", 0.5)  # ran 99.5 - 100.0
    item.hold_stage("landuse_join", 0.25)  # ran again, later
    item.release_stage("landuse_join")
    item.release_stage("map_match")  # never ran for this item
    assert item.result.latency.count("landuse_join") == 1
    assert item.result.latency.count("map_match") == 1
    spans = item.trace.close()[1:]
    assert [(span.name, span.start, span.duration) for span in spans] == [
        ("landuse_join", 99.5, 0.75)
    ]
