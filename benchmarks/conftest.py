"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one table or figure of the paper: it times the
relevant computation with pytest-benchmark and prints (and saves under
``results/``) the same rows or series the paper reports.  Dataset sizes are
scaled down from the paper's multi-month collections so the whole harness runs
in minutes on a laptop; EXPERIMENTS.md records the scaling next to every
experiment.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = _ROOT / "results"

from repro.core import AnnotationSources, PipelineConfig, SeMiTriPipeline  # noqa: E402
from repro.core.cpu import effective_cpu_count  # noqa: E402
from repro.datasets import (  # noqa: E402
    GroundTruthDriveGenerator,
    PersonSimulator,
    PrivateCarSimulator,
    SyntheticWorld,
    TaxiFleetSimulator,
    WorldConfig,
)

#: One fixed seed for every global RNG a benchmark might (indirectly) touch,
#: reset before each test so sidecars are reproducible run-to-run and the
#: regression gate compares identical workloads.
_BENCH_SEED = 20110325


@pytest.fixture(autouse=True)
def _seed_rngs():
    """Deterministically seed the global RNGs before every benchmark."""
    random.seed(_BENCH_SEED)
    np.random.seed(_BENCH_SEED)


def machine_metadata() -> Dict[str, object]:
    """The environment facts the bench-regression gate compares like with like."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        # What this process may actually run on (cgroup/affinity-aware):
        # multi-core speedup claims are only meaningful against this number.
        "effective_cores": effective_cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "numpy": np.__version__,
    }


def bench_gate_run() -> bool:
    """Whether this is a bench-gate run (``SEMITRI_BENCH_WRITE=1``).

    Only then are sidecars written and timing thresholds asserted; an ordinary
    test run (tier-1 includes ``benchmarks/``) prints its numbers and asserts
    behaviour only.
    """
    return os.environ.get("SEMITRI_BENCH_WRITE") == "1"


def save_result(
    name: str,
    text: str,
    data: object = None,
    metrics: Optional[Dict[str, float]] = None,
    telemetry: Optional[Dict[str, object]] = None,
) -> None:
    """Echo a rendered table/series; under ``SEMITRI_BENCH_WRITE=1`` save it too.

    The sidecars hold this machine's timings, so an ordinary test run (tier-1
    includes ``benchmarks/``) only prints and leaves the tracked ``results/``
    files alone; the CI steps that feed ``scripts/check_bench_regression.py``
    set the variable.  When saving, ``results/<name>.txt`` gets the text and a
    machine-readable ``results/<name>.json`` sidecar is written beside it,
    so perf trajectories can be diffed across PRs without parsing the tables;
    benchmarks that pass structured ``data`` (numbers, series, parameters) get
    it embedded verbatim under the ``"data"`` key.  ``metrics`` is the
    contract with ``scripts/check_bench_regression.py``: a flat name →
    higher-is-better throughput mapping the CI bench gate compares against
    the committed baselines.  ``telemetry`` is observability context — span
    counts, registry snapshots — recorded for inspection only; the regression
    gate explicitly ignores it.  Every sidecar also records the machine facts
    of :func:`machine_metadata` so regressions are compared like with like.
    """
    if not bench_gate_run():
        print(f"\n{text}\n[not saved: set SEMITRI_BENCH_WRITE=1 to write results/{name}.*]")
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    json_path = RESULTS_DIR / f"{name}.json"
    payload = {
        "name": name,
        "text": text.splitlines(),
        "data": data,
        "metrics": metrics,
        "telemetry": telemetry if telemetry is not None else {"enabled": False},
        "machine": machine_metadata(),
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path} and {json_path}]")


@pytest.fixture(scope="session")
def world() -> SyntheticWorld:
    """The benchmark world (paper-scale layout, laptop-scale data)."""
    return SyntheticWorld(WorldConfig(size=8000.0, poi_count=2000, seed=7))


@pytest.fixture(scope="session")
def annotation_sources(world) -> AnnotationSources:
    return AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )


@pytest.fixture(scope="session")
def taxi_dataset(world):
    """Stand-in for the Lausanne taxi dataset (Table 1 row 1)."""
    return TaxiFleetSimulator(
        world, taxi_count=2, days=3, fares_per_day=10, sample_interval=1.0, seed=11
    ).generate()


@pytest.fixture(scope="session")
def car_dataset(world):
    """Stand-in for the Milan private-car dataset (Table 1 row 2)."""
    return PrivateCarSimulator(world, car_count=60, trips_per_car=2, seed=23).generate()


@pytest.fixture(scope="session")
def people_dataset(world):
    """Stand-in for the Nokia smartphone dataset (Table 2)."""
    return PersonSimulator(world, user_count=6, days_per_user=3, seed=31).generate()


@pytest.fixture(scope="session")
def drive_generator(world):
    """Generator for ground-truth drives (stand-in for Krumm's Seattle data)."""
    return GroundTruthDriveGenerator(
        world, waypoint_count=8, sample_interval=2.0, noise_sigma=10.0, seed=41
    )


@pytest.fixture(scope="session")
def vehicle_pipeline() -> SeMiTriPipeline:
    return SeMiTriPipeline(PipelineConfig.for_vehicles())


@pytest.fixture(scope="session")
def people_pipeline() -> SeMiTriPipeline:
    return SeMiTriPipeline(PipelineConfig.for_people())
