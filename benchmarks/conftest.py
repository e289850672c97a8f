"""Shared fixtures for the paper's tables and figures.

Every file here reproduces one table, figure or ablation of the paper and
renders the rows or series the paper reports.  The deterministic ones are
regression tests: :func:`save_result` compares the rendered text with the
committed ``results/<name>.txt``.  The claims whose value is a timing
(Figure 17, the scalability checks, the service's multi-core scaling leg) go
through :func:`record_timing`, which asserts nothing; timings that gate a
change are ``bench/``'s.  Dataset sizes are scaled down from the paper's
multi-month collections so the whole directory runs in under a minute.
"""

from __future__ import annotations

import difflib
import json
import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = _ROOT / "results"

from repro.core import AnnotationSources, PipelineConfig  # noqa: E402
from repro.datasets import (  # noqa: E402
    GroundTruthDriveGenerator,
    PersonSimulator,
    PrivateCarSimulator,
    SyntheticWorld,
    TaxiFleetSimulator,
    WorldConfig,
)

#: One fixed seed for every global RNG a benchmark might (indirectly) touch,
#: reset before each test so the rendered results are the same run to run.
_BENCH_SEED = 20110325


@pytest.fixture(autouse=True)
def _seed_rngs():
    """Deterministically seed the global RNGs before every benchmark."""
    random.seed(_BENCH_SEED)
    np.random.seed(_BENCH_SEED)


def bench_write_run() -> bool:
    """Whether ``results/`` is being regenerated (``SEMITRI_BENCH_WRITE=1``).

    Only then are files written and the timing files' thresholds asserted; an
    ordinary test run (tier-1 includes ``benchmarks/``) leaves the tree alone.
    """
    return os.environ.get("SEMITRI_BENCH_WRITE") == "1"


def save_result(name: str, text: str) -> None:
    """Assert a deterministic paper result against ``results/<name>.txt``.

    Fails with a unified diff when the rendered text differs from the
    committed file, so a change that moves a paper number has to show it as a
    diff in ``results/``: ``SEMITRI_BENCH_WRITE=1`` rewrites the file instead
    of comparing.
    """
    print(f"\n{text}")
    path = RESULTS_DIR / f"{name}.txt"
    if bench_write_run():
        path.write_text(text + "\n", encoding="utf-8")
        return
    committed = path.read_text(encoding="utf-8")
    if committed != text + "\n":
        diff = "\n".join(
            difflib.unified_diff(
                committed.splitlines(),
                text.splitlines(),
                fromfile=f"results/{name}.txt (committed)",
                tofile=f"results/{name}.txt (this run)",
                lineterm="",
            )
        )
        pytest.fail(
            f"results/{name}.txt is out of date; if the change is meant, regenerate it "
            f"with SEMITRI_BENCH_WRITE=1 and commit the diff:\n{diff}",
            pytrace=False,
        )


def record_timing(name: str, text: str, data: object) -> None:
    """Echo a timing table; under ``SEMITRI_BENCH_WRITE=1`` save it too.

    The numbers are this machine's, so nothing is compared: ``results/<name>.txt``
    gets the text and ``results/<name>.json`` the same lines plus the
    structured ``data`` (series, parameters) behind them.
    """
    if not bench_write_run():
        print(f"\n{text}\n[not saved: set SEMITRI_BENCH_WRITE=1 to write results/{name}.*]")
        return
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    json_path = RESULTS_DIR / f"{name}.json"
    payload = {"name": name, "text": text.splitlines(), "data": data}
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
def vehicle_config() -> PipelineConfig:
    return PipelineConfig.for_vehicles()


@pytest.fixture(scope="session")
def people_config() -> PipelineConfig:
    return PipelineConfig.for_people()
