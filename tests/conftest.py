"""Shared fixtures for the SeMiTri test-suite.

The synthetic world and its derived sources (landuse regions, road network,
POIs) are expensive enough to build that they are shared at session scope;
tests must therefore treat them as read-only.
"""

from __future__ import annotations

import faulthandler
import glob
import os
import signal
import sys
import time
from pathlib import Path
from typing import List

import pytest

# Make the package importable even when it has not been pip-installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import AnnotationSources, PipelineConfig  # noqa: E402
from repro.datasets import (  # noqa: E402
    GroundTruthDriveGenerator,
    PersonSimulator,
    PrivateCarSimulator,
    SyntheticWorld,
    TaxiFleetSimulator,
    WorldConfig,
)


#: Tags every descendant of this test session (see ``_leak_guard``).
_SESSION_ENV_VAR = "SEMITRI_TEST_SESSION"


def _session_stragglers(marker: str) -> List[str]:
    """Live processes, other than this one, that carry the session marker.

    A descendant carries it in one of two ways: an exec'd one (spawn worker,
    subprocess) shows the environment variable in ``/proc/<pid>/environ``; a
    forked one — whose ``environ`` file is a copy of *our* exec-time block and
    never shows a variable set later — still holds the inherited descriptor
    of the marker file.  Either survives reparenting to pid 1, which a walk
    up the parent chain would not.  The multiprocessing resource tracker is
    exempt while it is still our own child: it lives exactly as long as we do.
    """
    tagged = f"{_SESSION_ENV_VAR}={marker}".encode()
    stragglers = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        root = f"/proc/{entry}"
        try:
            with open(f"{root}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
            if fields[0] in (b"Z", b"X"):
                continue  # exited, merely not reaped yet
            with open(f"{root}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace").strip()
            if "multiprocessing.resource_tracker" in command and int(fields[1]) == os.getpid():
                continue
            with open(f"{root}/environ", "rb") as handle:
                carries = tagged in handle.read().split(b"\0")
            if not carries:
                carries = any(
                    os.readlink(f"{root}/fd/{fd}") == marker for fd in os.listdir(f"{root}/fd")
                )
        except OSError:
            continue  # raced with its exit, or not ours to inspect
        if carries:
            stragglers.append(f"{entry} [{command}]")
    return stragglers


@pytest.fixture(scope="session", autouse=True)
def _leak_guard(tmp_path_factory):
    """Fail the run if it leaves a process or a shared-memory segment behind.

    Worker processes must die with whatever started them and every
    ``/dev/shm/semitri-*`` segment must be unlinked, whether tests pass or
    fail — an orphaned worker holds the runner's stdout open and hangs
    ``pytest | tail``.  Linux only (needs ``/proc``).
    """
    if not sys.platform.startswith("linux"):
        yield
        return
    marker = str(tmp_path_factory.mktemp("session") / "marker")
    with open(marker, "w") as handle:
        os.set_inheritable(handle.fileno(), True)
        os.environ[_SESSION_ENV_VAR] = marker
        yield
        # Workers exit asynchronously once their pipes close; allow a moment.
        deadline = time.monotonic() + 5.0
        while True:
            stragglers = _session_stragglers(marker)
            segments = glob.glob("/dev/shm/semitri-*")
            if not (stragglers or segments) or time.monotonic() > deadline:
                break
            time.sleep(0.1)
    assert not stragglers, f"processes outlived the test session: {stragglers}"
    assert not segments, f"shared-memory segments left behind: {segments}"


#: A test still running after this many seconds is failed by ``_watchdog``.
_TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def _watchdog():
    """Turn a hung test into a failure with every thread's stack.

    Arms a SIGALRM for ``_TEST_TIMEOUT_S`` around each test (its fixtures
    included); on expiry the stacks go to stderr and the test fails.  No test
    relies on it.  The previous SIGALRM handler is restored afterwards.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum: int, frame: object) -> None:
        faulthandler.dump_traceback(file=sys.__stderr__, all_threads=True)
        pytest.fail(f"test still running after {_TEST_TIMEOUT_S} s (watchdog)", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(_TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _store_invariants(monkeypatch):
    """Fail a test that leaves any store breaking one of its invariants.

    Every :class:`SemanticTrajectoryStore` the test opens runs
    ``check_invariants()`` as it closes, or at teardown if it is still open;
    any row that comes back fails the test.
    """
    from repro.store.store import SemanticTrajectoryStore

    live: List[SemanticTrajectoryStore] = []
    broken: List[object] = []
    init, close = SemanticTrajectoryStore.__init__, SemanticTrajectoryStore.close

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.append(self)

    def checked_close(self):
        if self in live:
            live.remove(self)
            broken.extend(self.check_invariants())
        close(self)

    monkeypatch.setattr(SemanticTrajectoryStore, "__init__", tracked_init)
    monkeypatch.setattr(SemanticTrajectoryStore, "close", checked_close)
    yield
    for store in live:
        broken.extend(store.check_invariants())
    if broken:
        pytest.fail(f"store invariants broken: {broken}", pytrace=False)


@pytest.fixture(scope="session")
def world() -> SyntheticWorld:
    """A compact synthetic world shared by the whole session (read-only)."""
    return SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))


@pytest.fixture(scope="session")
def region_source(world):
    """Landuse region source of the shared world."""
    return world.region_source()


@pytest.fixture(scope="session")
def road_network(world):
    """Road network of the shared world."""
    return world.road_network()


@pytest.fixture(scope="session")
def poi_source(world):
    """POI source of the shared world."""
    return world.poi_source()


@pytest.fixture(scope="session")
def annotation_sources(region_source, road_network, poi_source) -> AnnotationSources:
    """All three sources bundled for pipeline tests."""
    return AnnotationSources(regions=region_source, road_network=road_network, pois=poi_source)


@pytest.fixture()
def unpicklable_snapshot(monkeypatch):
    """Any attempt to pickle a ``GeoContext`` fails the test (fork must never need to)."""
    from repro.parallel import GeoContext

    def refuse(self, protocol):
        raise AssertionError("the snapshot was pickled on its way to a forked worker")

    monkeypatch.setattr(GeoContext, "__reduce_ex__", refuse)


@pytest.fixture(scope="session")
def taxi_dataset(world):
    """A small taxi dataset (one taxi, one day)."""
    return TaxiFleetSimulator(world, taxi_count=1, days=1, fares_per_day=4, seed=11).generate()


@pytest.fixture(scope="session")
def car_dataset(world):
    """A small private-car dataset."""
    return PrivateCarSimulator(world, car_count=8, trips_per_car=2, seed=23).generate()


@pytest.fixture(scope="session")
def people_dataset(world):
    """A small people dataset (four users, one day each)."""
    return PersonSimulator(world, user_count=4, days_per_user=1, seed=31).generate()


@pytest.fixture(scope="session")
def ground_truth_drive(world):
    """A drive with known ground-truth road segments."""
    return GroundTruthDriveGenerator(world, waypoint_count=4, noise_sigma=8.0, seed=41).generate()


@pytest.fixture(scope="session")
def pipeline_workers() -> int:
    """The ``workers=`` the pipeline-integration suite passes to
    ``repro.annotate_many``.

    ``SEMITRI_TEST_PIPELINE_EXECUTOR`` (a worker count, e.g. "4") sends those
    batches through a process pool of that many workers, so CI can run the
    suite against the parallel runtime; unset keeps the sequential executor.
    """
    return int(os.environ.get("SEMITRI_TEST_PIPELINE_EXECUTOR") or 1)


@pytest.fixture()
def vehicle_config() -> PipelineConfig:
    """The pipeline configuration for vehicle trajectories."""
    return PipelineConfig.for_vehicles()


@pytest.fixture()
def people_config() -> PipelineConfig:
    """The pipeline configuration for people trajectories."""
    return PipelineConfig.for_people()
