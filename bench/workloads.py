"""The four workloads: the same events through four successively thicker paths.

Each workload sets the program up ``SETUP_REPS`` times, computes the
sequential reference outside every timed window, runs its timed phases inside
a watchdog, and checks every output it produced.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro import api
from repro.core.pipeline import PipelineResult
from repro.parallel import GeoContext
from repro.service.service import AnnotationService
from repro.store.store import SemanticTrajectoryStore

from bench import stats
from bench.fleet import (
    Inputs,
    Ledger,
    Reference,
    build_context,
    expected_rows,
    pipeline_config,
    sequential,
)
from bench.loadgen import OpenLoopReport, closed_loop, open_loop
from bench.trace import SpanRecorder

#: Set-ups per run; ``setup_s`` is taken over them.
SETUP_REPS = 12
#: Fewest timed repetitions (or closed-loop passes) whatever the time budget.
MIN_REPS = 3
#: Trajectories per store transaction on ``batch_store``.
TX_TRAJECTORIES = 64
#: A phase that runs longer than this fails the run instead of hanging it.
PHASE_TIMEOUT_S = 150

Metrics = Dict[str, Tuple[float, str]]
T = TypeVar("T")


# ------------------------------------------------------------------------- hygiene
class PhaseTimeout(RuntimeError):
    """A phase outlived its watchdog."""


def child_pids() -> List[int]:
    """Live direct children of this process (zombies included), read from /proc."""
    own = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == own:
            found.append(int(entry))
    return found


def _give_up(signum: int, frame: object) -> None:
    """Clean-up after a timeout hung too: kill the children and leave."""
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    os._exit(3)


@contextmanager
def watchdog(phase: str, seconds: int = PHASE_TIMEOUT_S) -> Iterator[None]:
    """Raise :class:`PhaseTimeout` in the main thread when ``phase`` overruns.

    The ``finally`` blocks of the phase then shut services down; if that hangs
    as well, a second alarm kills the children and exits.
    """

    def expire(signum: int, frame: object) -> None:
        signal.signal(signal.SIGALRM, _give_up)
        signal.alarm(30)
        raise PhaseTimeout(f"{phase} exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Workdir:
    """Scratch space inside the checkout; every journal and store file lives here."""

    def __init__(self, parent: Path):
        self.root = parent / f"run-{os.getpid()}"
        self._count = 0

    def fresh(self) -> Path:
        self._count += 1
        path = self.root / str(self._count)
        path.mkdir(parents=True)
        return path

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ---------------------------------------------------------------------------- rungs
@dataclass(frozen=True)
class Rung:
    """One placement of the service: where shards run and what makes it durable."""

    name: str
    transport: str
    shards: int
    journal: bool
    store: bool


SERVICE_THREAD = Rung("service_thread", "thread", 1, journal=False, store=False)
SERVICE_DURABLE = Rung("service_durable", "process", 2, journal=True, store=True)
#: The two rungs no workload runs; the traced run adds them so the ladder closes.
THREAD_JOURNAL = Rung("thread_journal", "thread", 1, journal=True, store=False)
PROCESS_ONE = Rung("process_one", "process", 1, journal=False, store=False)


class TimedStore(SemanticTrajectoryStore):
    """The on-disk store, with its batched write (the drain-time commit) timed."""

    def __init__(self, path: str):
        super().__init__(path)
        self.commit_s = 0.0

    def save_annotated_trajectories(self, items, store_points: bool = True):
        started = time.perf_counter()
        try:
            return super().save_annotated_trajectories(items, store_points)
        finally:
            self.commit_s += time.perf_counter() - started


def rung_context(rung: Rung, inputs: Inputs, directory: Path) -> GeoContext:
    journal_dir = str(directory / "wal") if rung.journal else ""
    return build_context(inputs, pipeline_config(rung.transport, rung.shards, journal_dir))


def open_service(
    rung: Rung,
    context: GeoContext,
    directory: Path,
    on_result: Optional[Callable[[PipelineResult], None]] = None,
) -> Tuple[AnnotationService, Optional[TimedStore]]:
    store = TimedStore(str(directory / "store.db")) if rung.store else None
    service = api.serve(context, store=store, persist=rung.store, on_result=on_result)
    return service, store


async def close_service(service: AnnotationService, store: Optional[TimedStore]) -> None:
    try:
        await service.shutdown()
    finally:
        if store is not None:
            store.close()


@dataclass
class PassReport:
    """One service instance from start to shutdown."""

    wall_s: float
    """First accept to ``drain()`` return."""
    drain_s: float
    results: List[PipelineResult]
    worker_rss_mb: float
    backpressure_waits: int
    batches: int
    ipc_frames: float
    ipc_bytes: float
    worker_restarts: float
    commit_s: float
    queue_depth_max: int
    open_loop: Optional[OpenLoopReport]
    sealed_at: Dict[str, float] = field(default_factory=dict)
    """When each trajectory's ``on_result`` callback ran."""


def _spanned(recorder: SpanRecorder, name: str, call: Callable) -> Callable:
    """``call(object_id, ...)`` with a span (trace id = object id) around the await."""

    async def spanned(object_id: str, *args: object) -> None:
        called = time.perf_counter()
        await call(object_id, *args)
        recorder.add(name, object_id, called, time.perf_counter())

    return spanned


async def _service_pass(
    rung: Rung,
    context: GeoContext,
    inputs: Inputs,
    reference: Reference,
    directory: Path,
    ledger: Ledger,
    rate: Optional[float],
    recorder: Optional[SpanRecorder],
) -> PassReport:
    """With a ``recorder``: spans around ``ingest``/``close_object``/``drain`` and
    ``on_result`` markers.  Open loop: the shard queue depths are sampled every
    5 ms (the generator sleeps between ticks anyway; in the closed loop a
    sampler's wake-ups would change when the consumers get to run)."""
    sealed_at: Dict[str, float] = {}

    def on_result(result: PipelineResult) -> None:
        sealed_at[result.trajectory.trajectory_id] = time.perf_counter()

    service, store = open_service(rung, context, directory, on_result)
    depth = [0]

    async def sample() -> None:
        while True:
            depth[0] = max(depth[0], *service.queue_depths())
            await asyncio.sleep(0.005)

    try:
        await service.start()
        sampler = asyncio.create_task(sample()) if rate else None
        ingest, close = service.ingest, service.close_object
        if recorder is not None:
            ingest = _spanned(recorder, "ingest", ingest)
            close = _spanned(recorder, "close_object", close)
        started = time.perf_counter()
        try:
            if rate:
                report = await open_loop(inputs.ops, rate, ingest, close)
            else:
                report = None
                await closed_loop(inputs.ops, ingest, close)
        finally:
            if sampler is not None:
                sampler.cancel()
                await asyncio.gather(sampler, return_exceptions=True)
        drain_started = time.perf_counter()
        results = await service.drain()
        finished = time.perf_counter()
        if recorder is not None:
            recorder.add("drain", rung.name, drain_started, finished)
            for trajectory_id, sealed in sealed_at.items():
                recorder.add("on_result", trajectory_id, sealed, sealed)
        worker_rss = sum(stats.process_peak_rss_mb(pid) for pid in service.worker_pids)

        what = f"{rung.name} {'open' if rate else 'closed'} loop"
        accepted = service.stats.events + service.stats.closed_objects
        ledger.count(
            f"{what} operations",
            len(inputs.ops),
            abs(len(inputs.ops) - accepted) + service.dropped_events,
        )
        ledger.trajectories(what, reference, results)
        committed = store.trajectory_count() if store is not None else len(results)
        balance = committed + service.quarantined_count + service.open_session_count
        ledger.count(
            f"{what} conservation (sealed {len(reference.digests)} = committed {committed}"
            f" + quarantined {service.quarantined_count} + open {service.open_session_count})",
            1,
            int(balance != len(reference.digests) or service.quarantined_count > 0),
        )
        if store is not None:
            ledger.store_rows(what, reference.store_rows, store)

        shards = [service.metrics.shard(index) for index in range(service.shard_count)]
        return PassReport(
            wall_s=finished - started,
            drain_s=finished - drain_started,
            results=results,
            worker_rss_mb=worker_rss,
            backpressure_waits=service.stats.backpressure_waits,
            batches=service.stats.batches,
            ipc_frames=sum(shard.ipc_frames.value for shard in shards),
            ipc_bytes=sum(shard.ipc_bytes.value for shard in shards),
            worker_restarts=sum(shard.worker_restarts.value for shard in shards),
            commit_s=store.commit_s if store is not None else 0.0,
            queue_depth_max=depth[0],
            open_loop=report,
            sealed_at=sealed_at,
        )
    finally:
        await close_service(service, store)


def run_pass(
    rung: Rung,
    inputs: Inputs,
    reference: Reference,
    workdir: Workdir,
    ledger: Ledger,
    rate: Optional[float] = None,
    recorder: Optional[SpanRecorder] = None,
    measure: Optional["Repetitions"] = None,
) -> PassReport:
    """One fresh service fed ``inputs`` closed loop (or open loop at ``rate``).

    The snapshot is built first; with ``measure`` the pass itself, ``start()``
    to the end of ``shutdown()``, is recorded as one repetition; with
    ``recorder`` it is traced.
    """
    directory = workdir.fresh()
    context = rung_context(rung, inputs, directory)

    def body() -> Tuple[PassReport, float]:
        report = asyncio.run(
            _service_pass(rung, context, inputs, reference, directory, ledger, rate, recorder)
        )
        return report, report.wall_s

    with watchdog(f"{rung.name} pass"):
        return measure.record(body) if measure is not None else body()[0]


# ------------------------------------------------------------------- repetitions
@dataclass
class Repetitions:
    """Timed repetitions of one workload, each bracketed by the calibration kernel.

    Every repetition yields events/s, CPU seconds per 1,000 events and the
    machine's slowdown around it; a run reports the median of the
    interference-corrected values (see ``stats.kernel_seconds``).
    """

    events: int
    rates: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    slowdowns: List[float] = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter)

    def record(self, body: Callable[[], Tuple[T, float]]) -> T:
        """Run ``body`` — it returns its value and the wall seconds that count."""

        def with_cpu() -> Tuple[T, float, float]:
            cpu = stats.cpu_seconds()
            value, wall_s = body()
            return value, wall_s, stats.cpu_seconds() - cpu

        (value, wall_s, cpu_s), slowdown = stats.bracketed(with_cpu)
        self.slowdowns.append(slowdown)
        self.rates.append(self.events / wall_s)
        self.cpus.append(cpu_s / self.events * 1e3)
        return value

    def wanted(self, budget_s: float) -> bool:
        """Whether another repetition still fits the budget (``MIN_REPS`` always run)."""
        if len(self.rates) < MIN_REPS:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + 0.5 * (elapsed / len(self.rates)) < budget_s

    def metrics(
        self, ledger: Ledger, setups: List[Tuple[float, float]], worker_rss_mb: float
    ) -> Metrics:
        """The end-to-end metrics every workload reports, and what is behind them."""
        ledger.samples.update(
            events_per_s=self.rates,
            cpu_s_per_kevent=self.cpus,
            slowdown=self.slowdowns,
            setup_s=[seconds for seconds, _ in setups],
            setup_slowdown=[factor for _, factor in setups],
        )
        pairs = list(zip(self.rates, self.cpus, self.slowdowns))
        return {
            "setup_s": (stats.median(seconds / factor for seconds, factor in setups), "s"),
            "events_per_s": (stats.median(rate * factor for rate, _, factor in pairs), "1/s"),
            "cpu_s_per_kevent": (
                stats.median(cpu / factor for _, cpu, factor in pairs), "s/kevent"
            ),
            "peak_rss_mb": (stats.own_peak_rss_mb() + worker_rss_mb, "MB"),
            "repetitions": (float(len(pairs)), "count"),
            "events_per_s_raw": (stats.median(self.rates), "1/s"),
            "machine_slowdown": (stats.median(self.slowdowns), "ratio"),
        }


def _wall(body: Callable[[], T]) -> Tuple[T, float]:
    started = time.perf_counter()
    value = body()
    return value, time.perf_counter() - started


# -------------------------------------------------------------------------- set-up
def setup_batch(inputs: Inputs, workdir: Workdir) -> float:
    """Seconds from the raw map to a pipeline and an open on-disk store."""
    started = time.perf_counter()
    context = build_context(inputs, pipeline_config())
    api.open_pipeline(context.config)
    store = SemanticTrajectoryStore(str(workdir.fresh() / "store.db"))
    elapsed = time.perf_counter() - started
    store.close()
    return elapsed


def setup_stream(inputs: Inputs) -> float:
    """Seconds from the raw map to the engine having taken its first event."""
    started = time.perf_counter()
    engine = api.stream(build_context(inputs, pipeline_config()))
    engine.ingest(*inputs.ops[0])
    return time.perf_counter() - started


def setup_service(rung: Rung, inputs: Inputs, workdir: Workdir) -> float:
    """Seconds from the raw map to ``ingest()`` of the first event returning."""

    async def start_and_accept(context: GeoContext, directory: Path) -> float:
        service, store = open_service(rung, context, directory)
        try:
            await service.start()
            await service.ingest(*inputs.ops[0])
            return time.perf_counter()
        finally:
            await close_service(service, store)

    directory = workdir.fresh()
    started = time.perf_counter()
    context = rung_context(rung, inputs, directory)
    return asyncio.run(start_and_accept(context, directory)) - started


def _setups(what: str, once: Callable[[], float]) -> List[Tuple[float, float]]:
    """``SETUP_REPS`` set-ups, each as ``(seconds, machine slowdown around it)``."""
    with watchdog(f"{what} set-up"):
        return [stats.bracketed(once) for _ in range(SETUP_REPS)]


# ----------------------------------------------------------------------- workloads
def _reference(inputs: Inputs) -> Tuple[GeoContext, Reference]:
    """The snapshot the timed repetitions use and what the sequential pipeline makes
    of the inputs — computed once, outside every timed window."""
    context = build_context(inputs, pipeline_config())
    return context, Reference.build(inputs, sequential(context, inputs))


@dataclass
class StoreLeg:
    """Timings of one write + read-back of a result set on an on-disk store."""

    rows: int
    trajectories: int
    write_s: float
    read_s: float
    load_trajectory_s: float
    episodes_for_s: float


def store_leg(results: List[PipelineResult], workdir: Workdir, ledger: Ledger) -> StoreLeg:
    """Write ``results`` in ``TX_TRAJECTORIES``-sized transactions to a fresh on-disk
    store, reopen it, read everything back and reconcile the row counts."""
    path = str(workdir.fresh() / "store.db")
    pairs = [(result.trajectory, result.episodes) for result in results]
    expected = expected_rows(results)
    store = SemanticTrajectoryStore(path)
    try:
        started = time.perf_counter()
        for offset in range(0, len(pairs), TX_TRAJECTORIES):
            store.save_annotated_trajectories(pairs[offset : offset + TX_TRAJECTORIES])
        write_s = time.perf_counter() - started
    finally:
        store.close()
    store = SemanticTrajectoryStore(path)
    try:
        read = {"gps_record_count": 0, "episode_count": 0, "annotation_count": 0}
        load_s = episodes_s = 0.0
        started = time.perf_counter()
        trajectory_ids = store.trajectory_ids()
        for trajectory_id in trajectory_ids:
            asked = time.perf_counter()
            trajectory = store.load_trajectory(trajectory_id)
            loaded = time.perf_counter()
            episodes = store.episodes_for(trajectory_id)
            listed = time.perf_counter()
            load_s += loaded - asked
            episodes_s += listed - loaded
            read["gps_record_count"] += len(trajectory)
            read["episode_count"] += len(episodes)
            read["annotation_count"] += sum(
                len(store.annotations_for(episode["episode_id"])) for episode in episodes
            )
        histogram = store.category_histogram()
        summary = store.stop_move_summary()
        read_s = time.perf_counter() - started
        ledger.store_rows("batch_store", expected, store)
        read["trajectory_count"] = len(trajectory_ids)
        wrong = [name for name, count in expected.items() if read[name] != count]
        wrong += ["histogram"] * (sum(histogram.values()) > expected["annotation_count"])
        wrong += ["summary"] * (
            summary["stops"] + summary["moves"] != expected["episode_count"]
        )
        ledger.count(f"batch_store read-back {wrong}", len(expected) + 2, len(wrong))
    finally:
        store.close()
    return StoreLeg(
        rows=sum(expected.values()),
        trajectories=len(results),
        write_s=write_s,
        read_s=read_s,
        load_trajectory_s=load_s,
        episodes_for_s=episodes_s,
    )


def store_metrics(leg: StoreLeg) -> Metrics:
    return {
        "store_write_rows_per_s": (leg.rows / leg.write_s, "1/s"),
        "store_read_trajectories_per_s": (leg.trajectories / leg.read_s, "1/s"),
        "store.load_trajectory_us": (leg.load_trajectory_s / leg.trajectories * 1e6, "us"),
        "store.episodes_for_us": (leg.episodes_for_s / leg.trajectories * 1e6, "us"),
    }


def batch_store(inputs: Inputs, seconds: float, workdir: Workdir, ledger: Ledger) -> Metrics:
    """Sequential ``ingest_stream`` + ``annotate_many``, then store write and read-back."""
    setups = _setups("batch_store", lambda: setup_batch(inputs, workdir))
    context, reference = _reference(inputs)

    results = reference.results
    with watchdog("batch_store annotate"):
        reps = Repetitions(inputs.events)
        while reps.wanted(seconds):
            results = reps.record(lambda: _wall(lambda: sequential(context, inputs)))
            ledger.count("batch_store events", inputs.events)
            ledger.trajectories("batch_store repetition", reference, results)
    with watchdog("batch_store store"):
        leg = store_leg(results, workdir, ledger)
    metrics = reps.metrics(ledger, setups, 0.0)
    metrics.update(store_metrics(leg))
    return metrics


def stream_pass(
    context: GeoContext, inputs: Inputs, on_result: Callable[[PipelineResult], None]
) -> float:
    """Feed the interleaved fleet event by event, unpaced; returns wall seconds."""
    engine = api.stream(context, on_result=on_result)
    ingest, close = engine.ingest, engine.close_object
    started = time.perf_counter()
    for object_id, point in inputs.ops:
        if point is None:
            close(object_id)
        else:
            ingest(object_id, point)
    engine.close_all()
    return time.perf_counter() - started


def stream_engine(inputs: Inputs, seconds: float, workdir: Workdir, ledger: Ledger) -> Metrics:
    """The streaming engine fed event by event from one thread, unpaced."""
    setups = _setups("stream_engine", lambda: setup_stream(inputs))
    context, reference = _reference(inputs)

    with watchdog("stream_engine"):
        reps = Repetitions(inputs.events)
        while reps.wanted(seconds):
            results: List[PipelineResult] = []
            reps.record(lambda: (None, stream_pass(context, inputs, results.append)))
            ledger.count("stream_engine operations", len(inputs.ops))
            ledger.trajectories("stream_engine repetition", reference, results)
    return reps.metrics(ledger, setups, 0.0)


def service(
    rung: Rung, inputs: Inputs, seconds: float, workdir: Workdir, ledger: Ledger
) -> Metrics:
    """Closed-loop passes of the whole fleet, each on a fresh service."""
    setups = _setups(rung.name, lambda: setup_service(rung, inputs, workdir))
    _, reference = _reference(inputs)
    drains: List[float] = []
    worker_rss_mb = 0.0
    reps = Repetitions(inputs.events)
    while reps.wanted(seconds):
        report = run_pass(rung, inputs, reference, workdir, ledger, measure=reps)
        drains.append(report.drain_s)
        worker_rss_mb = max(worker_rss_mb, report.worker_rss_mb)
    metrics = reps.metrics(ledger, setups, worker_rss_mb)
    metrics["drain_s"] = (stats.median(drains), "s")
    return metrics


WORKLOADS: Dict[str, Callable[[Inputs, float, Workdir, Ledger], Metrics]] = {
    "batch_store": batch_store,
    "stream_engine": stream_engine,
    "service_thread": lambda *args: service(SERVICE_THREAD, *args),
    "service_durable": lambda *args: service(SERVICE_DURABLE, *args),
}
