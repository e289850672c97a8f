"""The single public API surface of the SeMiTri reproduction.

Every supported way of running the pipeline is a function in this module,
one per job — batch, parallel batch, streaming, serving and plan compilation
all start here, and each takes its configuration as a
:class:`~repro.core.config.PipelineConfig` (``None`` for the defaults; plain
data becomes one through :meth:`PipelineConfig.from_dict`):

==================  ========================================================
entry point         what it gives you
==================  ========================================================
:func:`open_pipeline`  a :class:`SeMiTriPipeline`: the trajectory computation
                       layer (``ingest_stream``: clean, identify)
:func:`annotate`       one trajectory, annotated
:func:`annotate_many`  a batch, sequential or multi-process via ``workers``
:func:`stream`         a :class:`MicroBatchExecutor` for one online feed
:func:`serve`          an :class:`AnnotationService` multiplexing many feeds
:func:`compile_plan`   the stage-graph :class:`Plan` behind all of the above
==================  ========================================================

Nothing stands between these functions and the stage-graph engine: each one
pairs the configuration with a
:class:`~repro.parallel.context.GeoContext` snapshot (built from raw sources,
or a prebuilt one via :meth:`GeoContext.with_config
<repro.parallel.context.GeoContext.with_config>`, the one rule deciding
which config may run on it — :func:`_paired` is the only place that pairing
happens), compiles a :class:`~repro.engine.plan.Plan` from that and hands it
to an executor from :mod:`repro.engine.executors` (or hands the snapshot to
the service).  Callers who want to keep something alive across calls — a
warm worker pool, one failure log — hold the plan and the executor
themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.core.config import PipelineConfig
from repro.core.cpu import effective_cpu_count
from repro.core.episodes import Episode
from repro.core.errors import ConfigurationError
from repro.core.pipeline import AnnotationSources, PipelineResult, SeMiTriPipeline
from repro.core.points import RawTrajectory
from repro.engine.executors import MicroBatchExecutor, ProcessPoolExecutor, SequentialExecutor
from repro.engine.plan import Plan
from repro.parallel.context import GeoContext
from repro.store.store import SemanticTrajectoryStore

if TYPE_CHECKING:  # the service (asyncio, HTTP) is imported only by serve()
    from repro.service.service import AnnotationService

__all__ = [
    "annotate",
    "annotate_many",
    "compile_plan",
    "open_pipeline",
    "serve",
    "stream",
]


def _paired(
    sources: Union[AnnotationSources, GeoContext], config: Optional[PipelineConfig]
) -> GeoContext:
    """The snapshot to compile from: built from raw sources, or a snapshot
    paired with ``config`` (``None`` keeps the snapshot's own)."""
    if not isinstance(sources, GeoContext):
        return GeoContext(sources, config)
    return sources if config is None else sources.with_config(config)


def open_pipeline(config: Optional[PipelineConfig] = None) -> SeMiTriPipeline:
    """The paper's trajectory computation layer (``ingest_stream``: clean a
    GPS stream, split it into raw trajectories)."""
    return SeMiTriPipeline(config)


def annotate(
    trajectory: RawTrajectory,
    sources: Union[AnnotationSources, GeoContext],
    config: Optional[PipelineConfig] = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
) -> PipelineResult:
    """Annotate one raw trajectory.

    The region layer annotates both stops and moves, the line layer move
    episodes, the point layer stop episodes; layers without a source are
    skipped.  With ``persist`` (and a ``store``) the trajectory, its episodes
    and their annotations are written back, and the storage time is part of
    the latency profile.  A prebuilt snapshot pairs with ``config`` by the
    same rule as in :func:`stream`.
    """
    plan = Plan.compile(_paired(sources, config), store=store, persist=persist)
    return SequentialExecutor().run_one(plan, trajectory)


def annotate_many(
    trajectories: Sequence[RawTrajectory],
    sources: Optional[AnnotationSources] = None,
    config: Optional[PipelineConfig] = None,
    context: Optional[GeoContext] = None,
    workers: int = 1,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
) -> List[PipelineResult]:
    """Annotate a batch of trajectories, sequentially or across processes.

    With one worker (the default) the batch runs in process on the
    :class:`~repro.engine.SequentialExecutor`.  ``workers=0`` means the
    affinity-aware core count (:func:`~repro.core.cpu.effective_cpu_count`),
    which respects cgroup quotas and ``taskset`` pinning, and any count above
    1 shards the batch by moving object across that many processes on a
    :class:`~repro.engine.ProcessPoolExecutor` — with results (and persisted
    rows) byte-identical to the sequential run.  A prebuilt ``context``
    snapshot may stand in for ``sources`` to skip index building.

    The pool lives for this one call.  To keep it warm across batches, hold
    a ``ProcessPoolExecutor`` and a ``compile_plan(context=...)`` plan and
    call ``executor.run(plan, batch)`` yourself.
    """
    if workers < 0:
        raise ConfigurationError("workers must be at least 1 (or 0 for auto)")
    plan = compile_plan(sources, config, context=context, store=store, persist=persist)
    if workers == 0:
        workers = effective_cpu_count()
    if workers == 1:
        return SequentialExecutor().run(plan, trajectories)
    with ProcessPoolExecutor(workers=workers) as executor:
        return executor.run(plan, trajectories)


def stream(
    sources: Union[AnnotationSources, GeoContext],
    config: Optional[PipelineConfig] = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    on_result: Optional[Callable[[PipelineResult], None]] = None,
    on_episode: Optional[Callable[[Episode], None]] = None,
) -> MicroBatchExecutor:
    """The streaming executor for one ``(object_id, point)`` event feed.

    Feed it with ``ingest`` / ``ingest_many``, end streams with
    ``close_object`` / ``close_all``; counters are on ``.stats`` and the
    configuration, store, annotators and telemetry on ``.plan``.

    Delivery contract: sealing and annotating are separate steps, so a
    result does not come back from the call that closed its trajectory.
    Results arrive in seal order, through ``on_result`` and in the return
    value of whichever call flushed the executor's annotate queue — a few
    processing passes later at most.  ``flush()`` is the synchronisation
    point (``close_object(obj)`` + ``flush()`` returns that trajectory now);
    ``close_all()`` and ``evict_sessions()`` flush too.

    ``sources`` may be raw sources or a prebuilt
    :class:`~repro.parallel.context.GeoContext` snapshot; a ``config`` then
    runs on it if it differs from the snapshot's own only outside the
    sections its annotators were built from
    (:meth:`~repro.parallel.context.GeoContext.with_config`).
    """
    plan = Plan.compile(_paired(sources, config), store=store, persist=persist)
    return MicroBatchExecutor(plan, on_result=on_result, on_episode=on_episode)


def serve(
    sources: Union[AnnotationSources, GeoContext],
    config: Optional[PipelineConfig] = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    on_result: Optional[Callable[[PipelineResult], None]] = None,
) -> AnnotationService:
    """The asyncio ingestion service multiplexing many concurrent feeds.

    Returns an unstarted :class:`~repro.service.service.AnnotationService`;
    run it with ``async with serve(...) as service:`` (or ``await
    service.start()``).  ``config.service`` sizes shards, queue depths and
    the session memory budget.  For emitters speaking HTTP, wrap the service
    in an :class:`~repro.service.http.HttpIngestServer`.  A prebuilt
    snapshot pairs with ``config`` by the same rule as in :func:`stream`.
    """
    from repro.service.service import AnnotationService

    return AnnotationService(
        _paired(sources, config), store=store, persist=persist, on_result=on_result
    )


def compile_plan(
    sources: Optional[AnnotationSources] = None,
    config: Optional[PipelineConfig] = None,
    context: Optional[GeoContext] = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    layers: Optional[Sequence[str]] = None,
) -> Plan:
    """Compile the stage-graph plan every execution mode runs.

    Use ``layers`` to restrict the annotation layers compiled in (e.g.
    ``["region"]`` for a region-only pass).  Pass either ``sources`` or a
    ``context`` snapshot, whose indexes and annotators are then reused; a
    ``config`` pairs with the snapshot by the same rule as in :func:`stream`.
    """
    if context is not None and sources is not None:
        raise ConfigurationError("pass sources or a context snapshot, not both")
    snapshot = context if context is not None else sources
    if snapshot is None:
        raise ConfigurationError(
            "annotation needs geographic data: pass sources=AnnotationSources(...) "
            "or context=GeoContext.build(...)"
        )
    return Plan.compile(_paired(snapshot, config), store=store, persist=persist, layers=layers)

