"""The single public API surface of the SeMiTri reproduction.

Every supported way of running the pipeline is a function in this module —
batch, parallel batch, streaming, serving and plan compilation all start
here, and everything accepts configuration in one of three equivalent forms
(a :class:`~repro.core.config.PipelineConfig`, a plain ``dict`` routed
through :meth:`PipelineConfig.from_dict`, or ``None`` for defaults):

==================  ========================================================
entry point         what it gives you
==================  ========================================================
:func:`open_pipeline`  a :class:`SeMiTriPipeline` for batch annotation
:func:`annotate`       one trajectory, annotated (one-shot convenience)
:func:`annotate_many`  a batch, sequential or multi-process via ``workers``
:func:`stream`         a :class:`MicroBatchExecutor` for one online feed
:func:`serve`          an :class:`AnnotationService` multiplexing many feeds
:func:`compile_plan`   the stage-graph :class:`Plan` behind all of the above
==================  ========================================================

Nothing stands between these functions and the stage-graph engine: each one
resolves the configuration, pairs it with a
:class:`~repro.parallel.context.GeoContext` snapshot (built from raw sources,
or a prebuilt one via :meth:`GeoContext.with_config
<repro.parallel.context.GeoContext.with_config>`, the one rule deciding
which config may run on it), compiles a :class:`~repro.engine.plan.Plan` from
that and hands it to an executor from :mod:`repro.engine.executors` (or to
the service).  Callers who want to keep something alive across calls — a
warm worker pool, one failure log — hold the plan and the executor
themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Mapping, Optional, Sequence, Union

from repro.core.config import ParallelConfig, PipelineConfig
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

#: Config in any accepted spelling: a built object, a ``to_dict``-shaped
#: mapping, or ``None`` for defaults.
ConfigLike = Union[PipelineConfig, Mapping[str, object], None]


def _resolve_config(
    config: ConfigLike, overrides: Optional[Mapping[str, object]] = None
) -> PipelineConfig:
    """Build a validated :class:`PipelineConfig` from any accepted spelling."""
    if isinstance(config, PipelineConfig):
        return config.with_overrides(overrides) if overrides else config
    return PipelineConfig.from_dict(config, overrides=overrides)


def _paired(
    sources: Union[AnnotationSources, GeoContext],
    config: ConfigLike,
    overrides: Optional[Mapping[str, object]],
) -> GeoContext:
    """The snapshot to compile from: built from raw sources, or a snapshot
    paired with ``config``/``overrides`` (applied on top of its own config)."""
    if not isinstance(sources, GeoContext):
        return GeoContext(sources, _resolve_config(config, overrides))
    if config is None and overrides is None:
        return sources
    base = sources.config if config is None else config
    return sources.with_config(_resolve_config(base, overrides))


def open_pipeline(
    config: ConfigLike = None,
    store: Optional[SemanticTrajectoryStore] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> SeMiTriPipeline:
    """A batch annotation pipeline (the paper's offline mode).

    ``config`` may be a :class:`PipelineConfig`, a ``dict`` in
    :meth:`PipelineConfig.to_dict` shape, or ``None``; dotted ``overrides``
    (e.g. ``{"stop_move.velocity_threshold": 1.2}``) apply on top either way.
    """
    return SeMiTriPipeline(_resolve_config(config, overrides), store=store)


def annotate(
    trajectory: RawTrajectory,
    sources: AnnotationSources,
    config: ConfigLike = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    overrides: Optional[Mapping[str, object]] = None,
) -> PipelineResult:
    """Annotate one raw trajectory (one-shot convenience over a pipeline)."""
    return open_pipeline(config, store=store, overrides=overrides).annotate(
        trajectory, sources, persist=persist
    )


def annotate_many(
    trajectories: Sequence[RawTrajectory],
    sources: Optional[AnnotationSources] = None,
    config: ConfigLike = None,
    context: Optional[GeoContext] = None,
    workers: Optional[int] = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    overrides: Optional[Mapping[str, object]] = None,
) -> List[PipelineResult]:
    """Annotate a batch of trajectories, sequentially or across processes.

    With ``workers`` unset (or 1, the config default) the batch runs in
    process on the :class:`~repro.engine.SequentialExecutor`.  ``workers=0``
    resolves to the effective core count, and any count above 1 shards the
    batch by moving object across that many processes on a
    :class:`~repro.engine.ProcessPoolExecutor` — with results (and persisted
    rows) byte-identical to the sequential run.  A prebuilt ``context``
    snapshot may stand in for ``sources`` to skip index building.

    The pool lives for this one call.  To keep it warm across batches, hold
    a ``ProcessPoolExecutor`` and a ``compile_plan(context=...)`` plan and
    call ``executor.run(plan, batch)`` yourself.
    """
    plan = compile_plan(
        sources, config, context=context, store=store, persist=persist, overrides=overrides
    )
    if workers is None:
        workers = plan.config.parallel.workers
    workers = ParallelConfig(workers=workers).resolved_workers
    if workers == 1:
        return SequentialExecutor().run(plan, trajectories)
    with ProcessPoolExecutor(workers=workers) as executor:
        return executor.run(plan, trajectories)


def stream(
    sources: Union[AnnotationSources, GeoContext],
    config: ConfigLike = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    on_result: Optional[Callable[[PipelineResult], None]] = None,
    on_episode: Optional[Callable[[Episode], None]] = None,
    overrides: Optional[Mapping[str, object]] = None,
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
    :class:`~repro.parallel.context.GeoContext` snapshot; ``config`` /
    ``overrides`` then apply on top of the snapshot's config, and may not
    touch the sections its annotators were built from.
    """
    plan = Plan.compile(_paired(sources, config, overrides), store=store, persist=persist)
    return MicroBatchExecutor(plan, on_result=on_result, on_episode=on_episode)


def serve(
    sources: Union[AnnotationSources, GeoContext],
    config: ConfigLike = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    on_result: Optional[Callable[[PipelineResult], None]] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> AnnotationService:
    """The asyncio ingestion service multiplexing many concurrent feeds.

    Returns an unstarted :class:`~repro.service.service.AnnotationService`;
    run it with ``async with serve(...) as service:`` (or ``await
    service.start()``).  ``config.service`` sizes shards, queue depths and
    the session memory budget.  For emitters speaking HTTP, wrap the service
    in an :class:`~repro.service.http.HttpIngestServer`.
    """
    from repro.service.service import AnnotationService

    return AnnotationService(
        _paired(sources, config, overrides), store=store, persist=persist, on_result=on_result
    )


def compile_plan(
    sources: Optional[AnnotationSources] = None,
    config: ConfigLike = None,
    context: Optional[GeoContext] = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    layers: Optional[Sequence[str]] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> Plan:
    """Compile the stage-graph plan every execution mode runs.

    Use ``layers`` to restrict the annotation layers compiled in (e.g.
    ``["region"]`` for a region-only pass).  Pass either ``sources`` or a
    ``context`` snapshot, whose indexes and annotators are then reused;
    ``config`` / ``overrides`` apply on top of the snapshot's config and may
    not touch the sections its annotators were built from.
    """
    if context is not None and sources is not None:
        raise ConfigurationError("pass sources or a context snapshot, not both")
    snapshot = context if context is not None else sources
    if snapshot is None:
        raise ConfigurationError(
            "annotation needs geographic data: pass sources=AnnotationSources(...) "
            "or context=GeoContext.build(...)"
        )
    return Plan.compile(
        _paired(snapshot, config, overrides), store=store, persist=persist, layers=layers
    )

