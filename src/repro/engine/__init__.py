"""Stage-graph execution engine: one dataflow, pluggable executors.

The SeMiTri pipeline (Figure 2) is a single dataflow — clean, identify,
compute episodes, then the region / line / point annotation layers with
optional store write-back.  This package is the one place that dataflow
lives:

* :mod:`repro.engine.stages` — every step as a typed :class:`Stage` with
  declared inputs/outputs and one protocol (a group of sealed episodes,
  then close-time work) that batch chunks and streaming flushes share;
* :mod:`repro.engine.plan` — :class:`Plan`, compiled from a
  :class:`~repro.core.config.PipelineConfig` plus the available
  :class:`~repro.core.pipeline.AnnotationSources` (layers without a source
  are simply not compiled in), with compile-time wiring validation;
* :mod:`repro.engine.executors` — :class:`SequentialExecutor`,
  :class:`ProcessPoolExecutor` (sharded, input-order merged) and
  :class:`MicroBatchExecutor` (the streaming session loop), all emitting the
  same per-stage latency profile and all canonically byte-identical (see
  :mod:`repro.parallel.canonical`).

Nothing wraps the executors, and :mod:`repro.api` is the only door to them:
:func:`repro.api.annotate` and :func:`repro.api.annotate_many` compile a plan
and run the sequential or the process-pool executor, and
:func:`repro.api.stream` returns the :class:`MicroBatchExecutor` itself.
:class:`~repro.core.pipeline.SeMiTriPipeline` (the paper's pipeline object)
only cleans and splits raw streams; it compiles no plan.
"""

from repro.engine.executors import (
    EngineStats,
    MicroBatchExecutor,
    ProcessPoolExecutor,
    SequentialExecutor,
    merge_shard_results,
    run_stages,
    shard_by_object,
)
from repro.engine.plan import ANNOTATION_LAYERS, Plan
from repro.engine.stages import (
    CleanStage,
    ComputeEpisodesStage,
    IdentifyStage,
    MapMatchStage,
    PoiAnnotationStage,
    PreprocessingStage,
    RegionJoinStage,
    Stage,
    StoreEpisodesStage,
    StoreTrajectoryStage,
    WorkItem,
)

__all__ = [
    "ANNOTATION_LAYERS",
    "CleanStage",
    "ComputeEpisodesStage",
    "EngineStats",
    "IdentifyStage",
    "MapMatchStage",
    "MicroBatchExecutor",
    "Plan",
    "PoiAnnotationStage",
    "PreprocessingStage",
    "ProcessPoolExecutor",
    "RegionJoinStage",
    "SequentialExecutor",
    "Stage",
    "StoreEpisodesStage",
    "StoreTrajectoryStage",
    "WorkItem",
    "merge_shard_results",
    "run_stages",
    "shard_by_object",
]
