"""Stage-graph execution engine: one dataflow, pluggable executors.

The SeMiTri pipeline (Figure 2) is a single dataflow — clean, identify,
compute episodes, then the region / line / point annotation layers with
optional store write-back.  This package is the one place that dataflow
lives:

* :mod:`repro.engine.stages` — every step as a typed :class:`Stage` with
  declared inputs/outputs, carrying both its batch body and its streaming
  (per-sealed-episode / at-close) protocol;
* :mod:`repro.engine.plan` — :class:`Plan`, compiled from a
  :class:`~repro.core.config.PipelineConfig` plus the available
  :class:`~repro.core.pipeline.AnnotationSources` (layers without a source
  are simply not compiled in), with compile-time wiring validation;
* :mod:`repro.engine.executors` — :class:`SequentialExecutor`,
  :class:`ProcessPoolExecutor` (sharded, input-order merged) and
  :class:`MicroBatchExecutor` (the streaming session loop), all emitting the
  same per-stage latency profile and all canonically byte-identical (see
  :mod:`repro.parallel.canonical`).

Nothing wraps the executors: :func:`repro.api.annotate_many` compiles a plan
and runs the sequential or the process-pool executor,
:func:`repro.api.stream` returns the :class:`MicroBatchExecutor` itself, and
:class:`~repro.core.pipeline.SeMiTriPipeline` (the paper's pipeline object)
compiles plans for the sequential executor.
"""

from repro.engine.executors import (
    EngineStats,
    Executor,
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
    "Executor",
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
