"""Immutable geographic context snapshot shared by annotation workers.

Every annotation layer leans on a prebuilt spatial structure — the flat
indexes of the region, road-network and POI sources and the HMM observation
model.  :class:`GeoContext` captures all of it **once**: the annotation
sources, the pipeline configuration and the annotator bundle constructed from
them.  The sources pack their indexes when they are constructed and cannot
change afterwards, so the snapshot is read-only by construction.

A worker process is handed the snapshot as an argument: for free under
``fork`` (copy-on-write pages are never written), as the pickle
``multiprocessing`` makes of it under ``spawn``; either way each worker
annotates against the same indexes instead of rebuilding them per call, which
is what turns per-user sharding into a real scale-out axis.
"""

from __future__ import annotations

import pickle
from typing import List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.core.pipeline import AnnotationSources, LayerAnnotators


class GeoContext:
    """A read-only bundle of sources, configuration and prebuilt annotators."""

    def __init__(
        self,
        sources: AnnotationSources,
        config: Optional[PipelineConfig] = None,
        annotators: Optional[LayerAnnotators] = None,
    ):
        if config is None:
            config = PipelineConfig()  # per call: reads the environment now
        self._sources = sources
        self._config = config
        self._annotators = (
            annotators if annotators is not None else LayerAnnotators.build(sources, config)
        )

    @classmethod
    def build(
        cls, sources: AnnotationSources, config: Optional[PipelineConfig] = None
    ) -> "GeoContext":
        """Construct a snapshot for the given sources and config."""
        return cls(sources, config)

    # ------------------------------------------------------------- properties
    @property
    def sources(self) -> AnnotationSources:
        """The annotation sources the snapshot was built from."""
        return self._sources

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration baked into the snapshot."""
        return self._config

    @property
    def annotators(self) -> LayerAnnotators:
        """The prebuilt layer annotators (indexes, observation model, HMM)."""
        return self._annotators

    def available_layers(self) -> List[str]:
        """Names of the annotation layers the snapshot can run."""
        return self._sources.available_layers()


class _PickledContext:
    """What :func:`share_context` returns: ``spec`` is the snapshot's pickle."""

    def __init__(self, spec: bytes):
        self.spec = spec

    def close(self) -> None:
        """A pickle holds nothing to release."""


# Called by nothing under ``src/repro``: the frozen ``bench/layers.py`` probe
# imports both names in every traced run.  They go with it (ROADMAP item 1(a)).
def share_context(context: GeoContext) -> _PickledContext:
    """The snapshot as ``multiprocessing`` hands it to a spawned worker."""
    return _PickledContext(pickle.dumps(context, pickle.HIGHEST_PROTOCOL))


def attach_context(spec: bytes) -> Tuple[GeoContext, None]:
    """What the spawned worker rebuilds from it (and no handle to keep alive)."""
    return pickle.loads(spec), None
