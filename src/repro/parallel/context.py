"""Immutable geographic context snapshot shared by annotation workers.

Every annotation layer leans on a prebuilt spatial structure — the flat
indexes of the region, road-network and POI sources and the HMM observation
model.  :class:`GeoContext` captures all of it **once**: the annotation
sources, the pipeline configuration and the annotator bundle constructed from
them.  The sources pack their indexes when they are constructed and cannot
change afterwards, so the snapshot is read-only by construction.

Such a snapshot can be shared with worker processes for free under ``fork``
(copy-on-write pages are never written) or through one shared-memory segment
under ``spawn``; either way each worker annotates against the same indexes
instead of rebuilding them per call, which is what turns per-user sharding
into a real scale-out axis.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

import numpy as np

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

    def precompiled_blocks(self) -> "OrderedDict[str, np.ndarray]":
        """The snapshot's contiguous numpy blocks, by stable human-readable name.

        The arrays worth sharing with workers: the flat-index
        level/entry/segment columns of every source plus the map matcher's
        id-rank column.  :func:`repro.parallel.shared.share_context`
        uses the names for its shared-memory manifest (arrays reached only
        through other attributes still get exported, under generated names);
        tests use them to assert the worker-side views are genuinely
        zero-copy.
        """
        blocks: "OrderedDict[str, np.ndarray]" = OrderedDict()
        sources = self._sources
        for prefix, source in (
            ("regions", sources.regions),
            ("road_network", sources.road_network),
            ("pois", sources.pois),
        ):
            if source is not None:
                for key, array in source.flat_index().array_blocks().items():
                    blocks[f"{prefix}.flat.{key}"] = array
        if sources.road_network is not None:
            # The endpoint columns of segment_arrays() are the flat index's
            # own, named above.
            blocks["road_network.arrays.id_ranks"] = (
                sources.road_network.segment_arrays().id_ranks
            )
        return blocks
