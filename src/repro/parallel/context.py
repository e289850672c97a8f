"""Immutable geographic context snapshot shared by annotation workers.

Every annotation layer leans on a prebuilt spatial structure — the region
R-tree, the road-network R-tree, the POI grid and the HMM observation model —
and building them is the expensive part of :meth:`LayerAnnotators.build`.
:class:`GeoContext` captures all of it **once**: the annotation sources, the
pipeline configuration and the annotator bundle constructed from them, with
every underlying index frozen so the snapshot is genuinely read-only.

A frozen snapshot can be shared with worker processes for free under ``fork``
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
        for source in (sources.regions, sources.road_network, sources.pois):
            if source is not None:
                source.freeze()
        # Pre-compile the flat batch indexes once: the snapshot ships them to
        # workers (free under fork, one shared segment under spawn) and the
        # streaming engine shares them, instead of each compiling a copy lazily.
        if sources.regions is not None:
            sources.regions.flat_index()
        if sources.road_network is not None:
            sources.road_network.flat_index()
            # The columnar map matcher's per-row columns, so that no timed
            # match builds them.
            sources.road_network.segment_arrays()
        if sources.pois is not None:
            sources.pois.flat_index()

    @classmethod
    def build(
        cls, sources: AnnotationSources, config: Optional[PipelineConfig] = None
    ) -> "GeoContext":
        """Construct (and freeze) a snapshot for the given sources and config."""
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

        Exactly the arrays ``__init__`` pre-compiles for worker sharing: the
        flat-index level/entry/segment columns of every source plus the map
        matcher's id-rank column.  :func:`repro.parallel.shared.share_context`
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
