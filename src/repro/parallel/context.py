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

Results come home through the one **result codec** next to it
(:func:`dump_outcome` / :func:`load_outcome`), on both process boundaries —
the batch pool's outcomes and the process shard's acks.  An annotation links
to a semantic place of a third-party source (Definitions 2 and 3), and both
ends hold the same snapshot, so a place the snapshot holds travels as its
position in :meth:`GeoContext.places` plus its ``place_id``; the receiver
hands back its own object, and refuses a reference whose ``place_id`` does
not match.  The pool's own input trajectories travel as their input order the
same way.  Anything else — a place from outside the snapshot, a subclass
instance — pickles by value.
"""

from __future__ import annotations

import copyreg
import gc
import io
import pickle
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import PipelineConfig
from repro.core.errors import SemitriError
from repro.core.pipeline import AnnotationSources, LayerAnnotators
from repro.core.places import LineOfInterest, PointOfInterest, RegionOfInterest, SemanticPlace
from repro.core.points import RawTrajectory

#: A pickler's ``dispatch_table``: type -> reducer.
_DispatchTable = Dict[type, Callable[[Any], Any]]


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
        # Built on first use: the places in codec order, and the dispatch
        # table that pickles each of them as a reference.
        self._places: Optional[Tuple[SemanticPlace, ...]] = None
        self._place_table: Optional[_DispatchTable] = None

    @classmethod
    def build(
        cls, sources: AnnotationSources, config: Optional[PipelineConfig] = None
    ) -> "GeoContext":
        """Construct a snapshot for the given sources and config."""
        return cls(sources, config)

    def __getstate__(self) -> Dict[str, Any]:
        # The place table is keyed by object identity, which a pickle does not
        # carry over: the receiving process builds its own.
        state = self.__dict__.copy()
        state["_places"] = state["_place_table"] = None
        return state

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

    def places(self) -> Tuple[SemanticPlace, ...]:
        """Every place of the snapshot: regions, road segments, POIs, in source order.

        The result codec's reference space.  Computed once; a process that
        holds the same snapshot (forked, or unpickled from it) computes the
        same sequence.
        """
        if self._places is None:
            sources = self._sources
            places: List[SemanticPlace] = []
            if sources.regions is not None:
                places.extend(sources.regions.regions)
            if sources.road_network is not None:
                places.extend(sources.road_network.segments)
            if sources.pois is not None:
                places.extend(sources.pois.pois)
            self._places = tuple(places)
        return self._places

    def _dispatch_table(self) -> _DispatchTable:
        """``copyreg``'s table plus one reducer for the three place types."""
        if self._place_table is None:
            references: Dict[int, Any] = {}
            for index, place in enumerate(self.places()):
                references.setdefault(id(place), (_snapshot_place, (index, place.place_id)))

            def reduce_place(place: SemanticPlace) -> Any:
                reference = references.get(id(place))
                if reference is None:
                    return place.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
                return reference

            table: _DispatchTable = dict(copyreg.dispatch_table)
            for kind in (RegionOfInterest, LineOfInterest, PointOfInterest):
                table[kind] = reduce_place
            self._place_table = table
        return self._place_table


# ------------------------------------------------------------------ result codec
def _snapshot_place(index: int, place_id: str) -> SemanticPlace:
    """Stands for a snapshot place in a pickle; only :func:`load_outcome` resolves it."""
    raise SemitriError("a snapshot place reference is resolved by load_outcome only")


def _input_trajectory(order: int) -> RawTrajectory:
    """Stands for an input trajectory in a pickle; only :func:`load_outcome` resolves it."""
    raise SemitriError("an input trajectory reference is resolved by load_outcome only")


def dump_outcome(
    obj: object, context: GeoContext, inputs: Iterable[Tuple[int, RawTrajectory]] = ()
) -> bytes:
    """Pickle ``obj`` with the snapshot's places — and ``inputs`` — by reference.

    ``inputs`` are ``(input order, trajectory)`` pairs the receiving side
    holds too (a pool shard's items).  Only the exact place and trajectory
    types are referenced; the reducers run once per distinct object.
    """
    table = context._dispatch_table()
    orders = {id(trajectory): (_input_trajectory, (order,)) for order, trajectory in inputs}
    if orders:

        def reduce_trajectory(trajectory: RawTrajectory) -> Any:
            reference = orders.get(id(trajectory))
            if reference is None:
                return trajectory.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
            return reference

        table = {**table, RawTrajectory: reduce_trajectory}
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = table
    pickler.dump(obj)
    return buffer.getvalue()


class _OutcomeLoader(pickle.Unpickler):
    """Resolves the codec's two reference kinds against the receiver's objects."""

    def __init__(
        self,
        data: bytes,
        places: Sequence[SemanticPlace],
        inputs: Iterable[Tuple[int, RawTrajectory]],
    ):
        super().__init__(io.BytesIO(data))
        trajectories = dict(inputs)

        def place(index: int, place_id: str) -> SemanticPlace:
            if not 0 <= index < len(places) or places[index].place_id != place_id:
                raise SemitriError(
                    f"place reference ({index}, {place_id!r}) does not match this snapshot"
                )
            return places[index]

        self._resolvers = {
            "_snapshot_place": place,
            "_input_trajectory": trajectories.__getitem__,
        }

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name in self._resolvers:
            return self._resolvers[name]
        return super().find_class(module, name)


def load_outcome(
    data: bytes, context: GeoContext, inputs: Iterable[Tuple[int, RawTrajectory]] = ()
) -> Any:
    """Unpickle what :func:`dump_outcome` wrote, onto this side's own objects.

    Raises :class:`~repro.core.errors.SemitriError` for a place reference
    whose ``place_id`` differs from this snapshot's place at that position:
    the two ends disagree about the snapshot, and re-linking would be silent
    corruption.

    The cyclic collector is paused for the load.  Until it returns, every
    object the unpickler has built is reachable from its stack or memo, so a
    collection then frees nothing: it only walks and promotes live objects,
    and those young collections are what triggers the full ones that stall a
    service process folding acks.  The caller's collector setting is
    restored, also when the load raises.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _OutcomeLoader(data, context.places(), inputs).load()
    finally:
        if collecting:
            gc.enable()


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
