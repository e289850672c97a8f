"""The result codec references a snapshot place by its first position.

:func:`~repro.parallel.context.dump_outcome` pickles a place of the snapshot
as ``(position in context.places(), place_id)``.  A source may list the same
object twice; the reference is then its first position, so both ends of a
process boundary resolve it to the object they hold there.
"""

from __future__ import annotations

import pickle

from repro.core import PipelineConfig
from repro.core.pipeline import AnnotationSources
from repro.core.places import RegionOfInterest
from repro.parallel import GeoContext
from repro.parallel.context import dump_outcome, load_outcome
from repro.regions.sources import RegionSource


def test_a_place_listed_twice_is_referenced_by_its_first_position(annotation_sources):
    regions = annotation_sources.regions.regions
    first, second = regions[0], regions[1]
    context = GeoContext.build(
        AnnotationSources(
            regions=RegionSource([first, second, *regions[2:], first, second]),
            road_network=annotation_sources.road_network,
            pois=annotation_sources.pois,
        ),
        PipelineConfig.for_vehicles(),
    )
    places = context.places()
    assert places[0] is places[len(regions)] is first
    reduce_place = context._dispatch_table()[RegionOfInterest]
    assert reduce_place(first)[1] == (0, first.place_id)
    assert reduce_place(second)[1] == (1, second.place_id)
    twin = pickle.loads(pickle.dumps(context, pickle.HIGHEST_PROTOCOL))
    loaded = load_outcome(dump_outcome([second, first, second], context), twin)
    assert loaded == [twin.places()[1], twin.places()[0], twin.places()[1]]
    assert loaded[0] is twin.places()[1] and loaded[1] is twin.places()[0]
