"""The point layer's group lookup answers what the per-stop lookups answer.

The point-annotation stage makes one flat-index query per annotate group:
:meth:`PoiSource.pois_within_batch` over the centres of the grid cells not
cached yet and of every stop.  These properties pin that the group query is
the per-centre :meth:`PoiSource.pois_within` walk, float for float and payload
for payload, and that the cell values group priming caches are the values the
lazy per-cell path computes — on layouts built to break that: equal-distance
ties, duplicate POI positions, and centres on cell edges.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PointAnnotationConfig
from repro.core.places import PointOfInterest
from repro.geometry.primitives import Point
from repro.points.observation import PoiObservationModel
from repro.points.poi import PoiSource

_CATEGORIES = ("services", "feedings", "item sale")
# Multiples of 25 m: index cells (100 m) and model cells (50 m) have their
# edges on the lattice, and lattice distances tie exactly.
_LATTICE = st.integers(min_value=-8, max_value=8).map(lambda v: v * 25.0)
_RADII = st.sampled_from([0.0, 25.0, 50.0, 100.0, 125.0, 200.0])


@st.composite
def _layouts(draw):
    """POIs on a coarse lattice (duplicate positions likely) plus query centres."""
    count = draw(st.integers(1, 30))
    positions = draw(st.lists(st.tuples(_LATTICE, _LATTICE), min_size=1, max_size=8))
    pois = [
        PointOfInterest(
            place_id=f"p{i}",
            name=f"p{i}",
            category=draw(st.sampled_from(_CATEGORIES)),
            location=Point(*draw(st.sampled_from(positions))),
        )
        for i in range(count)
    ]
    # Centres from a wider lattice, so some fall outside the model's grid.
    wide = st.integers(min_value=-24, max_value=24).map(lambda v: v * 25.0)
    centers = draw(st.lists(st.builds(Point, wide, wide), min_size=1, max_size=12))
    return pois, centers


def _identities(neighbors):
    """Distances and payload identities: equal floats, the same objects, in order."""
    return [(distance, id(poi)) for distance, poi in neighbors]


@settings(max_examples=60, deadline=None)
@given(layout=_layouts(), radius=_RADII)
def test_group_query_equals_the_per_centre_lookups(layout, radius):
    pois, centers = layout
    source = PoiSource(pois)
    grouped = source.pois_within_batch(centers, radius)
    assert [_identities(neighbors) for neighbors in grouped] == [
        _identities(source.pois_within(center, radius)) for center in centers
    ]


@settings(max_examples=60, deadline=None)
@given(layout=_layouts(), radius=st.sampled_from([25.0, 100.0, 200.0]))
def test_group_priming_caches_the_lazy_cell_values(layout, radius):
    pois, centers = layout
    source = PoiSource(pois)
    config = PointAnnotationConfig(grid_cell_size=50.0, neighbor_radius=radius, default_sigma=40.0)
    primed, lazy = PoiObservationModel(source, config), PoiObservationModel(source, config)

    own = primed.prime(centers)
    assert [_identities(neighbors) for neighbors in own] == [
        _identities(source.pois_within(center, radius)) for center in centers
    ]
    in_grid = {primed.grid.cell_of(center) for center in centers} - {None}
    assert primed.cache_size() == len(in_grid)
    for center, neighbors in zip(centers, own):
        lazy_row = {category: lazy.probability(category, center) for category in lazy.categories}
        assert primed.emissions(center, neighbors) == lazy_row
    # Priming again computes nothing new and still returns the centres' own lists.
    assert primed.prime(centers) == own
    assert primed.cache_size() == len(in_grid)
