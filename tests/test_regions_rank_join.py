"""The region join picks by rank, and picks what the per-fix loop picked.

:meth:`RegionSource.first_regions_containing_columns` takes, per position,
the candidate of least ``(area, place_id, row)`` rank, and
:meth:`RegionAnnotator.annotate_episode_group` counts each episode's dominant
region over those picks.  The oracles below are the loop the rank join
replaced — per position, the exact containment test over the index's
candidates in row order keeping the first with the smallest
``(area, place_id)`` — and the per-episode count by place id, keeping the most
covered, then the largest id (under the ``intersects`` predicate a move's
positions are joined against the regions its box meets).
Layouts are built for ties: boxes and
polygons of equal area sharing edges, duplicated regions and place ids,
positions on those edges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RegionAnnotationConfig
from repro.core.episodes import Episode, EpisodeKind
from repro.core.places import RegionOfInterest
from repro.core.points import RawTrajectory
from repro.geometry.primitives import BoundingBox, Point, Polygon
from repro.regions.annotator import RegionAnnotator
from repro.regions.sources import RegionSource

# Multiples of 5 m: boxes and triangles share edges and areas, and
# positions on the lattice sit on those edges.
_LATTICE = st.integers(min_value=-6, max_value=6).map(lambda v: v * 5.0)
_SIDE = st.integers(min_value=0, max_value=4).map(lambda v: v * 5.0)
_IDS = st.sampled_from(["a", "b", "c"])


@st.composite
def _regions(draw) -> List[RegionOfInterest]:
    regions = []
    for index in range(draw(st.integers(min_value=1, max_value=14))):
        x, y = draw(_LATTICE), draw(_LATTICE)
        width, height = draw(_SIDE), draw(_SIDE)
        if draw(st.booleans()) and width > 0 and height > 0:
            # A right triangle: half its box, on the box's diagonal.
            corners = [Point(x, y), Point(x + width, y), Point(x, y + height)]
            extent = Polygon(corners if draw(st.booleans()) else corners[::-1])
        else:
            extent = BoundingBox(x, y, x + width, y + height)
        # Ids repeat across regions, so equal (area, place_id) keys tie.
        place_id = draw(_IDS) if draw(st.booleans()) else f"r{index}"
        regions.append(
            RegionOfInterest(place_id=place_id, name=place_id, category="c", extent=extent)
        )
    if draw(st.booleans()):
        regions.extend(draw(st.lists(st.sampled_from(regions), min_size=1, max_size=4)))
    return regions


_POSITION = st.tuples(
    _LATTICE | st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
    _LATTICE | st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
)


def _positions(draw, regions: List[RegionOfInterest]) -> List[tuple]:
    """Positions mostly inside the regions: their corners and centres, or anywhere."""
    inside = []
    for region in regions:
        box = region.bounding_box()
        inside += [(box.min_x, box.min_y), (box.max_x, box.max_y), (box.min_x, box.max_y)]
        inside.append(((box.min_x + box.max_x) / 2.0, (box.min_y + box.max_y) / 2.0))
    return draw(st.lists(st.sampled_from(inside) | _POSITION, min_size=1, max_size=40))


def _loop_join(
    source: RegionSource, xs: List[float], ys: List[float]
) -> List[Optional[RegionOfInterest]]:
    """The per-position loop the rank join replaced."""
    offsets, rows = source.flat_index().query_points_batch(xs, ys)
    payloads = source.flat_index().payloads
    bounds = offsets.tolist()
    row_list = rows.tolist()
    found: List[Optional[RegionOfInterest]] = []
    for index, (x, y) in enumerate(zip(xs, ys)):
        best: Optional[RegionOfInterest] = None
        best_key = None
        for row in row_list[bounds[index] : bounds[index + 1]]:
            region = payloads[row]
            extent = region.extent
            if isinstance(extent, BoundingBox):
                inside = extent.min_x <= x <= extent.max_x and extent.min_y <= y <= extent.max_y
            else:
                inside = extent.contains(Point(x, y))
            if inside:
                key = (region.area, region.place_id)
                if best_key is None or key < best_key:
                    best, best_key = region, key
        found.append(best)
    return found


def _loop_dominant(
    point_regions: Iterable[Optional[RegionOfInterest]],
) -> Optional[RegionOfInterest]:
    """The per-position count the episode join replaced (ties: largest id)."""
    counts: Dict[str, int] = {}
    by_id: Dict[str, RegionOfInterest] = {}
    for region in point_regions:
        if region is None:
            continue
        counts[region.place_id] = counts.get(region.place_id, 0) + 1
        by_id[region.place_id] = region
    if not counts:
        return None
    best_id = max(counts.items(), key=lambda pair: (pair[1], pair[0]))[0]
    return by_id[best_id]


@settings(max_examples=200, deadline=None)
@given(regions=_regions(), data=st.data())
def test_the_rank_join_equals_the_per_position_loop(regions, data):
    source = RegionSource(regions)
    positions = _positions(data.draw, regions)
    xs = [x for x, _ in positions]
    ys = [y for _, y in positions]
    # A first join of a prefix builds the rank table; the second reads it warm.
    cut = data.draw(st.integers(0, len(positions)))
    for part_xs, part_ys in ((xs[:cut], ys[:cut]), (xs, ys)):
        joined = source.first_regions_containing_columns(part_xs, part_ys)
        expected = _loop_join(source, part_xs, part_ys)
        assert [id(region) for region in joined] == [id(region) for region in expected]


@settings(max_examples=200, deadline=None)
@given(regions=_regions(), data=st.data(), predicate=st.sampled_from(["contains", "intersects"]))
def test_the_episode_join_equals_the_per_position_count(regions, data, predicate):
    source = RegionSource(regions)
    positions = _positions(data.draw, regions)
    trajectory = RawTrajectory.from_columns(
        [x for x, _ in positions],
        [y for _, y in positions],
        [float(t) for t in range(len(positions))],
    )
    cuts: List[int] = []
    if len(positions) > 1:
        cuts = sorted(set(data.draw(st.lists(st.integers(1, len(positions) - 1), max_size=6))))
    bounds = [0, *cuts, len(positions)]
    episodes = [
        Episode(data.draw(st.sampled_from([EpisodeKind.STOP, EpisodeKind.MOVE])), trajectory, a, b)
        for a, b in zip(bounds, bounds[1:])
    ]
    expected = []
    for episode in episodes:
        if episode.is_stop:
            center = episode.center()
            expected.append(_loop_dominant(_loop_join(source, [center.x], [center.y])))
        elif predicate == "intersects":
            candidates = source.regions_intersecting(episode.bounding_box())
            expected.append(
                _loop_dominant(
                    next((region for region in candidates if region.contains(position)), None)
                    for position in episode.positions
                )
            )
        else:
            expected.append(_loop_dominant(_loop_join(source, episode.xs, episode.ys)))
    annotator = RegionAnnotator(source, RegionAnnotationConfig(join_predicate=predicate))
    records = annotator.annotate_episode_group(episodes)
    assert [id(record.place) for record in records] == [id(region) for region in expected]


def test_a_warm_join_reads_no_region_area(monkeypatch):
    regions = [
        RegionOfInterest(
            place_id=f"r{i}",
            name="r",
            category="c",
            extent=BoundingBox(i * 10.0, 0.0, i * 10.0 + 10.0, 10.0),
        )
        for i in range(20)
    ]
    source = RegionSource(regions)
    source.first_regions_containing_columns([5.0], [5.0])
    reads = []
    area = RegionOfInterest.area

    def counting(self):
        reads.append(self)
        return area.fget(self)

    monkeypatch.setattr(RegionOfInterest, "area", property(counting))
    xs = np.linspace(0.0, 200.0, 101).tolist()
    assert len(source.first_regions_containing_columns(xs, [10.0] * len(xs))) == 101
    assert reads == []
