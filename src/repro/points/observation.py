"""POI observation model: Pr(o | category) from Gaussian POI influence.

Section 4.3 / Lemma 1: the probability of observing a stop ``o`` given that
the moving object is interested in category ``Ci`` is proportional to the sum
of the influence of the individual POIs of that category around the stop, each
modelled as an isotropic 2-D Gaussian centred at the POI with a
category-specific variance ``sigma_c^2``.

For efficiency the model discretises the POI area into grid cells and
pre-computes ``Pr(grid_jk | Ci)`` lazily per visited cell, considering only the
POIs within ``neighbor_radius`` of the cell (the "neighbouring POIs in that
box" optimisation of Figure 7).

The per-cell sum is one loop over the neighbour list: a cell has a handful of
neighbours (159 sums per pass of the benchmark fleet, most under 8), where a
gather-and-scatter array form was measured slower.  What is batched is the
neighbour *lookup*: :meth:`PoiObservationModel.prime` fetches the neighbour
sets of all cells a trajectory's stops will hit with one flat-index query.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.config import PointAnnotationConfig
from repro.core.episodes import Episode
from repro.geometry.grid import GridSpec
from repro.geometry.kernels import gaussian_2d_density
from repro.geometry.primitives import BoundingBox, Point
from repro.points.poi import PoiSource

class PoiObservationModel:
    """Computes ``Pr(stop | category)`` for the point-annotation HMM."""

    def __init__(
        self, source: PoiSource, config: PointAnnotationConfig = PointAnnotationConfig()
    ):
        self._source = source
        self._config = config
        self._categories = source.categories()
        bounds = source.bounds().expanded(config.neighbor_radius)
        self._grid = GridSpec.covering(bounds, config.grid_cell_size)
        self._cell_cache: Dict[Tuple[int, int], Dict[str, float]] = {}

    @property
    def categories(self) -> List[str]:
        """Categories the model can score (the HMM hidden states)."""
        return list(self._categories)

    @property
    def grid(self) -> GridSpec:
        """The discretisation grid."""
        return self._grid

    @property
    def config(self) -> PointAnnotationConfig:
        """The active point-annotation configuration."""
        return self._config

    def sigma_for(self, category: str) -> float:
        """Gaussian influence radius sigma_c of a category."""
        return self._config.category_sigmas.get(category, self._config.default_sigma)

    # ---------------------------------------------------------- probabilities
    def probability(self, category: str, stop_center: Point) -> float:
        """``Pr(o | category)`` for a stop observed at ``stop_center``.

        When grid discretisation is possible (the stop falls inside the POI
        area) the pre-computed cell probability is used; otherwise the exact
        Gaussian sum is evaluated at the stop centre.
        """
        cell = self._grid.cell_of(stop_center)
        if cell is None:
            return self._exact_probability(category, stop_center)
        probabilities = self._cell_probabilities(cell)
        return probabilities.get(category, self._config.min_probability)

    def probability_for_episode(self, category: str, episode: Episode) -> float:
        """``Pr(o | category)`` using the stop episode's centre as the observation."""
        return self.probability(category, episode.center())

    def prime(self, points: Sequence[Point]) -> int:
        """Pre-compute the cell probabilities every point in ``points`` will hit.

        The uncached cells' neighbour sets are fetched with **one** batch
        flat-index query (instead of one grid walk per cell on first use
        during Viterbi decoding); the per-cell accumulation is the lazy
        path's, so the cached values are identical to what it would have
        produced.  Returns the number of cells computed; points outside the
        grid are skipped (they take the exact-evaluation path).
        """
        pending: List[Tuple[int, int]] = []
        seen = set(self._cell_cache)
        for point in points:
            cell = self._grid.cell_of(point)
            if cell is None or cell in seen:
                continue
            seen.add(cell)
            pending.append(cell)
        if not pending:
            return 0
        centers = [self._grid.cell_center(cell) for cell in pending]
        neighbor_lists = self._source.pois_within_batch(centers, self._config.neighbor_radius)
        for cell, center, neighbors in zip(pending, centers, neighbor_lists):
            self._cell_cache[cell] = self._probabilities_from_neighbors(center, neighbors)
        return len(pending)

    def category_scores(self, stop_center: Point) -> Dict[str, float]:
        """All category probabilities for one stop (normalised to sum to 1)."""
        raw = {category: self.probability(category, stop_center) for category in self._categories}
        total = sum(raw.values())
        if total <= 0:
            uniform = 1.0 / len(self._categories)
            return {category: uniform for category in self._categories}
        return {category: value / total for category, value in raw.items()}

    def most_likely_category(self, stop_center: Point) -> str:
        """The single most probable category for a stop (no HMM context)."""
        scores = self.category_scores(stop_center)
        return max(scores.items(), key=lambda pair: (pair[1], pair[0]))[0]

    # -------------------------------------------------------------- internals
    def _cell_probabilities(self, cell: Tuple[int, int]) -> Dict[str, float]:
        cached = self._cell_cache.get(cell)
        if cached is not None:
            return cached
        center = self._grid.cell_center(cell)
        probabilities = self._exact_probabilities(center)
        self._cell_cache[cell] = probabilities
        return probabilities

    def _exact_probability(self, category: str, point: Point) -> float:
        return self._exact_probabilities(point).get(category, self._config.min_probability)

    def _exact_probabilities(self, point: Point) -> Dict[str, float]:
        """Lemma 1: sum the Gaussian influence of neighbouring POIs per category."""
        neighbors = self._source.pois_within(point, self._config.neighbor_radius)
        return self._probabilities_from_neighbors(point, neighbors)

    def _probabilities_from_neighbors(self, point: Point, neighbors) -> Dict[str, float]:
        """Per-category Gaussian sums over an already-fetched neighbour list.

        Depends only on the neighbour set — never on which index produced it —
        so the flat batch priming and the lazy per-cell path cache identical
        values.
        """
        sums: Dict[str, float] = {category: 0.0 for category in self._categories}
        for _, poi in neighbors:
            sigma = self.sigma_for(poi.category)
            sums[poi.category] = sums.get(poi.category, 0.0) + gaussian_2d_density(
                point, poi.location, sigma
            )
        floor = self._config.min_probability
        return {category: max(value, floor) for category, value in sums.items()}

    def cache_size(self) -> int:
        """Number of grid cells whose probabilities have been pre-computed."""
        return len(self._cell_cache)

    def precompute_box(self, box: BoundingBox) -> int:
        """Eagerly pre-compute cell probabilities for every cell in ``box``.

        Returns the number of cells computed; used by benchmarks that compare
        the discretised against the exact observation model.
        """
        count = 0
        for cell in self._grid.cells_in_box(box):
            if cell not in self._cell_cache:
                self._cell_probabilities(cell)
                count += 1
        return count
