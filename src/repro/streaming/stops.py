"""Incremental stop/move detection over a growing trajectory.

:class:`IncrementalStopMoveDetector` watches an open trajectory buffer and
emits episodes as soon as they are *sealed* — i.e. no future GPS point can
change their kind or boundaries — while guaranteeing that the concatenation of
everything it emits equals :meth:`StopMoveDetector.segment` on the final
buffer (parity tested on every seed dataset).

Why sealing is sound
--------------------
All volatility introduced by a new point is confined to a suffix of the
buffer:

* **velocity flags** — ``speeds[i]`` is the speed from point ``i`` to
  ``i + 1`` and the last point repeats its predecessor's value, so only the
  flag of the current last point can change when the next fix arrives;
* **density flags** — the seed-and-expand scan is final for every run that
  was terminated by a radius violation; only the first tried seed whose
  expansion was cut short by the end of the buffer can still grow and flip
  flags from that seed onwards;
* **minimum stop duration** — demotion operates on maximal runs of equal raw
  flags, and a volatile flag may later flip to the value of the run ending
  just before it (extending that run and changing its duration), so the
  volatile suffix is extended backwards to the start of the run containing
  the last fixed flag — every earlier run ends at a boundary between two
  fixed, differing flags and is final;
* **short-move absorption** — a volatile trailing episode may still merge
  *backwards* into its immediate predecessor (a short move absorbed into the
  preceding stop can later re-emerge as a real move), so the predecessor of
  the first volatile episode is withheld as well.  It cannot cascade
  further: that predecessor's kind is fixed and differs from its own
  predecessor's kind, so no second merge is possible.

Hence everything strictly before the *predecessor of the episode containing
the first volatile flag* is sealed.  The sealed frontier always falls on a
boundary between two permanently fixed raw flags, so a refinement re-refines
only the suffix past it; finalization delegates to the batch detector and
verifies that everything emitted is a prefix of the full segmentation, so
any divergence fails fast instead of silently corrupting downstream
annotations.

Why skipping is sound
---------------------
Absorbing a fix costs work proportional to the fix, not to the open
trajectory, because nothing is recomputed that cannot have changed:

* **the flag scans resume** — a pair speed is final the moment its second
  point arrives, and the density scan continues the open seed's expansion
  from the index it had reached; a seed is resolved (and the next one tried
  from scratch) only on a radius violation, exactly as in the batch scan, so
  over a whole trajectory the scans do the work of one batch pass.  Fixed
  flags are appended once;
* **the tentative region is uniform** — while the open seed's expansion still
  reaches the last point, every later seed would reach it too, over a span no
  longer than the open seed's (timestamps are non-decreasing).  So the density
  flags from the open seed onwards are all ``True`` when that span has reached
  ``min_stop_duration`` and all ``False`` otherwise, and are only written out
  when a refinement needs them;
* **closed runs are enforced once** — the minimum-duration demotion of a run
  of equal fixed flags is decided the moment the next run starts (its first
  and last points are final), so the enforced kind of every run between the
  sealed frontier and the boundary run is computed when the run closes,
  kept coalesced with its equal neighbours, and dropped when an episode seals
  over it.  A refinement re-enforces only the flags from the boundary run
  onwards and prepends the kept runs;
* **refinement runs only when it can seal something new** — what a refinement
  seals is decided by which episodes end at or before the *boundary* ``b``,
  the start of the run containing the last fixed flag.  Once the fixed part
  of that run is *settled* — a move run of at least ``min_move_points`` flags,
  or a stop-candidate run already spanning ``min_stop_duration`` — its kind
  can no longer change, so whether the episode containing ``b - 1`` ends at
  ``b`` or crosses it is decided by fixed flags alone, and every later
  refinement with the same ``b`` would seal exactly what the settled one did.
  Those calls return ``[]`` without slicing, enforcing or absorbing.  Keying
  the skip on ``b`` alone is not enough: before the run is settled (the first
  fixes of a move, the first ``min_stop_duration`` seconds of a dwell) a short
  move can still be absorbed into the stop before it, or a stop candidate
  demoted into the move before it, either of which flips that episode between
  "ends at ``b``" and "crosses ``b``" and so decides whether its predecessor
  seals — skipping there delays seals by whole episodes.

Skipping can therefore only ever postpone a seal, never change one, and the
emission schedule — which :meth:`advance` call emits which episode — is the
one a refine-every-call detector produces (tested against such a reference).
Per call the work is the scan of the new points, plus, when the boundary
moved or is not yet settled, one refinement: the flags of the boundary run
and the tentative ones past it, and one episode per kept run of the open
(unsealed) region before them.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.config import StopMoveConfig
from repro.core.episodes import Episode, EpisodeKind
from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory
from repro.preprocessing.stops import (
    StopMoveDetector,
    absorb_short_moves,
    enforce_min_duration,
)


class IncrementalStopMoveDetector:
    """Emits finalized stop/move episodes while its trajectory still grows.

    The detector is bound to one trajectory buffer (typically an
    :class:`~repro.streaming.session.OpenTrajectory` that the session appends
    to) and scans its ``xs`` / ``ys`` / ``ts`` columns; call :meth:`advance`
    after appending fixes to collect the newly sealed episodes and
    :meth:`finalize` once the trajectory is complete to collect the remaining
    tail.
    """

    def __init__(self, trajectory: RawTrajectory, config: StopMoveConfig = StopMoveConfig()):
        self._trajectory = trajectory
        # The trajectory's columns: an open trajectory appends to these lists.
        self._xs, self._ys, self._ts = trajectory.xs, trajectory.ys, trajectory.ts
        self._config = config
        self._batch = StopMoveDetector(config)
        # Raw (combined) flags no future point can change, appended once, and
        # the start of the equal-flag run the last of them belongs to.
        self._fixed: List[bool] = []
        self._run_start = 0
        # Enforced (min-duration) runs ``[start, end, is_stop]`` of the fixed
        # flags from the sealed frontier up to the boundary run: contiguous,
        # equal neighbours coalesced, final since the run after each started.
        self._closed_runs: List[List] = []
        # Velocity flag of each point pair (i, i + 1); unused by "density".
        self._velocity: List[bool] = []
        # Density scan position: the seed whose expansion the end of the
        # buffer cut short, and the last index that expansion has accepted.
        self._seed = 0
        self._reach = 0
        # Boundary of the last refinement if it was settled, else -1.  With
        # the boundary at 0 nothing precedes it, so there is nothing to seal.
        self._settled = 0
        self._sealed: List[Episode] = []
        self._finalized = False

    @property
    def trajectory(self) -> RawTrajectory:
        """The trajectory buffer the detector is bound to."""
        return self._trajectory

    @property
    def config(self) -> StopMoveConfig:
        """The active stop/move configuration."""
        return self._config

    @property
    def sealed_episodes(self) -> List[Episode]:
        """Episodes emitted so far, in trajectory order."""
        return list(self._sealed)

    # ------------------------------------------------------------------ feed
    def advance(self) -> List[Episode]:
        """Process points appended since the last call; returns newly sealed episodes.

        Each new point is scanned once; the suffix past the sealed frontier
        is re-refined only when the sealing boundary moved or its run is not
        yet settled (see the module docstring), so a call that cannot seal
        anything costs the scan of its new points and nothing else.
        """
        if self._finalized:
            raise DataQualityError("cannot advance a finalized detector")
        n = len(self._ts)
        if n < 2:
            return []
        self._scan(n)
        # Everything from the start of the run containing the last fixed flag
        # is volatile: a later flag may extend that run and change its
        # min-duration demotion.  The run before it ends at a boundary
        # between two fixed, differing flags and is final.
        volatile = self._run_start
        if volatile == self._settled:
            return []
        restart = self._sealed[-1].end_index if self._sealed else 0
        if volatile < restart:
            raise DataQualityError("volatile region receded into the sealed prefix")
        config = self._config
        fixed = self._fixed
        ts = self._ts
        # Everything before the boundary run was enforced when its runs
        # closed; only the boundary run and the tentative flags are redone.
        enforced = enforce_min_duration(
            ts[volatile:], fixed[volatile:] + self._tentative_flags(), config.min_stop_duration
        )
        suffix = absorb_short_moves(
            self._trajectory,
            self._suffix_episodes(enforced, volatile),
            config.min_move_points,
            previous_kind=self._sealed[-1].kind if self._sealed else None,
        )
        if suffix[0].start_index != restart:
            raise DataQualityError("incremental stop/move sealing diverged from batch")
        # First episode reaching into the volatile suffix, minus one more for
        # the backward-merge hazard of short-move absorption.
        first_volatile = len(suffix)
        for index, episode in enumerate(suffix):
            if episode.end_index > volatile:
                first_volatile = index
                break
        new_episodes = suffix[: max(0, first_volatile - 1)]
        if new_episodes:
            self._sealed.extend(new_episodes)
            # The new frontier is an episode boundary, hence a boundary of the
            # coalesced runs: whole runs drop out, none is cut.
            frontier = new_episodes[-1].end_index
            kept = [run for run in self._closed_runs if run[1] > frontier]
            if kept and kept[0][0] != frontier:
                raise DataQualityError("incremental stop/move sealing diverged from batch")
            self._closed_runs = kept
        if fixed[volatile]:
            settled = ts[len(fixed) - 1] - ts[volatile] >= config.min_stop_duration
        else:
            settled = len(fixed) - volatile >= config.min_move_points
        self._settled = volatile if settled else -1
        return new_episodes

    def finalize(self) -> List[Episode]:
        """Segment the completed trajectory; returns the episodes after the sealed prefix.

        Delegates to :meth:`StopMoveDetector.segment` so the full episode list
        (sealed prefix + returned tail) is exactly the batch segmentation,
        including its partition validation and single-point special case.
        """
        if self._finalized:
            raise DataQualityError("detector is already finalized")
        self._finalized = True
        episodes = self._batch.segment(self._trajectory)
        self._check_prefix(episodes)
        tail = episodes[len(self._sealed) :]
        self._sealed.extend(tail)
        return tail

    # ------------------------------------------------------------- internals
    def _scan(self, n: int) -> None:
        """Resume the per-policy flag scans over the points appended since the last call.

        Same arithmetic, in the same operand order, as the batch flag passes
        (``sqrt(dx*dx + dy*dy)``), so the flags are bit-identical to theirs.
        """
        config = self._config
        xs, ys, ts = self._xs, self._ys, self._ts
        velocity = self._velocity
        if config.policy != "density":
            threshold = config.speed_threshold
            for index in range(len(velocity), n - 1):
                dt = ts[index + 1] - ts[index]
                dx = xs[index] - xs[index + 1]
                dy = ys[index] - ys[index + 1]
                velocity.append((math.sqrt(dx * dx + dy * dy) / dt if dt > 0 else 0.0) < threshold)
            if config.policy == "velocity":
                self._fix(velocity[len(self._fixed) :])
                return
        radius = config.density_radius
        seed, reach = self._seed, self._reach
        origin_x, origin_y = xs[seed], ys[seed]
        while reach + 1 < n:
            dx = origin_x - xs[reach + 1]
            dy = origin_y - ys[reach + 1]
            if math.sqrt(dx * dx + dy * dy) <= radius:
                reach += 1
                continue
            # Radius violation: this seed's outcome is final, as in
            # expand_density_flags; the next seed expands from scratch.
            if reach > seed and ts[reach] - ts[seed] >= config.min_stop_duration:
                self._fix([True] * (reach + 1 - seed))
                seed = reach + 1
            else:
                self._fix([config.policy == "hybrid" and velocity[seed]])
                seed += 1
            reach = seed
            origin_x, origin_y = xs[seed], ys[seed]
        self._seed, self._reach = seed, reach

    def _fix(self, flags: List[bool]) -> None:
        """Append raw flags that are now final, tracking the start of the last run.

        A flag that differs from its predecessor closes the predecessor's run,
        whose minimum-duration demotion is decided there and then (the
        comparison :func:`enforce_min_duration` makes, on the same two timestamps).
        """
        fixed = self._fixed
        for flag in flags:
            if fixed and flag != fixed[-1]:
                start, end = self._run_start, len(fixed)
                is_stop = fixed[start]
                if is_stop:
                    duration = self._ts[end - 1] - self._ts[start]
                    is_stop = not duration < self._config.min_stop_duration
                closed = self._closed_runs
                if closed and closed[-1][2] == is_stop:
                    closed[-1][1] = end
                else:
                    closed.append([start, end, is_stop])
                self._run_start = end
            fixed.append(flag)

    def _tentative_flags(self) -> List[bool]:
        """Raw flags, as they stand after the last scan, of the points past the fixed ones."""
        config = self._config
        velocity = self._velocity
        if config.policy == "velocity":
            return velocity[-1:]  # the last point repeats its predecessor's speed
        # The open seed's expansion reaches the last point, and later seeds
        # span no longer than it does: the whole region shares its outcome.
        ts = self._ts
        seed, reach = self._seed, self._reach
        if reach > seed and ts[reach] - ts[seed] >= config.min_stop_duration:
            return [True] * (reach + 1 - seed)
        if config.policy == "density":
            return [False] * (reach + 1 - seed)
        return velocity[seed:] + velocity[-1:]

    def _suffix_episodes(self, enforced: List[bool], volatile: int) -> List[Episode]:
        """Maximal contiguous episodes past the sealed frontier, with global indices.

        The kept closed runs, then the runs of ``enforced`` — the flags from
        ``volatile`` on — coalesced where the two meet.
        """
        runs: List[Tuple[int, int, bool]] = [
            (start, end, is_stop) for start, end, is_stop in self._closed_runs
        ]
        n = len(enforced)
        start = 0
        for index in range(1, n + 1):
            if index == n or enforced[index] != enforced[start]:
                if runs and runs[-1][2] == enforced[start]:
                    runs[-1] = (runs[-1][0], volatile + index, enforced[start])
                else:
                    runs.append((volatile + start, volatile + index, enforced[start]))
                start = index
        trajectory = self._trajectory
        return [
            Episode(EpisodeKind.STOP if is_stop else EpisodeKind.MOVE, trajectory, start, end)
            for start, end, is_stop in runs
        ]

    def _check_prefix(self, episodes: List[Episode]) -> None:
        """Verify already-emitted episodes are a prefix of the current segmentation."""
        if len(episodes) < len(self._sealed):
            raise DataQualityError("incremental stop/move sealing diverged from batch")
        for emitted, current in zip(self._sealed, episodes):
            if (
                emitted.kind is not current.kind
                or emitted.start_index != current.start_index
                or emitted.end_index != current.end_index
            ):
                raise DataQualityError("incremental stop/move sealing diverged from batch")
