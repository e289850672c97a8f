"""Incremental stop/move detection over a growing trajectory.

:class:`IncrementalStopMoveDetector` watches an open trajectory buffer and
emits episodes as soon as they are *sealed* — i.e. no future GPS point can
change their kind or boundaries — and the tail once the trajectory is
complete.  Everything it emits equals the batch segmentation of the final
buffer, the tests' oracle (at every cut of generated walks, every seed fleet).

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
only the suffix past it.

Why finishing is sound
----------------------
At the end of input the tentative flags are final: the last point repeats its
predecessor's speed, and the open density seed's expansion reaches the last
point with no radius violation to follow, so batch resolves the region from
it as the tentative flags do — all ``True`` if its span reached
``min_stop_duration``, else all ``False`` (later seeds span no longer), OR'd
with the velocity flags under "hybrid".  So :meth:`finalize` is one last
refinement past the sealed frontier, all of it emitted: nothing follows that
could merge backwards.

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
(unsealed) region before them.  The scan is also a method of its own,
:meth:`~IncrementalStopMoveDetector.scan`: a streaming session calls it once
per appended fix, so its :meth:`~IncrementalStopMoveDetector.advance` calls
find every point scanned and only refine.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.config import StopMoveConfig
from repro.core.episodes import Episode, EpisodeKind, validate_episode_partition
from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory
from repro.preprocessing.stops import absorb_short_moves, enforce_min_duration


class IncrementalStopMoveDetector:
    """Emits finalized stop/move episodes while its trajectory still grows.

    The detector is bound to one trajectory buffer (typically an
    :class:`~repro.streaming.session.OpenTrajectory` that the session appends
    to) and scans its ``xs`` / ``ys`` / ``ts`` columns; call :meth:`advance`
    after appending fixes to collect the newly sealed episodes (it scans what
    :meth:`scan` has not) and :meth:`finalize` once the trajectory is complete
    to collect the remaining tail.
    """

    def __init__(self, trajectory: RawTrajectory, config: StopMoveConfig = StopMoveConfig()):
        self._trajectory = trajectory
        # The trajectory's columns: an open trajectory appends to these lists.
        self._xs, self._ys, self._ts = trajectory.xs, trajectory.ys, trajectory.ts
        self._config = config
        # The scans' parameters, read once.
        self._policy = config.policy
        self._speed_threshold = config.speed_threshold
        self._density_radius = config.density_radius
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
        # Points the scans have seen.
        self._scanned = 0
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

    # ------------------------------------------------------------------ feed
    def advance(self) -> List[Episode]:
        """Process points appended since the last call; returns newly sealed episodes.

        Each new point is scanned once, here or by an earlier :meth:`scan`;
        the suffix past the sealed frontier is re-refined only when the
        sealing boundary moved or its run is not yet settled (see the module
        docstring), so a call that cannot seal anything costs the scan of its
        new points and nothing else.
        """
        if self._finalized:
            raise DataQualityError("cannot advance a finalized detector")
        n = len(self._ts)
        if n < 2:
            return []
        if self._scanned < n:
            self.scan()
        # Everything from the start of the run containing the last fixed flag
        # is volatile: a later flag may extend that run and change its
        # min-duration demotion.  The run before it ends at a boundary
        # between two fixed, differing flags and is final.
        volatile = self._run_start
        if volatile == self._settled:
            return []
        if self._sealed and volatile < self._sealed[-1].end_index:
            raise DataQualityError("volatile region receded into the sealed prefix")
        suffix = self._refine(volatile)
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
        config = self._config
        fixed = self._fixed
        if fixed[volatile]:
            settled = self._ts[len(fixed) - 1] - self._ts[volatile] >= config.min_stop_duration
        else:
            settled = len(fixed) - volatile >= config.min_move_points
        self._settled = volatile if settled else -1
        return new_episodes

    def finalize(self) -> List[Episode]:
        """Finish the completed trajectory; returns the episodes after the sealed prefix.

        One last refinement of the suffix past the sealed frontier, with
        end-of-input semantics (module docstring, "Why finishing is sound"),
        all of it emitted.  A single point is one stop, as in the batch
        segmentation; the sealed prefix plus the returned tail is validated
        as a partition of the trajectory.
        """
        if self._finalized:
            raise DataQualityError("detector is already finalized")
        self._finalized = True
        n = len(self._ts)
        if n == 1:
            tail = [Episode(EpisodeKind.STOP, self._trajectory, 0, 1)]
        else:
            if self._scanned < n:
                self.scan()
            tail = self._refine(self._run_start)
            # Batch would absorb a lone short move into the sealed episode
            # before it; the tail starts with the withheld predecessor (a stop,
            # or a move of at least min_move_points fixes), so it cannot occur.
            lone = tail[0] if len(tail) == 1 and self._sealed else None
            if lone is not None and lone.is_move and len(lone) < self._config.min_move_points:
                raise DataQualityError("incremental stop/move sealing diverged from batch")
        validate_episode_partition(self._trajectory, self._sealed + tail)
        self._sealed.extend(tail)
        return tail

    def scan(self) -> bool:
        """Resume the per-policy flag scans over the points appended since the last call.

        A session calls it once per appended fix, so :meth:`advance` finds
        nothing left to scan.  Same arithmetic, in the same operand order, as
        the batch flag passes (``sqrt(dx*dx + dy*dy)``), so the flags are
        bit-identical to theirs.  Returns whether :meth:`advance` would refine
        now: the sealing boundary moved since the last refinement or is not
        yet settled.  When it would not, the call would return ``[]``.
        """
        ts = self._ts
        n = len(ts)
        index = self._scanned
        self._scanned = n
        xs, ys = self._xs, self._ys
        policy = self._policy
        velocity = self._velocity
        fixed = self._fixed
        if policy != "density":
            threshold = self._speed_threshold
            # The first pair not scanned yet: one per scanned point but the last.
            if index:
                index -= 1
            while index < n - 1:
                after = index + 1
                dt = ts[after] - ts[index]
                dx = xs[index] - xs[after]
                dy = ys[index] - ys[after]
                flag = (math.sqrt(dx * dx + dy * dy) / dt if dt > 0 else 0.0) < threshold
                velocity.append(flag)
                if policy == "velocity":
                    # The flag of point ``index`` is final: fix it.
                    if fixed and flag != fixed[-1]:
                        self._close_run()
                    fixed.append(flag)
                index = after
            if policy == "velocity":
                return self._run_start != self._settled
        radius = self._density_radius
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
            if reach > seed and ts[reach] - ts[seed] >= self._config.min_stop_duration:
                flag, count = True, reach + 1 - seed
            else:
                flag, count = policy == "hybrid" and velocity[seed], 1
            if fixed and flag != fixed[-1]:
                self._close_run()
            fixed.extend([flag] * count)
            seed += count
            reach = seed
            origin_x, origin_y = xs[seed], ys[seed]
        self._seed, self._reach = seed, reach
        return self._run_start != self._settled

    # ------------------------------------------------------------- internals
    def _refine(self, volatile: int) -> List[Episode]:
        """The episodes past the sealed frontier, from the flags as they stand.

        Only the boundary run (from ``volatile``) and the tentative flags are
        enforced; the runs before it were when they closed.
        """
        config = self._config
        sealed = self._sealed
        enforced = enforce_min_duration(
            self._ts[volatile:],
            self._fixed[volatile:] + self._tentative_flags(),
            config.min_stop_duration,
        )
        suffix = absorb_short_moves(
            self._trajectory,
            self._suffix_episodes(enforced, volatile),
            config.min_move_points,
            previous_kind=sealed[-1].kind if sealed else None,
        )
        if suffix[0].start_index != (sealed[-1].end_index if sealed else 0):
            raise DataQualityError("incremental stop/move sealing diverged from batch")
        return suffix

    def _close_run(self) -> None:
        """The next fixed flag differs from the last one: close the last one's run.

        The run's minimum-duration demotion is decided there and then (the
        comparison :func:`enforce_min_duration` makes, on the same two
        timestamps), and the run joins the closed runs.
        """
        fixed = self._fixed
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
