"""Per-object session state for the streaming annotation engine.

A :class:`Session` owns everything one moving object needs while its GPS
stream is live: the (optional) streaming cleaner, the open trajectory buffer,
the incremental stop/move detector bound to it and the gap-based close-out
rules reusing the :class:`~repro.preprocessing.identification.TrajectoryIdentifier`
thresholds — a new trajectory starts whenever the time or distance gap to the
previous cleaned fix exceeds the configured separations, and fragments with
fewer than ``min_points`` fixes are discarded, mirroring
:meth:`SeMiTriPipeline.ingest_stream` numbering and all.

Each fix is one float step: :meth:`Session.push` takes ``x``, ``y``, ``t``,
runs the cleaner's :meth:`~repro.streaming.cleaning.StreamingGpsCleaner.step`,
then, in its own frame, the gap test and the order check against the open
trajectory's columns (which the session holds) and the append, and lets the
detector scan the new fix.  The thresholds are read once, when the session is
created, and ``push`` returns ``None`` unless a gap sealed a trajectory.
Without cleaning, a step back in time raises only in a fragment that reaches
``min_points`` fixes — the fragments the batch split keeps and checks.

:class:`SessionManager` keeps the sessions in LRU order and bounds their
number: acquiring a session for a new object evicts the least recently active
ones, which the engine then closes (sealing their open trajectories) before
continuing.
"""

from __future__ import annotations

import math
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.core.episodes import Episode
from repro.core.errors import DataQualityError
from repro.core.points import RawTrajectory, SpatioTemporalPoint, _trajectory_from_columns
from repro.streaming.cleaning import StreamingGpsCleaner
from repro.streaming.stops import IncrementalStopMoveDetector


class OpenTrajectory(RawTrajectory):
    """A raw trajectory that can still grow at the tail.

    Episodes sealed while the trajectory is open reference this object; once
    the session closes it, the instance simply stops growing and behaves as a
    regular :class:`RawTrajectory`, so downstream annotators and the store see
    a normal immutable trajectory.  Fixes arrive as floats and are appended to
    the columns — by :meth:`append`, or by the owning :class:`Session`, which
    writes them itself; :attr:`points` is a list that catches up with them on
    read.
    """

    def __init__(
        self,
        x: float,
        y: float,
        t: float,
        object_id: str = "unknown",
        trajectory_id: Optional[str] = None,
    ):
        self._xs = [x]
        self._ys = [y]
        self._ts = [t]
        self._points: List[SpatioTemporalPoint] = []
        self.object_id = object_id
        self.trajectory_id = trajectory_id if trajectory_id is not None else f"{object_id}-0"

    def append(self, x: float, y: float, t: float) -> None:
        """Append the next fix; timestamps must stay non-decreasing."""
        ts = self._ts
        if t < ts[-1]:
            raise DataQualityError(
                "raw trajectory timestamps must be non-decreasing "
                f"({ts[-1]} followed by {t})"
            )
        self._xs.append(x)
        self._ys.append(y)
        ts.append(t)

    @property
    def points(self) -> List[SpatioTemporalPoint]:
        """The fixes as point objects: the cached prefix, extended to the current length."""
        points = self._points
        built = len(points)
        if built < len(self._ts):
            points.extend(
                map(SpatioTemporalPoint, self._xs[built:], self._ys[built:], self._ts[built:])
            )
        return points

    def __reduce__(self) -> Tuple[object, ...]:
        # A copy must not grow with this trajectory: it gets columns of its own.
        columns = (self._xs[:], self._ys[:], self._ts[:])
        return _trajectory_from_columns, (*columns, self.object_id, self.trajectory_id)


@dataclass
class SealedTrajectory:
    """A trajectory closed by a gap, an explicit close or an eviction.

    ``final_episodes`` are the episodes sealed at close time (the tail after
    everything the detector already emitted); ``discarded`` marks fragments
    shorter than the identification ``min_points`` threshold, which produce no
    result — exactly like :meth:`TrajectoryIdentifier.split_columns` dropping them.
    """

    trajectory: RawTrajectory
    final_episodes: List[Episode] = field(default_factory=list)
    discarded: bool = False
    compute_seconds: float = 0.0
    """Time spent in the final segmentation pass (for latency accounting)."""


class Session:
    """Mutable streaming state for one moving object."""

    def __init__(
        self,
        object_id: str,
        config: PipelineConfig,
        apply_cleaning: bool,
        manager: Optional["SessionManager"] = None,
    ):
        self.object_id = object_id
        self._config = config
        identification = config.identification
        self._max_time_gap = identification.max_time_gap
        self._max_distance_gap = identification.max_distance_gap
        self._min_points = identification.min_points
        self._manager = manager
        self._cleaner = StreamingGpsCleaner(config.cleaning) if apply_cleaning else None
        # The manager's, so trajectory numbering stays unique for an object
        # across session recreations (close-out, LRU eviction).
        self._segment_counters = manager._segment_counters if manager is not None else {}
        self.trajectory: Optional[OpenTrajectory] = None
        self.detector: Optional[IncrementalStopMoveDetector] = None
        # The open trajectory's columns (``_ts`` is None while none is open),
        # and the message for the first decreasing timestamp pair among its
        # fixes, if any.
        self._xs: List[float] = []
        self._ys: List[float] = []
        self._ts: Optional[List[float]] = None
        self._disorder: Optional[str] = None
        # Whether the detector's last scan left it a refinement to run: the
        # executor advances only the sessions where it did.
        self.refine_due = False
        self.closed = False

    @property
    def segment_index(self) -> int:
        """Next trajectory segment number for this object."""
        return self._segment_counters.get(self.object_id, 0)

    @property
    def open_point_count(self) -> int:
        """Points buffered in the currently open trajectory."""
        return len(self._ts) if self._ts is not None else 0

    # ------------------------------------------------------------------ feed
    def push(self, x: float, y: float, t: float) -> Optional[List[SealedTrajectory]]:
        """Absorb one raw fix; returns the trajectory a gap before it sealed, if any.

        ``None`` for nearly every fix.  The fix is cleaned (when the session
        cleans), gap-tested against the previous cleaned fix, appended to the
        open trajectory's columns and scanned by the stop/move detector, all
        in this frame apart from the cleaner's step and the detector's scan.
        """
        if self.closed:
            raise DataQualityError(f"session for {self.object_id!r} is closed")
        cleaner = self._cleaner
        if cleaner is not None:
            fix = cleaner.step(x, y, t)
            if fix is None:
                return None
            x, y, t = fix
        ts = self._ts
        if ts is None:
            self._open(x, y, t)
            return None
        xs, ys, detector = self._xs, self._ys, self.detector
        assert detector is not None
        last_t = ts[-1]
        # SpatioTemporalPoint.distance_to from the previous fix, on floats.
        dx = xs[-1] - x
        dy = ys[-1] - y
        if (
            t - last_t > self._max_time_gap
            or math.sqrt(dx * dx + dy * dy) > self._max_distance_gap
        ):
            if self._manager is not None:
                self._manager.gap_closeouts += 1
            sealed = self._seal()
            self._open(x, y, t)
            return [sealed]
        if t < last_t or self._disorder is not None:
            self._check_order(last_t, t)
        xs.append(x)
        ys.append(y)
        ts.append(t)
        self.refine_due = detector.scan()
        return None

    def advance(self) -> List[Episode]:
        """Let the detector seal episodes of the open trajectory.

        Held back until the open buffer has reached ``min_points`` fixes so
        that fragments the identification step would discard never emit
        episodes.  The detector has scanned every fix as it was pushed, so
        this refines only when the last scan left a refinement due
        (:attr:`refine_due`: the sealing boundary moved or is not yet
        settled), and otherwise returns ``[]`` without calling it.
        """
        ts = self._ts
        if not self.refine_due or ts is None or len(ts) < self._min_points:
            return []
        assert self.detector is not None
        return self.detector.advance()

    def close(self) -> List[SealedTrajectory]:
        """End of stream for this object: flush the cleaner and seal the buffer."""
        if self.closed:
            return []
        sealed: List[SealedTrajectory] = []
        # The cleaner's tail is clean: push it with the cleaner detached.
        cleaner, self._cleaner = self._cleaner, None
        if cleaner is not None:
            for x, y, t in cleaner.finish():
                gap = self.push(x, y, t)
                if gap is not None:
                    sealed.extend(gap)
        self.closed = True
        if self.trajectory is not None:
            sealed.append(self._seal())
        return sealed

    # ------------------------------------------------------------- internals
    def _check_order(self, last_t: float, t: float) -> None:
        """Raise on a decreasing timestamp once batch would keep its fragment.

        :meth:`TrajectoryIdentifier.split_columns` checks the order of the
        fragments it keeps, those of at least ``min_points`` fixes, and drops
        the others unchecked.  So the first decreasing pair of the open
        fragment raises as the fix that would bring it to ``min_points``
        arrives — that fix is not appended, so every later fix of the
        fragment raises too — and a fragment sealed shorter is discarded.
        """
        disorder = self._disorder
        if disorder is None:
            disorder = (
                "raw trajectory timestamps must be non-decreasing "
                f"({last_t} followed by {t})"
            )
        assert self._ts is not None
        if len(self._ts) + 1 >= self._min_points:
            raise DataQualityError(disorder)
        self._disorder = disorder

    def _open(self, x: float, y: float, t: float) -> None:
        """Start the next trajectory of this object at one cleaned fix."""
        segment = self._segment_counters.get(self.object_id, 0)
        self._segment_counters[self.object_id] = segment + 1
        trajectory = OpenTrajectory(
            x, y, t, object_id=self.object_id, trajectory_id=f"{self.object_id}-t{segment}"
        )
        self.trajectory = trajectory
        self._xs, self._ys, self._ts = trajectory.xs, trajectory.ys, trajectory.ts
        self._disorder = None
        self.refine_due = False
        self.detector = IncrementalStopMoveDetector(trajectory, self._config.stop_move)

    def _seal(self) -> SealedTrajectory:
        assert self.trajectory is not None and self.detector is not None
        trajectory, detector = self.trajectory, self.detector
        self.trajectory = None
        self.detector = None
        self._ts = None
        if len(trajectory) < self._min_points:
            return SealedTrajectory(trajectory, [], discarded=True)
        started = time.perf_counter()
        tail = detector.finalize()
        return SealedTrajectory(
            trajectory, tail, discarded=False, compute_seconds=time.perf_counter() - started
        )


class SessionManager:
    """LRU-bounded registry of per-object sessions.

    Trajectory segment numbering survives session recreation: when an object
    returns after a close or an eviction, its new session resumes where the
    old one stopped, keeping trajectory ids unique across the whole stream.
    The counter map keeps one integer per distinct object ever seen — unlike
    session state it is not evicted, since forgetting a counter would reissue
    already-used trajectory ids (a deliberate memory-for-correctness trade;
    shard the engine when the object universe outgrows it).
    """

    def __init__(self, config: PipelineConfig):
        self._config = config
        self._max_sessions = config.streaming.max_sessions
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._segment_counters: Dict[str, int] = {}
        self.evicted_total = 0
        #: Trajectories its sessions sealed on a time/distance gap, including
        #: gaps in the cleaner's tail that ``Session.close`` pushes.
        self.gap_closeouts = 0
        # What its sessions hold: a strong reference back would be a cycle.
        self._proxy = weakref.proxy(self)

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def object_ids(self) -> List[str]:
        """Objects with a live session, least recently active first."""
        return list(self._sessions.keys())

    def acquire(self, object_id: str) -> Tuple[Session, List[Session]]:
        """Session for ``object_id`` plus any sessions evicted to make room.

        The caller (the engine) must close the evicted sessions — eviction
        only removes them from the registry.
        """
        sessions = self._sessions
        if object_id in sessions:
            sessions.move_to_end(object_id)
            return sessions[object_id], []
        evicted: List[Session] = []
        while len(self._sessions) >= self._max_sessions:
            _, lru = self._sessions.popitem(last=False)
            evicted.append(lru)
            self.evicted_total += 1
        session = Session(
            object_id, self._config, self._config.streaming.apply_cleaning, manager=self._proxy
        )
        self._sessions[object_id] = session
        return session, evicted

    def evict_lru(self, target_size: int) -> List[Session]:
        """Evict least-recently-active sessions down to ``target_size`` open.

        The memory-pressure hook of the ingestion service: like capacity
        eviction in :meth:`acquire`, the evicted sessions are only removed
        from the registry — the caller must close them so their open
        trajectories are sealed through the normal gap close-out path.
        """
        if target_size < 0:
            target_size = 0
        evicted: List[Session] = []
        while len(self._sessions) > target_size:
            _, lru = self._sessions.popitem(last=False)
            evicted.append(lru)
            self.evicted_total += 1
        return evicted

    def get(self, object_id: str) -> Optional[Session]:
        """The live session for ``object_id``, if any (does not touch LRU order)."""
        return self._sessions.get(object_id)

    def pop(self, object_id: str) -> Optional[Session]:
        """Remove and return the session for ``object_id``, if any."""
        return self._sessions.pop(object_id, None)

    def pop_all(self) -> List[Session]:
        """Remove and return every live session (least recently active first)."""
        sessions = list(self._sessions.values())
        self._sessions.clear()
        return sessions
