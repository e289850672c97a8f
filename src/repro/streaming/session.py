"""Per-object session state for the streaming annotation engine.

A :class:`Session` owns everything one moving object needs while its GPS
stream is live: the (optional) streaming cleaner, the open trajectory buffer,
the incremental stop/move detector bound to it and the gap-based close-out
rules reusing the :class:`~repro.preprocessing.identification.TrajectoryIdentifier`
thresholds — a new trajectory starts whenever the time or distance gap to the
previous cleaned fix exceeds the configured separations, and fragments with
fewer than ``min_points`` fixes are discarded, mirroring
:meth:`SeMiTriPipeline.ingest_stream` numbering and all.

:class:`SessionManager` keeps the sessions in LRU order and bounds their
number: acquiring a session for a new object evicts the least recently active
ones, which the engine then closes (sealing their open trajectories) before
continuing.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import PipelineConfig

if TYPE_CHECKING:  # pragma: no cover - metrics are optional at runtime
    from repro.obs.metrics import StreamingMetrics
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
    the columns; :attr:`points` is a list that catches up with them on read.
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
    result — exactly like :meth:`TrajectoryIdentifier.split` dropping them.
    """

    trajectory: RawTrajectory
    final_episodes: List[Episode] = field(default_factory=list)
    discarded: bool = False
    compute_seconds: float = 0.0
    """Time spent in the final segmentation pass (for latency accounting)."""


@dataclass
class SessionUpdate:
    """What happened inside a session while absorbing new points."""

    sealed: List[SealedTrajectory] = field(default_factory=list)


#: What :meth:`Session.push` returns for the fixes that seal nothing — nearly
#: all of them.  Shared, so it must never be mutated.
_NOTHING_SEALED = SessionUpdate()


class Session:
    """Mutable streaming state for one moving object."""

    def __init__(
        self,
        object_id: str,
        config: PipelineConfig,
        apply_cleaning: bool,
        segment_counters: Optional[Dict[str, int]] = None,
        metrics: Optional["StreamingMetrics"] = None,
    ):
        self.object_id = object_id
        self._config = config
        self._metrics = metrics
        self._cleaner = StreamingGpsCleaner(config.cleaning) if apply_cleaning else None
        # Shared with the SessionManager so trajectory numbering stays unique
        # for an object across session recreations (close-out, LRU eviction).
        self._segment_counters = segment_counters if segment_counters is not None else {}
        self.trajectory: Optional[OpenTrajectory] = None
        self.detector: Optional[IncrementalStopMoveDetector] = None
        self.events_seen = 0
        self.closed = False

    @property
    def segment_index(self) -> int:
        """Next trajectory segment number for this object."""
        return self._segment_counters.get(self.object_id, 0)

    @property
    def open_point_count(self) -> int:
        """Points buffered in the currently open trajectory."""
        return len(self.trajectory) if self.trajectory is not None else 0

    # ------------------------------------------------------------------ feed
    def push(self, point: SpatioTemporalPoint) -> SessionUpdate:
        """Absorb one raw point; may seal the open trajectory at a gap."""
        if self.closed:
            raise DataQualityError(f"session for {self.object_id!r} is closed")
        self.events_seen += 1
        if self._cleaner is None:
            sealed = self._absorb(point.x, point.y, point.t)
            return _NOTHING_SEALED if sealed is None else SessionUpdate([sealed])
        update = _NOTHING_SEALED
        for x, y, t in self._cleaner.push(point):
            sealed = self._absorb(x, y, t)
            if sealed is not None:
                update = SessionUpdate(update.sealed + [sealed])
        return update

    def advance(self) -> List[Episode]:
        """Let the detector seal episodes of the open trajectory.

        Held back until the open buffer has reached ``min_points`` fixes so
        that fragments the identification step would discard never emit
        episodes.
        """
        if self.detector is None or self.trajectory is None:
            return []
        if len(self.trajectory) < self._config.identification.min_points:
            return []
        return self.detector.advance()

    def close(self) -> SessionUpdate:
        """End of stream for this object: flush the cleaner and seal the buffer."""
        if self.closed:
            return SessionUpdate()
        self.closed = True
        update = SessionUpdate()
        if self._cleaner is not None:
            for x, y, t in self._cleaner.finish():
                sealed = self._absorb(x, y, t)
                if sealed is not None:
                    update.sealed.append(sealed)
        if self.trajectory is not None:
            update.sealed.append(self._seal())
        return update

    # ------------------------------------------------------------- internals
    def _absorb(self, x: float, y: float, t: float) -> Optional[SealedTrajectory]:
        """Append one cleaned fix; returns the trajectory a gap before it sealed."""
        sealed: Optional[SealedTrajectory] = None
        trajectory = self.trajectory
        if trajectory is not None:
            identification = self._config.identification
            # SpatioTemporalPoint.distance_to from the previous fix, on floats.
            dx = trajectory.xs[-1] - x
            dy = trajectory.ys[-1] - y
            if (
                t - trajectory.ts[-1] > identification.max_time_gap
                or math.sqrt(dx * dx + dy * dy) > identification.max_distance_gap
            ):
                if self._metrics is not None:
                    self._metrics.gap_closeouts.inc()
                sealed = self._seal()
            else:
                trajectory.append(x, y, t)
                return None
        segment = self._segment_counters.get(self.object_id, 0)
        self._segment_counters[self.object_id] = segment + 1
        self.trajectory = OpenTrajectory(
            x, y, t, object_id=self.object_id, trajectory_id=f"{self.object_id}-t{segment}"
        )
        self.detector = IncrementalStopMoveDetector(self.trajectory, self._config.stop_move)
        return sealed

    def _seal(self) -> SealedTrajectory:
        assert self.trajectory is not None and self.detector is not None
        trajectory, detector = self.trajectory, self.detector
        self.trajectory = None
        self.detector = None
        if len(trajectory) < self._config.identification.min_points:
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

    def __init__(
        self,
        config: PipelineConfig,
        apply_cleaning: Optional[bool] = None,
        metrics: Optional["StreamingMetrics"] = None,
    ):
        self._config = config
        self._apply_cleaning = (
            config.streaming.apply_cleaning if apply_cleaning is None else apply_cleaning
        )
        self._max_sessions = config.streaming.max_sessions
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._segment_counters: Dict[str, int] = {}
        self._metrics = metrics
        self.evicted_total = 0

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
        session = self._sessions.get(object_id)
        if session is not None:
            self._sessions.move_to_end(object_id)
            return session, []
        evicted: List[Session] = []
        while len(self._sessions) >= self._max_sessions:
            _, lru = self._sessions.popitem(last=False)
            evicted.append(lru)
            self.evicted_total += 1
            if self._metrics is not None:
                self._metrics.evictions.inc()
        session = Session(
            object_id,
            self._config,
            self._apply_cleaning,
            segment_counters=self._segment_counters,
            metrics=self._metrics,
        )
        self._sessions[object_id] = session
        self._track_depth()
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
            if self._metrics is not None:
                self._metrics.evictions.inc()
        if evicted:
            self._track_depth()
        return evicted

    def get(self, object_id: str) -> Optional[Session]:
        """The live session for ``object_id``, if any (does not touch LRU order)."""
        return self._sessions.get(object_id)

    def pop(self, object_id: str) -> Optional[Session]:
        """Remove and return the session for ``object_id``, if any."""
        session = self._sessions.pop(object_id, None)
        self._track_depth()
        return session

    def pop_all(self) -> List[Session]:
        """Remove and return every live session (least recently active first)."""
        sessions = list(self._sessions.values())
        self._sessions.clear()
        self._track_depth()
        return sessions

    def _track_depth(self) -> None:
        if self._metrics is not None:
            self._metrics.open_sessions.set(len(self._sessions))
