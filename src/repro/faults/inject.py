"""Deterministic fault injection for reproducible chaos runs.

A :class:`FaultPlan` is a seeded, declarative list of :class:`FaultSpec`\\ s —
*where* to fail (a stage, an object, the store commit, a worker process) and
*when* (the Nth matching occurrence, a bounded number of firings, a seeded
probability).  A :class:`FaultInjector` executes the plan: executors call its
hooks at well-defined points and the injector either does nothing (the common
case), raises :class:`~repro.core.errors.InjectedFault`, sleeps (stall), or
SIGKILLs the current worker process.

Plans parse from a compact string grammar so the same chaos run is expressible
in tests, on the CLI (``scripts/load_generator.py --fault-plan``) and via the
``SEMITRI_FAULTS`` environment variable (which pool workers inherit):

``spec[;spec...]`` where each spec is ``kind[@stage][:key=value[,...]]``:

* ``raise@map_match:n=3``        — raise in ``map_match`` at its 3rd execution;
* ``raise@map_match:obj=car-3,times=-1`` — a *poison* object: every
  ``map_match`` run for ``car-3`` raises, forever;
* ``kill:n=2``                   — SIGKILL the worker process at its 2nd
  trajectory (only fires inside worker processes, never in the parent);
* ``commit:n=1``                 — fail the 1st store commit;
* ``stall@poi_annotation:n=5,secs=0.2`` — sleep 0.2 s at the 5th
  ``poi_annotation`` execution (timeout-path testing);
* a leading ``seed=42`` token seeds the per-spec RNGs used by ``p=`` specs.

Counters are per-injector (per process).  For faults that must fire at most
once *across* processes — a worker kill that recovery must survive, say —
give the spec a ``fuse=/path`` marker file: the first firing creates the file
and any injector (in any process) seeing it treats the spec as spent.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.errors import ConfigurationError, InjectedFault

__all__ = ["FAULTS_ENV_VAR", "FaultSpec", "FaultPlan", "FaultInjector", "DISABLED_FAULTS"]

#: Environment variable holding a parseable fault plan (chaos CI legs set it).
FAULTS_ENV_VAR = "SEMITRI_FAULTS"

#: The fault kinds a spec can select.
FAULT_KINDS: Tuple[str, ...] = ("raise", "kill", "commit", "stall")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what to break, where, and how often."""

    kind: str
    """``"raise"``, ``"kill"``, ``"commit"`` or ``"stall"``."""

    stage: str = ""
    """Stage name filter for ``raise``/``stall`` ('' matches every stage)."""

    nth: int = 1
    """Arm on the Nth matching occurrence (1-based)."""

    times: int = 1
    """Firings once armed; -1 means every further match fires (poison)."""

    object_id: str = ""
    """Object-id filter ('' matches every object)."""

    seconds: float = 0.0
    """Sleep duration for ``stall`` specs."""

    probability: float = 1.0
    """Seeded per-occurrence firing probability once armed."""

    fuse: str = ""
    """Marker-file path making the spec fire at most once across processes."""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {list(FAULT_KINDS)}"
            )
        if self.nth < 1:
            raise ConfigurationError("fault spec n must be at least 1")
        if self.times < -1 or self.times == 0:
            raise ConfigurationError("fault spec times must be positive or -1 (unlimited)")
        if self.seconds < 0:
            raise ConfigurationError("fault spec secs must be non-negative")
        if not (0.0 < self.probability <= 1.0):
            raise ConfigurationError("fault spec p must lie in (0, 1]")
        if self.kind == "stall" and self.seconds == 0:
            raise ConfigurationError("stall specs need secs=<duration>")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind[@stage][:key=value[,...]]`` spec."""
        head, _, options = text.strip().partition(":")
        kind, _, stage = head.partition("@")
        fields = {"kind": kind.strip(), "stage": stage.strip()}
        for option in filter(None, (part.strip() for part in options.split(","))):
            key, separator, value = option.partition("=")
            if not separator:
                raise ConfigurationError(f"fault option {option!r} must look like key=value")
            key = key.strip()
            value = value.strip()
            try:
                if key == "n":
                    fields["nth"] = int(value)
                elif key == "times":
                    fields["times"] = int(value)
                elif key == "obj":
                    fields["object_id"] = value
                elif key == "secs":
                    fields["seconds"] = float(value)
                elif key == "p":
                    fields["probability"] = float(value)
                elif key == "fuse":
                    fields["fuse"] = value
                else:
                    raise ConfigurationError(
                        f"unknown fault option {key!r}; expected n, times, obj, secs, p or fuse"
                    )
            except ValueError as error:
                raise ConfigurationError(f"bad fault option value {option!r}") from error
        return cls(**fields)  # type: ignore[arg-type]

    def render(self) -> str:
        """The parseable form of this spec (inverse of :meth:`parse`)."""
        head = f"{self.kind}@{self.stage}" if self.stage else self.kind
        options = []
        if self.nth != 1:
            options.append(f"n={self.nth}")
        if self.times != 1:
            options.append(f"times={self.times}")
        if self.object_id:
            options.append(f"obj={self.object_id}")
        if self.seconds:
            options.append(f"secs={self.seconds:g}")
        if self.probability != 1.0:
            options.append(f"p={self.probability:g}")
        if self.fuse:
            options.append(f"fuse={self.fuse}")
        return head + (":" + ",".join(options) if options else "")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs — the unit chaos runs are described in."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``[seed=N;]spec[;spec...]`` (the ``SEMITRI_FAULTS`` grammar)."""
        seed = 0
        specs: List[FaultSpec] = []
        for token in filter(None, (part.strip() for part in text.split(";"))):
            if token.startswith("seed="):
                try:
                    seed = int(token[len("seed=") :])
                except ValueError as error:
                    raise ConfigurationError(f"bad fault seed {token!r}") from error
                continue
            specs.append(FaultSpec.parse(token))
        return cls(specs=tuple(specs), seed=seed)

    def render(self) -> str:
        """The parseable form of this plan (ships a plan through an env var)."""
        parts = [f"seed={self.seed}"] if self.seed else []
        parts.extend(spec.render() for spec in self.specs)
        return ";".join(parts)


class FaultInjector:
    """Executes a :class:`FaultPlan` at the engine's injection points.

    Thread-safe: occurrence counters live behind one lock.  The service hands
    its one injector to every thread shard (all run on its event loop), so
    ``n=`` counts across shards exactly; a worker process builds its own.
    Hooks are no-ops when the plan is empty — the shared
    :data:`DISABLED_FAULTS` singleton is what plans carry by default.
    """

    def __init__(self, plan: FaultPlan = FaultPlan()):
        self._plan = plan
        self._lock = threading.Lock()
        self._seen = [0] * len(plan.specs)
        self._fired = [0] * len(plan.specs)
        self._rngs = [
            random.Random(plan.seed * 7919 + index) for index in range(len(plan.specs))
        ]

    @classmethod
    def from_env(cls) -> "FaultInjector":
        """The injector ``SEMITRI_FAULTS`` describes (disabled when unset)."""
        text = os.environ.get(FAULTS_ENV_VAR, "").strip()
        if not text:
            return DISABLED_FAULTS
        return cls(FaultPlan.parse(text))

    @property
    def enabled(self) -> bool:
        """Whether any spec is armed (false for the disabled singleton)."""
        return bool(self._plan)

    @property
    def plan(self) -> FaultPlan:
        """The plan this injector executes."""
        return self._plan

    def fired_total(self) -> int:
        """Firings so far in this process (diagnostics and tests)."""
        with self._lock:
            return sum(self._fired)

    # ----------------------------------------------------------------- firing
    def _should_fire(self, index: int, spec: FaultSpec) -> bool:
        with self._lock:
            self._seen[index] += 1
            if self._seen[index] < spec.nth:
                return False
            if spec.times >= 0 and self._fired[index] >= spec.times:
                return False
            if spec.probability < 1.0 and self._rngs[index].random() >= spec.probability:
                return False
            if spec.fuse:
                try:
                    # Atomically claim the cross-process fuse; a file already
                    # present means another process (or an earlier firing)
                    # spent this spec.
                    os.close(os.open(spec.fuse, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                except FileExistsError:
                    return False
            self._fired[index] += 1
            return True

    # ------------------------------------------------------------------ hooks
    def on_stage(self, stage: str, object_id: str) -> None:
        """Called before each stage execution; may raise or stall."""
        if not self._plan.specs:
            return
        for index, spec in enumerate(self._plan.specs):
            if spec.kind not in ("raise", "stall"):
                continue
            if spec.stage and spec.stage != stage:
                continue
            if spec.object_id and spec.object_id != object_id:
                continue
            if self._should_fire(index, spec):
                if spec.kind == "stall":
                    time.sleep(spec.seconds)
                else:
                    raise InjectedFault(
                        f"injected failure in stage {stage!r} for object {object_id!r}"
                    )

    def on_trajectory(self, object_id: str) -> None:
        """Called as each trajectory starts; ``kill`` specs SIGKILL the worker.

        Kill specs only ever fire inside a worker process — a process
        ``multiprocessing`` started, which in this package is always a
        :class:`~repro.parallel.process.WorkerProcess` — so the parent
        process, thread shards and the sequential executor are never killed.
        """
        if not self._plan.specs or multiprocessing.parent_process() is None:
            return
        for index, spec in enumerate(self._plan.specs):
            if spec.kind != "kill":
                continue
            if spec.object_id and spec.object_id != object_id:
                continue
            if self._should_fire(index, spec):
                os.kill(os.getpid(), signal.SIGKILL)

    def on_commit(self) -> None:
        """Called right before a store commit; may raise instead."""
        if not self._plan.specs:
            return
        for index, spec in enumerate(self._plan.specs):
            if spec.kind != "commit":
                continue
            if self._should_fire(index, spec):
                raise InjectedFault("injected store commit failure")


#: The shared no-op injector plans carry when no faults are armed.
DISABLED_FAULTS = FaultInjector(FaultPlan())
