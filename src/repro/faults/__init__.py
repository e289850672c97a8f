"""Fault tolerance: deterministic injection, failure policy plumbing, WAL.

Four modules, one per concern:

* :mod:`repro.faults.inject` — seeded, declarative fault plans and the
  injector executors consult (``SEMITRI_FAULTS`` env knob);
* :mod:`repro.faults.failures` — per-trajectory failure records, the
  dead-letter quarantine's input type, and the run-scoped failure log that
  reconciles counters, metrics and the store;
* :mod:`repro.faults.journal` — the service's crash-safe per-shard ingest
  WAL with epoch rotation and origin-id dedup;
* :mod:`repro.faults.wire` — the binary record codec the WAL's files and the
  process transport's frames are both written in.
"""

from repro.faults.failures import (
    FailureEvent,
    FailureLog,
    TrajectoryFailure,
    failure_stage,
    tag_failure_stage,
)
from repro.faults.inject import (
    DISABLED_FAULTS,
    FAULTS_ENV_VAR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.faults.journal import IngestJournal, JournalRecord

__all__ = [
    "DISABLED_FAULTS",
    "FAULTS_ENV_VAR",
    "FailureEvent",
    "FailureLog",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "IngestJournal",
    "JournalRecord",
    "TrajectoryFailure",
    "failure_stage",
    "tag_failure_stage",
]
