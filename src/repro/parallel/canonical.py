"""Canonical, byte-stable serialisation of pipeline results.

Every executor and service transport promises output *byte-identical* to the
sequential pipeline.  That promise needs a definition of "bytes": this module renders a
:class:`~repro.core.pipeline.PipelineResult` (or a list of them) into a
canonical JSON document covering everything the pipeline computed — the
trajectory, the episode boundaries and every annotation of every layer —
while excluding wall-clock latency samples, which are measurement noise, not
output.  Two runs agree if and only if their canonical bytes agree, which is
exactly what the parity tests and the scaling benchmark assert.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.core.annotations import Annotation
from repro.core.episodes import Episode
from repro.core.pipeline import PipelineResult
from repro.core.trajectory import StructuredSemanticTrajectory


def canonical_annotation(annotation: Annotation) -> List[Any]:
    """Order-stable rendering of one annotation."""
    return [
        annotation.kind.value,
        getattr(annotation, "place_id", None),
        getattr(annotation, "category", None),
        getattr(annotation, "label", None),
        repr(getattr(annotation, "value", None)),
        annotation.confidence,
    ]


def canonical_episode(episode: Episode) -> Dict[str, Any]:
    """Order-stable rendering of one episode and its annotations."""
    return {
        "kind": episode.kind.value,
        "start_index": episode.start_index,
        "end_index": episode.end_index,
        "time_in": episode.time_in,
        "time_out": episode.time_out,
        "annotations": [canonical_annotation(a) for a in episode.annotations],
    }


def canonical_structured(structured: Optional[StructuredSemanticTrajectory]) -> Optional[List[Any]]:
    """Order-stable rendering of a structured semantic trajectory."""
    if structured is None:
        return None
    return [
        [
            record.place.place_id if record.place is not None else None,
            record.time_in,
            record.time_out,
            record.kind.value,
            [canonical_annotation(a) for a in record.annotations],
        ]
        for record in structured
    ]


def canonical_result(result: PipelineResult) -> Dict[str, Any]:
    """Everything one pipeline result computed, minus latency samples."""
    trajectory = result.trajectory
    return {
        "trajectory_id": trajectory.trajectory_id,
        "object_id": trajectory.object_id,
        "points": list(zip(trajectory.xs, trajectory.ys, trajectory.ts)),
        "episodes": [canonical_episode(e) for e in result.episodes],
        "region": canonical_structured(result.region_trajectory),
        "lines": [canonical_structured(t) for t in result.line_trajectories],
        "point": canonical_structured(result.point_trajectory),
        "category": result.trajectory_category,
    }


def canonical_bytes(results: Sequence[PipelineResult]) -> bytes:
    """Canonical JSON bytes for an ordered sequence of pipeline results."""
    payload = [canonical_result(result) for result in results]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_digest(results: Sequence[PipelineResult]) -> str:
    """SHA-256 hex digest of :func:`canonical_bytes`.

    The compact form of the byte-equality contract, suitable for recording in
    benchmark sidecars and comparing across runs without shipping the full
    canonical document.
    """
    return hashlib.sha256(canonical_bytes(results)).hexdigest()
