"""GeoJSON serialisation of structured semantic trajectories.

The functions return plain Python dictionaries following the GeoJSON
specification (FeatureCollection / Feature / LineString / Point), so they can
be passed to ``json.dumps`` directly or consumed by any mapping library.
Coordinates are emitted exactly as stored (the synthetic world is planar
metres; real data would be lon/lat).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.trajectory import StructuredSemanticTrajectory


def _feature(geometry: Dict[str, Any], properties: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": "Feature", "geometry": geometry, "properties": properties}


def _point(x: float, y: float) -> Dict[str, Any]:
    return {"type": "Point", "coordinates": [x, y]}


def structured_trajectory_to_geojson(
    structured: StructuredSemanticTrajectory,
    include_unplaced: bool = True,
) -> Dict[str, Any]:
    """One feature per semantic episode record.

    Records linked to a point-like place become Point features at the place
    location; records linked to a region or road segment use the place's
    bounding-box centre; records without a place (partial annotation) become
    property-only features with a null geometry unless ``include_unplaced`` is
    false.
    """
    features: List[Dict[str, Any]] = []
    for index, record in enumerate(structured):
        properties: Dict[str, Any] = {
            "sequence": index,
            "kind": record.kind.value,
            "time_in": record.time_in,
            "time_out": record.time_out,
            "duration": record.duration,
        }
        if record.place is not None:
            properties["place_id"] = record.place.place_id
            properties["place_name"] = record.place.name
            properties["category"] = record.place.category
        if record.transport_mode is not None:
            properties["transport_mode"] = record.transport_mode
        if record.activity is not None:
            properties["activity"] = record.activity

        geometry: Optional[Dict[str, Any]]
        if record.place is not None:
            center = record.place.bounding_box().center
            geometry = _point(center.x, center.y)
        elif record.source_episode is not None:
            center = record.source_episode.center()
            geometry = _point(center.x, center.y)
        else:
            geometry = None
        if geometry is None and not include_unplaced:
            continue
        features.append(_feature(geometry if geometry is not None else _point(0.0, 0.0), properties))
    return {
        "type": "FeatureCollection",
        "features": features,
        "properties": {
            "trajectory_id": structured.trajectory_id,
            "object_id": structured.object_id,
            "record_count": len(structured),
        },
    }
