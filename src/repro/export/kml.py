"""KML serialisation of structured semantic trajectories.

The paper's Web Interface serves KML documents rendered with a Google Earth
plugin (Figures 15 and 16 are screenshots of those).  This builds the
equivalent KML text: one placemark per semantic episode record (a Point with a
description listing the attached annotations).
"""

from __future__ import annotations

from typing import List
from xml.sax.saxutils import escape

from repro.core.trajectory import StructuredSemanticTrajectory

_KML_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n<kml xmlns="http://www.opengis.net/kml/2.2">\n<Document>\n'
_KML_FOOTER = "</Document>\n</kml>\n"


def _placemark(name: str, description: str, geometry: str) -> str:
    return (
        "<Placemark>"
        f"<name>{escape(name)}</name>"
        f"<description>{escape(description)}</description>"
        f"{geometry}"
        "</Placemark>\n"
    )


def _point(x: float, y: float) -> str:
    return f"<Point><coordinates>{x},{y},0</coordinates></Point>"


def structured_trajectory_to_kml(structured: StructuredSemanticTrajectory) -> str:
    """One Point placemark per semantic episode record.

    The description carries the episode kind, time interval, place category
    and any activity / transportation-mode annotation — the information the
    paper's web interface displays when a placemark is clicked.
    """
    parts: List[str] = [_KML_HEADER]
    for index, record in enumerate(structured):
        if record.place is not None:
            center = record.place.bounding_box().center
            name = record.place.name
        elif record.source_episode is not None:
            center = record.source_episode.center()
            name = f"episode {index}"
        else:
            continue
        details = [
            f"kind: {record.kind.value}",
            f"from {record.time_in:.0f}s to {record.time_out:.0f}s",
        ]
        if record.place_category is not None:
            details.append(f"category: {record.place_category}")
        if record.transport_mode is not None:
            details.append(f"transport mode: {record.transport_mode}")
        if record.activity is not None:
            details.append(f"activity: {record.activity}")
        parts.append(_placemark(name, "; ".join(details), _point(center.x, center.y)))
    parts.append(_KML_FOOTER)
    return "".join(parts)
