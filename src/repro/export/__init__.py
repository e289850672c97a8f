"""Export of structured semantic trajectories to GeoJSON and KML.

The paper's companion Web Interface ([31]) serves trajectory visualisations as
KML files rendered by a Google Earth plugin.  This package provides the
equivalent serialisation: a structured semantic trajectory can be exported as
a GeoJSON feature collection (the modern exchange format) or as a KML
document, ready to be dropped into any map viewer.
"""

from repro.export.geojson import structured_trajectory_to_geojson
from repro.export.kml import structured_trajectory_to_kml

__all__ = [
    "structured_trajectory_to_geojson",
    "structured_trajectory_to_kml",
]
