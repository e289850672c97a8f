"""Unit tests for GeoJSON and KML export."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ElementTree

import pytest

import repro
from repro.core.annotations import activity_annotation, transport_mode_annotation
from repro.core.episodes import Episode, EpisodeKind
from repro.core.places import PointOfInterest, RegionOfInterest
from repro.core.points import build_trajectory
from repro.core.trajectory import SemanticEpisodeRecord, StructuredSemanticTrajectory
from repro.export import structured_trajectory_to_geojson, structured_trajectory_to_kml
from repro.geometry.primitives import BoundingBox, Point


@pytest.fixture()
def trajectory():
    return build_trajectory(
        [(float(i * 10), float(i), float(i * 5)) for i in range(10)],
        object_id="u1",
        trajectory_id="traj",
    )


@pytest.fixture()
def structured(trajectory):
    region = RegionOfInterest(
        place_id="cell", name="cell", category="1.2", extent=BoundingBox(0, 0, 100, 100)
    )
    poi = PointOfInterest(place_id="cafe", name="cafe", category="feedings", location=Point(50, 5))
    episode = Episode(EpisodeKind.STOP, trajectory, 0, 3)
    return StructuredSemanticTrajectory(
        "traj:semantic",
        "u1",
        records=[
            SemanticEpisodeRecord(
                region, 0, 100, EpisodeKind.MOVE, [transport_mode_annotation("bus")]
            ),
            SemanticEpisodeRecord(
                poi, 100, 200, EpisodeKind.STOP, [activity_annotation("eating")]
            ),
            SemanticEpisodeRecord(None, 200, 300, EpisodeKind.MOVE, source_episode=episode),
        ],
    )


class TestGeoJson:

    def test_structured_trajectory_features(self, structured):
        document = structured_trajectory_to_geojson(structured)
        assert document["properties"]["record_count"] == 3
        features = document["features"]
        assert len(features) == 3
        assert features[0]["properties"]["transport_mode"] == "bus"
        assert features[1]["properties"]["activity"] == "eating"
        assert features[1]["properties"]["category"] == "feedings"
        # Every emitted feature is valid JSON.
        json.dumps(document)

    def test_structured_trajectory_can_skip_unplaced(self, structured):
        # Replace the third record's source episode with nothing so that it has
        # neither a place nor an episode, then ask to skip such records.
        bare = StructuredSemanticTrajectory(
            "t", "o", records=[SemanticEpisodeRecord(None, 0, 10, EpisodeKind.MOVE)]
        )
        document = structured_trajectory_to_geojson(bare, include_unplaced=False)
        assert document["features"] == []


class TestKml:

    def test_structured_trajectory_kml_placemarks(self, structured):
        text = structured_trajectory_to_kml(structured)
        root = ElementTree.fromstring(text)
        placemarks = root.findall(".//{http://www.opengis.net/kml/2.2}Placemark")
        assert len(placemarks) == 3
        descriptions = " ".join(
            node.findtext("{http://www.opengis.net/kml/2.2}description", default="")
            for node in placemarks
        )
        assert "transport mode: bus" in descriptions
        assert "activity: eating" in descriptions

    def test_kml_escapes_special_characters(self):
        odd = PointOfInterest(place_id="p", name="<odd> a&b", category="c", location=Point(0, 0))
        weird = StructuredSemanticTrajectory(
            "t", "o", records=[SemanticEpisodeRecord(odd, 0, 10, EpisodeKind.STOP)]
        )
        root = ElementTree.fromstring(structured_trajectory_to_kml(weird))  # raises unescaped
        names = root.findall(".//{http://www.opengis.net/kml/2.2}name")
        assert [node.text for node in names] == ["<odd> a&b"]

    def test_pipeline_output_exports(self, people_dataset, people_config, annotation_sources):
        trajectory = people_dataset.all_trajectories[0]
        result = repro.annotate(trajectory, annotation_sources, people_config)
        assert result.region_trajectory is not None
        geojson_document = structured_trajectory_to_geojson(result.region_trajectory)
        assert geojson_document["features"]
        kml_text = structured_trajectory_to_kml(result.region_trajectory)
        ElementTree.fromstring(kml_text)
