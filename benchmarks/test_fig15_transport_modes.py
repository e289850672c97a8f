"""Figures 15/16: move annotation of home-office commutes.

Figure 15 walks through one metro commute: raw GPS points, the map-matched
road segments, the inferred transportation modes, and the summarised
road/mode sequence stored in the semantic trajectory store.  Figure 16 shows
the same home-office trip performed by bike and by bus.  This benchmark runs
the full line-annotation layer over the commute moves of the people dataset
and reports the per-commute-style mode sequences.
"""

from __future__ import annotations

from collections import Counter

from benchmarks.conftest import save_result
import repro
from repro.analytics.reporting import render_table
from repro.core import AnnotationSources


def test_fig15_transport_mode_annotation(benchmark, world, people_dataset, people_config):
    sources = AnnotationSources(road_network=world.road_network())
    by_style = {}

    def annotate_all():
        results = repro.annotate_many(
            people_dataset.all_trajectories, sources, people_config
        )
        styles = {}
        for result in results:
            style = people_dataset.profiles[result.trajectory.object_id].commute_style
            styles.setdefault(style, []).extend(result.transport_modes())
        return styles

    by_style = benchmark.pedantic(annotate_all, rounds=1, iterations=1)

    rows = []
    for style in sorted(by_style):
        modes = by_style[style]
        counter = Counter(modes)
        summary = ", ".join(f"{mode}:{count}" for mode, count in counter.most_common())
        rows.append([style, len(modes), summary])
    text = render_table(
        ["commute style", "#mode segments", "inferred mode counts"],
        rows,
        title="Figures 15/16 - Transportation modes inferred for home-office commutes",
    )

    # Figure 15(d): the summarised walk -> metro -> walk sequence of one metro user.
    metro_users = [
        user
        for user, profile in people_dataset.profiles.items()
        if profile.commute_style == "metro"
    ]
    example_lines = []
    if metro_users:
        user = metro_users[0]
        trajectory = people_dataset.trajectories_by_user[user][0]
        result = repro.annotate(trajectory, sources, people_config)
        for structured in result.line_trajectories[:2]:
            for record in structured:
                place = record.place.name if record.place is not None else "(off-road)"
                example_lines.append(
                    f"  {record.transport_mode or '-':8s} {place:28s} "
                    f"{record.time_in:8.0f}s -> {record.time_out:8.0f}s"
                )
    if example_lines:
        text += "\n\nExample metro commute (road/mode sequence, Figure 15d):\n"
        text += "\n".join(example_lines)
    save_result("fig15_transport_modes", text)

    assert "metro" in by_style and "metro" in {m for m in by_style["metro"]}
    assert "walk" in {m for modes in by_style.values() for m in modes}
    bike_modes = set(by_style.get("bicycle", []))
    assert "bicycle" in bike_modes
    bus_modes = set(by_style.get("bus", []))
    assert "bus" in bus_modes or "car" in bus_modes
