"""Figure 14: landuse category distribution and top-5 categories per user.

For people trajectories the paper reports that building (1.2) and transport
(1.3) areas still dominate but with a smaller combined share (~61 %) than for
taxis (~83 %), because people also spend time in recreation areas, parks,
lake-side paths, and so on.  The figure lists the top-5 landuse categories per
user.  This benchmark reproduces the per-user distributions, the top-5 lists
and the taxi-vs-people dominance comparison.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analytics.distributions import cumulative_share, normalize_counts, top_k_categories
from repro.analytics.reporting import render_table
from repro.regions.annotator import RegionAnnotator


def test_fig14_people_landuse(benchmark, world, people_dataset, taxi_dataset, people_config):
    annotator = RegionAnnotator(world.region_source(), people_config.region)

    def compute():
        return {
            user: annotator.point_category_distribution(trajectories)
            for user, trajectories in people_dataset.trajectories_by_user.items()
        }

    per_user_counts = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = []
    for user in people_dataset.user_ids:
        counts = per_user_counts[user]
        top5 = top_k_categories(counts, k=5)
        rows.append(
            [
                user,
                ", ".join(f"{category} ({share:.2f})" for category, share in top5),
                f"{cumulative_share(counts, ['1.2', '1.3']):.2f}",
            ]
        )
    text = render_table(
        ["user", "top-5 landuse categories (share)", "1.2+1.3 share"],
        rows,
        title="Figure 14 - Landuse category distribution of people trajectories",
    )

    # Compare the building+transport dominance against the taxi dataset (Fig. 9).
    people_counts: dict = {}
    for counts in per_user_counts.values():
        for category, value in counts.items():
            people_counts[category] = people_counts.get(category, 0) + value
    taxi_counts = annotator.point_category_distribution(taxi_dataset.trajectories)
    people_share = cumulative_share(people_counts, ["1.2", "1.3"])
    taxi_share = cumulative_share(taxi_counts, ["1.2", "1.3"])
    text += (
        f"\n\nbuilding+transport share: taxis {taxi_share:.2f} vs people {people_share:.2f} "
        "(people are less concentrated, as in the paper)"
    )
    save_result("fig14_people_landuse", text)

    for user, counts in per_user_counts.items():
        distribution = normalize_counts(counts)
        assert distribution, f"user {user} has no annotated points"
        assert max(distribution.values()) <= 1.0
    assert people_share < taxi_share + 0.05
