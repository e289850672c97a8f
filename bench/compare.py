"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.json B.json``.

Each file holds the records ``bench/run.py --out FILE`` appended, one JSON
object per line, several runs (seeds) per workload.  One row is printed per
(workload, end-to-end metric): each side's median and quartiles, the ratio of
B's median to A's (A is the base), and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

* ``within bound`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is, and both sides repeat within the bound;
* ``unresolved`` — a side's own spread (interquartile distance over median)
  exceeds the bound, so the runs cannot tell.

Exit code 1 when any row is worse or unresolved.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import ROOT, stats

Samples = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Samples:
    """Values per (workload, metric) from the untraced records of ``path``."""
    samples: Samples = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, metric in record["metrics"].items():
                samples[(record["workload"], name)].append(float(metric["value"]))
    return samples


def worsening(base: float, other: float, better: str) -> float:
    """By what share of ``base`` the ``other`` median is worse (negative: better)."""
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    if max(stats.spread(a), stats.spread(b)) > bound:
        return "unresolved"
    if worsening(stats.quartiles(a)[1], stats.quartiles(b)[1], better) > bound:
        return "worse"
    return "within bound"


def compare(a: Samples, b: Samples, end_to_end: Sequence[dict]) -> List[dict]:
    rows = []
    workloads = sorted({workload for workload, _ in a} & {workload for workload, _ in b})
    for workload in workloads:
        for metric in end_to_end:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            qa, qb = stats.quartiles(a[key]), stats.quartiles(b[key])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": qa,
                    "b": qb,
                    "runs": (len(a[key]), len(b[key])),
                    "spread": (stats.spread(a[key]), stats.spread(b[key])),
                    "ratio": qb[1] / qa[1],
                    "bound": metric["bound"],
                    "verdict": verdict(a[key], b[key], metric["better"], metric["bound"]),
                }
            )
    return rows


def render(rows: Sequence[dict]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<18} {'A median [q1, q3]':<36} {'B median [q1, q3]':<36} "
        f"{'B/A':>6} {'spread A/B':>13} {'bound':>6}  verdict"
    ]
    for row in rows:
        sides = [
            f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={runs}"
            for (q1, q2, q3), runs in zip((row["a"], row["b"]), row["runs"])
        ]
        lines.append(
            f"{row['workload']:<16} {row['metric']:<18} {sides[0]:<36} {sides[1]:<36} "
            f"{row['ratio']:>6.3f} {row['spread'][0]:>6.1%}/{row['spread'][1]:<6.1%} "
            f"{row['bound']:>6.0%}  {row['verdict']} ({row['unit']}, base A)"
        )
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    rows = compare(load(argv[0]), load(argv[1]), end_to_end)
    print(render(rows))
    return int(any(row["verdict"] != "within bound" for row in rows))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
