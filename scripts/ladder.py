#!/usr/bin/env python3
"""Run the cost ladder on two commits in alternating pairs and write a BENCH file.

Usage::

    python scripts/ladder.py PARENT CHANGE --pairs 10 --seconds 20 --seeds 4601-4610 \\
        --claim batch_store:events_per_s --out BENCH_46.json [--workdir DIR]
    python scripts/ladder.py --check BENCH_46.json
    python scripts/ladder.py --table

Each commit is exported with ``git archive`` into a directory of its own under
``--workdir`` (default: a new temporary directory): a plain tree of the
committed files, which is what the benchmark measures.  Pair ``i`` runs the
tree's own, unmodified ``bench/run.py --seed SEED --seconds S --out FILE``
(every workload) on both sides, the parent first in even pairs and the change
first in odd ones, with seed ``A + i``.  The raw records go to
``parent.jsonl`` and ``change.jsonl`` in the work directory, outside both
trees' ``bench/``.  ``bench/compare.py`` then reads them, and the BENCH file
holds both sides' records, the comparison rows with their verdicts, the
machine (``nproc``, Python, NumPy, median ``machine_slowdown``), the seeds,
and the claim with its result.

A claim ``WORKLOAD:METRIC`` is met when the change is better in at least nine
tenths of the pairs (ties count for neither side) and the medians differ, in
the better direction, by more than the parent's interquartile distance.
``--claim none`` records a run that claims nothing (``"claim": null``).

``--check FILE`` feeds the records a BENCH file holds back to
``bench/compare.py`` and exits 1 unless they reproduce its verdicts and
claim result.

``--table`` prints the ``events_per_s`` table of ROADMAP.md's "Measured /
fast" aim, one row per PR: the transcribed rows of ``BENCH_history.json``,
then each ``BENCH_<pr>.json`` (its per-workload medians, parent -> change),
which replaces a transcribed row of the same PR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from bench import compare, stats  # noqa: E402  (the repository's own, frozen bench)

SIDES = ("parent", "change")

#: Share of the pairs the change must win for a claim.
WIN_SHARE = 0.9


def parse_seeds(text: str) -> List[int]:
    """``A-B`` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def resolve(commit: str) -> str:
    """The full hash of ``commit`` in this repository."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout.strip()


def export(commit: str, directory: Path) -> None:
    """The committed files of ``commit`` as a plain tree in ``directory``."""
    directory.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=REPO, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)


def run_side(tree: Path, seed: int, seconds: float, out: Path) -> int:
    """One ``bench/run.py`` pass over every workload of ``tree``; its exit status."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable, "bench/run.py", "--seed", str(seed), "--seconds", str(seconds),
        "--out", str(out),
    ]
    print(f"# {tree.name} seed {seed}", flush=True)
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def read_records(path: Path) -> List[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def end_to_end() -> List[dict]:
    """The end-to-end metrics ``BENCHMARK.json`` fixes, with their bounds."""
    with (REPO / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def verdicts(parent: Path, change: Path) -> List[dict]:
    """``bench/compare.py``'s rows for two records files (parent as base A)."""
    rows = compare.compare(compare.load(str(parent)), compare.load(str(change)), end_to_end())
    return json.loads(json.dumps(rows))  # tuples as lists, as the file holds them


def by_seed(records: Sequence[dict], workload: str, metric: str) -> Dict[int, float]:
    return {
        record["seed"]: float(record["metrics"][metric]["value"])
        for record in records
        if record["workload"] == workload and not record.get("trace")
    }


def judge_claim(records: Dict[str, List[dict]], workload: str, metric: str) -> dict:
    """Pair wins, medians and the parent's quartile spread of one metric."""
    better = next(m["better"] for m in end_to_end() if m["name"] == metric)
    parent = by_seed(records["parent"], workload, metric)
    change = by_seed(records["change"], workload, metric)
    seeds = sorted(set(parent) & set(change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    losses = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    q1, parent_median, q3 = stats.quartiles([parent[s] for s in seeds])
    change_median = statistics.median(change[s] for s in seeds)
    gain = sign * (change_median - parent_median)
    return {
        "workload": workload,
        "metric": metric,
        "better": better,
        "pairs": len(seeds),
        "wins": wins,
        "losses": losses,
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median,
        "parent_iqr": q3 - q1,
        "met": wins >= math.ceil(WIN_SHARE * len(seeds)) and gain > q3 - q1,
    }


def machine(records: Dict[str, List[dict]]) -> dict:
    every = records["parent"] + records["change"]
    facts = every[0]["machine"]
    slowdowns = [
        record["metrics"]["machine_slowdown"]["value"]
        for record in every
        if "machine_slowdown" in record["metrics"]
    ]
    return {
        "nproc": facts["nproc"],
        "python": facts["python"],
        "numpy": facts["numpy"],
        "machine_slowdown_median": statistics.median(slowdowns) if slowdowns else None,
    }


def dump(document: dict) -> str:
    """The BENCH file's text: indented, one line per record."""
    parts = []
    for key, value in document.items():
        if key == "records":
            sides = ",\n".join(
                f"    {json.dumps(side)}: [\n"
                + ",\n".join(f"      {json.dumps(record)}" for record in side_records)
                + "\n    ]"
                for side, side_records in value.items()
            )
            parts.append(f'  "records": {{\n{sides}\n  }}')
        else:
            body = json.dumps(value, indent=2).replace("\n", "\n  ")
            parts.append(f"  {json.dumps(key)}: {body}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def judge(records: Dict[str, List[dict]], claim: str) -> Optional[dict]:
    """The judged ``WORKLOAD:METRIC`` claim, or ``None`` for ``none``."""
    if claim == "none":
        return None
    workload, _, metric = claim.partition(":")
    return judge_claim(records, workload, metric)


def ladder(args: argparse.Namespace) -> int:
    if len(args.seeds) != args.pairs:
        print(f"--seeds names {len(args.seeds)} seeds for {args.pairs} pairs", file=sys.stderr)
        return 2
    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="ladder-")).resolve()
    trees = {side: workdir / side for side in SIDES}
    outs = {side: workdir / f"{side}.jsonl" for side in SIDES}
    if any(out.exists() for out in outs.values()):
        print(f"{workdir} already holds records; pick a fresh --workdir", file=sys.stderr)
        return 2
    statuses: Dict[str, List[int]] = {side: [] for side in SIDES}
    first: List[str] = []
    try:
        for side in SIDES:
            export(commits[side], trees[side])
        for index, seed in enumerate(args.seeds):
            sides = SIDES if index % 2 == 0 else SIDES[::-1]
            first.append(sides[0])
            for side in sides:
                statuses[side].append(run_side(trees[side], seed, args.seconds, outs[side]))
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
    records = {side: read_records(outs[side]) for side in SIDES}
    rows = verdicts(outs["parent"], outs["change"])
    claim = judge(records, args.claim)
    document = {
        "parent": commits["parent"],
        "change": commits["change"],
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "first": first,
        "machine": machine(records),
        "runs": {
            side: {
                "records": len(records[side]),
                "incorrect": sum(not record["correct"] for record in records[side]),
                "failed_operations": sum(record["failed"] for record in records[side]),
                "nonzero_exits": sum(status != 0 for status in statuses[side]),
            }
            for side in SIDES
        },
        "claim": claim,
        "verdicts": rows,
        "records": records,
    }
    Path(args.out).write_text(dump(document), encoding="utf-8")
    print(compare.render(rows))
    print(json.dumps(claim))
    print(f"records in {workdir}; wrote {args.out}")
    return 0


def check(path: str) -> int:
    """1 unless the file's records reproduce its verdicts and claim result."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    records = document["records"]
    with tempfile.TemporaryDirectory(prefix="ladder-check-") as scratch:
        files = {}
        for side in SIDES:
            files[side] = Path(scratch) / f"{side}.jsonl"
            files[side].write_text(
                "".join(json.dumps(record) + "\n" for record in records[side]), encoding="utf-8"
            )
        rows = verdicts(files["parent"], files["change"])
    claim = document["claim"]
    again = None if claim is None else judge_claim(records, claim["workload"], claim["metric"])
    same = rows == document["verdicts"] and again == claim
    print(compare.render(rows))
    print(f"{path}: verdicts and claim {'reproduced' if same else 'DIFFER'}")
    return int(not same)


def workloads() -> List[str]:
    """The workloads ``BENCHMARK.json`` declares, in its order."""
    with (REPO / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return [workload["name"] for workload in json.load(handle)["workloads"]]


def bench_rows() -> Dict[int, Dict[str, dict]]:
    """Per PR, per workload: ``events_per_s`` as ``{"parent", "change"[, "note"]}``
    (or ``{"value"}``), from ``BENCH_history.json`` and the ``BENCH_<pr>.json`` files."""
    history = json.loads((REPO / "BENCH_history.json").read_text(encoding="utf-8"))
    rows = {row["pr"]: row["workloads"] for row in history["rows"]}
    for path in REPO.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match is None:
            continue
        records = json.loads(path.read_text(encoding="utf-8"))["records"]
        rows[int(match.group(1))] = {
            workload: {
                side: statistics.median(by_seed(records[side], workload, "events_per_s").values())
                for side in SIDES
            }
            for workload in workloads()
        }
    return rows


def table() -> List[str]:
    """ROADMAP.md's "Measured / fast" table, as markdown lines."""

    def rate(value: float) -> str:
        return f"{value / 1000:.1f}k"

    def cell(entry: Optional[dict]) -> str:
        if entry is None:
            return "—"
        text = rate(entry["value"]) if "value" in entry else (
            f"{rate(entry['parent'])} -> {rate(entry['change'])}"
        )
        return f"{text} ({entry['note']})" if "note" in entry else text

    names = workloads()
    lines = [
        "| PR | " + " | ".join(f"`{name}`" for name in names) + " |",
        "|---" * (len(names) + 1) + "|",
    ]
    for pr, row in sorted(bench_rows().items()):
        lines.append(f"| {pr} | " + " | ".join(cell(row.get(name)) for name in names) + " |")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="base commit (side A of bench/compare.py)")
    parser.add_argument("change", nargs="?", help="changed commit (side B)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0, help="bench/run.py --seconds")
    parser.add_argument("--seeds", type=parse_seeds, help="A-B: one seed per pair")
    parser.add_argument(
        "--claim", default="batch_store:events_per_s", help="WORKLOAD:METRIC, or none"
    )
    parser.add_argument("--out", help="the BENCH file to write")
    parser.add_argument("--workdir", help="where the trees and raw records go")
    parser.add_argument("--check", metavar="FILE", help="re-derive a BENCH file's verdicts")
    parser.add_argument("--table", action="store_true", help="print the ROADMAP ev/s table")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if args.table:
        print("\n".join(table()))
        return 0
    if not (args.parent and args.change and args.seeds and args.out):
        parser.error("PARENT, CHANGE, --seeds and --out are required without --check or --table")
    return ladder(args)


if __name__ == "__main__":
    sys.exit(main())
