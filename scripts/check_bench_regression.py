#!/usr/bin/env python3
"""CI bench gate: compare benchmark sidecars against committed baselines.

Every benchmark writes a ``results/<name>.json`` sidecar whose ``"metrics"``
key maps metric names to **higher-is-better** throughput numbers (events/sec,
speedup ratios, ...) and whose ``"machine"`` key records the environment the
numbers were measured on.  This script compares each committed baseline under
``results/baselines/`` with the freshly produced sidecar of the same name and
fails when any metric regressed by more than the allowed fraction.

Like-with-like: when the baseline and the current run share a machine
fingerprint (python version, cpu count, system/arch, numpy version) the
strict ``--threshold`` applies (default 25%).  When the fingerprints differ —
e.g. a baseline recorded on a developer laptop checked against a CI runner —
the looser ``--cross-machine-threshold`` (default 60%) applies to *absolute*
metrics (events/sec and friends, which genuinely track hardware speed), but
``speedup_*`` metrics are ratios of two timings taken on the same machine in
the same process, so they get a tighter cross-machine allowance (50%): a
vectorized kernel collapsing towards scalar speed fails the gate on any
runner, not just the one the baseline was recorded on, while genuine
hardware spread in the ratios still fits.

Typical usage::

    # Run the quick benchmarks, then gate:
    PYTHONPATH=src python -m pytest benchmarks/test_vectorized_kernels.py -q
    python scripts/check_bench_regression.py

    # Accept the current numbers as the new baseline (commit the result):
    python scripts/check_bench_regression.py --update
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = REPO_ROOT / "results"
DEFAULT_BASELINES = REPO_ROOT / "results" / "baselines"

#: The machine-metadata keys that make two runs comparable.
FINGERPRINT_KEYS = ("python", "cpu_count", "system", "machine", "numpy")

#: Cross-machine allowance for ``speedup_*`` ratio metrics: tighter than the
#: absolute-metric allowance because both timings behind a ratio come from
#: one process on one machine, but not fully strict — SIMD width and cache
#: differences move large ratios noticeably between hosts.
RATIO_CROSS_MACHINE_ALLOWANCE = 0.50

UPDATE_HINT = (
    "If the regression is expected (e.g. the benchmark changed or a slower "
    "reference was adopted deliberately), refresh the baseline with:\n"
    "    PYTHONPATH=src python -m pytest benchmarks/test_vectorized_kernels.py -q\n"
    "    python scripts/check_bench_regression.py --update\n"
    "and commit the refreshed results/baselines/*.json files."
)


def load_sidecar(path: Path) -> Optional[dict]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"ERROR: cannot read {path}: {error}")
        return None
    # The telemetry section (span counts, metric snapshots) is observability
    # context, not a performance contract: drop it so a baseline recorded
    # with tracing off gates a run recorded with tracing on, and vice versa.
    payload.pop("telemetry", None)
    return payload


def fingerprint(payload: dict) -> Dict[str, object]:
    machine = payload.get("machine") or {}
    return {key: machine.get(key) for key in FINGERPRINT_KEYS}


def check_one(
    baseline_path: Path,
    results_dir: Path,
    threshold: float,
    cross_machine_threshold: float,
) -> List[str]:
    """Compare one baseline sidecar; returns a list of failure messages."""
    name = baseline_path.stem
    baseline = load_sidecar(baseline_path)
    if baseline is None:
        return [f"{name}: unreadable baseline"]
    baseline_metrics = baseline.get("metrics") or {}
    if not baseline_metrics:
        return [f"{name}: baseline has no metrics (remove it or re-record with --update)"]

    current_path = results_dir / baseline_path.name
    if not current_path.exists():
        return [
            f"{name}: no current result at {current_path} — did the quick "
            "benchmarks run before the gate?"
        ]
    current = load_sidecar(current_path)
    if current is None:
        return [f"{name}: unreadable current result"]
    current_metrics = current.get("metrics") or {}

    same_machine = fingerprint(baseline) == fingerprint(current)
    if not same_machine:
        print(
            f"NOTE: {name}: baseline recorded on a different machine "
            f"({fingerprint(baseline)} vs {fingerprint(current)}); absolute "
            f"metrics use the cross-machine threshold of "
            f"{cross_machine_threshold:.0%}, speedup ratios stay at {threshold:.0%}"
        )

    failures: List[str] = []
    for metric, reference in sorted(baseline_metrics.items()):
        if metric not in current_metrics:
            failures.append(f"{name}: metric {metric!r} missing from the current run")
            continue
        value = current_metrics[metric]
        # Ratios are machine-normalised (both timings from one process on one
        # machine), so cross-machine they keep a tight allowance; absolute
        # metrics fall back to the looser cross-machine threshold.
        is_ratio = metric.startswith("speedup_")
        if same_machine:
            allowed = threshold
        elif is_ratio:
            allowed = max(threshold, RATIO_CROSS_MACHINE_ALLOWANCE)
        else:
            allowed = cross_machine_threshold
        floor = reference * (1.0 - allowed)
        status = "ok"
        if value < floor:
            status = "REGRESSION"
            failures.append(
                f"{name}: {metric} regressed {reference:g} -> {value:g} "
                f"(floor {floor:g}, allowed drop {allowed:.0%})"
            )
        print(f"  {name}.{metric}: baseline={reference:g} current={value:g} [{status}]")
    return failures


def check_service_fairness(results_dir: Path) -> List[str]:
    """Multi-shard fairness of the thread service: an absolute timing gate.

    Adding a shard must not multiply tail latency: the 2-shard p99
    enqueue-to-absorbed latency (exact, best of the benchmark's rounds) must
    stay within 2x the 1-shard p99 plus 5 ms of slack for sub-millisecond
    tails; the historical regression was 10x.  It lives here, not in the
    tier-1 run of the benchmark, because it is a promise about timing.
    """
    path = results_dir / "service_throughput.json"
    if not path.exists():
        return []  # the service benchmark did not run; nothing to gate
    data = (load_sidecar(path) or {}).get("data") or {}
    if "thread_p99_1shard_s" not in data or "thread_p99_2shard_s" not in data:
        return ["service_throughput: sidecar records no thread_p99_* fairness samples"]
    p99_1, p99_2 = data["thread_p99_1shard_s"], data["thread_p99_2shard_s"]
    print(
        f"  service_throughput.fairness: 1-shard p99={p99_1 * 1e3:.2f} ms "
        f"2-shard p99={p99_2 * 1e3:.2f} ms"
    )
    if p99_2 > 2.0 * p99_1 + 0.005:
        return [
            f"service_throughput: 2-shard p99 {p99_2 * 1e3:.2f} ms blew past 2x "
            f"the 1-shard p99 {p99_1 * 1e3:.2f} ms"
        ]
    return []


def update_baselines(results_dir: Path, baselines_dir: Path, names: List[str]) -> int:
    """Copy current sidecars over the baselines; returns an exit code."""
    baselines_dir.mkdir(parents=True, exist_ok=True)
    if not names:
        names = sorted(path.stem for path in baselines_dir.glob("*.json"))
    if not names:
        print("ERROR: no baseline names given and none exist yet; pass names explicitly")
        return 1
    code = 0
    for name in names:
        source = results_dir / f"{name}.json"
        payload = load_sidecar(source) if source.exists() else None
        if payload is None:
            print(f"ERROR: cannot update {name}: no readable {source}")
            code = 1
            continue
        if not payload.get("metrics"):
            print(f"ERROR: cannot update {name}: sidecar has no metrics")
            code = 1
            continue
        shutil.copyfile(source, baselines_dir / f"{name}.json")
        print(f"updated baseline {name} from {source}")
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS)
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum allowed same-machine drop as a fraction (default 0.25)",
    )
    parser.add_argument(
        "--cross-machine-threshold",
        type=float,
        default=0.60,
        help="maximum allowed drop when machine fingerprints differ (default 0.60)",
    )
    parser.add_argument(
        "--update",
        nargs="*",
        metavar="NAME",
        default=None,
        help="refresh baselines from the current results instead of checking "
        "(no names = every existing baseline)",
    )
    args = parser.parse_args(argv)

    if args.update is not None:
        return update_baselines(args.results, args.baselines, args.update)

    baseline_paths = sorted(args.baselines.glob("*.json"))
    if not baseline_paths:
        print(f"ERROR: no baselines under {args.baselines}; record some with --update NAME")
        return 1

    failures: List[str] = []
    for baseline_path in baseline_paths:
        failures.extend(
            check_one(
                baseline_path, args.results, args.threshold, args.cross_machine_threshold
            )
        )
    failures.extend(check_service_fairness(args.results))
    if failures:
        print("\nBENCH GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        print(f"\n{UPDATE_HINT}")
        return 1
    print(f"\nbench gate OK ({len(baseline_paths)} baseline file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
