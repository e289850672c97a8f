"""Command line of the cost-ladder benchmark.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1`` runs
one workload and prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` every workload runs in a process of its own.  Also
runnable as ``python3 -m bench.run``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):
    # Run as a script: make the checkout root importable instead of bench/
    # itself, whose ``trace.py`` would shadow the standard library's.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

import bench

WORKLOAD_NAMES = ("batch_store", "stream_engine", "service_thread", "service_durable")
QUICK_SECONDS = 1.5
SHM_PATTERN = "/dev/shm/semitri-*"


def contract() -> dict:
    with (bench.ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def machine_facts() -> Dict[str, object]:
    import numpy

    from repro.core.cpu import effective_cpu_count

    return {
        "nproc": os.cpu_count(),
        "effective_cores": effective_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": os.getloadavg()[0],
    }


def leftovers(workdir_root: Path, shm_before: Sequence[str]) -> List[str]:
    """What a run must not leave behind: children, shm segments, scratch files."""
    from bench.workloads import child_pids

    found = [f"live child process {pid}" for pid in child_pids()]
    found += [
        f"shared-memory segment {path}"
        for path in glob.glob(SHM_PATTERN)
        if path not in shm_before
    ]
    if workdir_root.exists():
        found.append(f"scratch directory {workdir_root}")
    return found


def stop_resource_tracker() -> None:
    """End the helper process ``multiprocessing.shared_memory`` starts, and reap it.

    It would exit with us anyway, but a benchmark run waits for every process
    it started.  (Only the traced run's ``share_context`` probe starts one.)
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One workload in this process; returns the full record (metrics with units)."""
    for knob in ("SEMITRI_FAULTS", "SEMITRI_OBSERVABILITY"):
        os.environ.pop(knob, None)  # the benchmark injects no faults and times telemetry itself
    from bench import fleet
    from bench.fleet import Ledger
    from bench.layers import layer_report
    from bench.workloads import WORKLOADS, Workdir

    facts = machine_facts()
    shm_before = glob.glob(SHM_PATTERN)
    size = fleet.QUICK if quick else fleet.FULL
    inputs = fleet.generate(seed, size)
    workdir = Workdir(bench.OUT / "tmp")
    ledger = Ledger()
    started = time.perf_counter()
    try:
        if trace:
            metrics = layer_report(workload, inputs, seconds, workdir, ledger, bench.OUT)
        else:
            metrics = WORKLOADS[workload](inputs, seconds, workdir, ledger)
    finally:
        workdir.remove()
        stop_resource_tracker()
    left = leftovers(workdir.root, shm_before)
    ledger.count(f"hygiene {left}", 1, int(bool(left)))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "events": inputs.events,
        "objects": len(inputs.order),
        "wall_s": time.perf_counter() - started,
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "samples": ledger.samples,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
        "config": fleet.pipeline_config().to_dict(),
        "machine": facts,
    }


def result_line(record: dict, names: Sequence[str]) -> str:
    """The driver's view of a record: exactly the named metrics."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: record["metrics"][name] for name in names},
        }
    )


def print_table(record: dict) -> None:
    print(
        f"# {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"events={record['events']}  objects={record['objects']}  wall={record['wall_s']:.1f}s  "
        f"failed={record['failed']}/{record['attempted']}"
    )
    for name, metric in sorted(record["metrics"].items()):
        print(f"{name:<48} {metric['value']:>16.4f} {metric['unit']}")
    for problem in record["problems"]:
        print(f"! {problem}")


def run_all(args: argparse.Namespace) -> Tuple[List[dict], int]:
    """Every workload, each in a process of its own so peaks and CPU do not mix."""
    records, status = [], 0
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--record",
        ] + (["--quick"] if args.quick else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=bench.ROOT)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if lines:
            records.append(json.loads(lines[-1]))
            print_table(records[-1])
    return records, status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="tiny fleet, for the smoke test")
    parser.add_argument("--out", help="append one JSON record per workload run to this file")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (bench.SRC / "repro").is_dir():
        print(f"no program to measure: {bench.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = contract()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])

    if args.workload is None:
        records, status = run_all(args)
        correct = all(record["correct"] for record in records)
        print(json.dumps({"correct": correct, "workloads": len(records)}))
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
        records, status = [record], int(not record["correct"])
        if args.record:
            print(json.dumps(record))
        else:
            print_table(record)
            names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
            print(result_line(record, names))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
