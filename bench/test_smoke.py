"""Smoke and unit tests of the benchmark itself: ``pytest bench -q``.

Not part of tier-1 (``testpaths`` names ``tests`` and ``benchmarks`` only).
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import bench
from bench import compare, fleet, loadgen, stats
from bench.trace import SpanRecorder

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(bench.BENCH / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=bench.ROOT, capture_output=True, text=True, timeout=120
    )


# ------------------------------------------------------------------------ contract
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16 and SPEC["paths"] == ["bench"]
    assert all(len(part) <= 200 for part in SPEC["command"]) and len(SPEC["command"]) <= 32
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]
    ]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) <= 3420, "the driver's time cap"


def test_quick_run_emits_every_metric_with_its_unit(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "runs.json"
    everything = _run("--quick", "--out", str(out))
    assert everything.returncode == 0, everything.stdout + everything.stderr
    traced = _run("--quick", "--workload", "service_durable", "--trace", "1")
    assert traced.returncode == 0, traced.stdout + traced.stderr
    assert time.perf_counter() - started < 30.0

    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [record["workload"] for record in records] == [w["name"] for w in SPEC["workloads"]]
    for record in records:
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        for metric in SPEC["end_to_end"]:
            reported = record["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"] and reported["value"] > 0

    last = json.loads(traced.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
    assert set(last["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert (bench.OUT / "trace-service_durable.jsonl").stat().st_size > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    bare = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch_store", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert bare.returncode != 0 and bare.stdout.strip() == ""


# ------------------------------------------------------------------ load generation
def test_same_seed_same_schedule():
    first, second = fleet.generate(7, fleet.QUICK), fleet.generate(7, fleet.QUICK)
    assert first.ops == second.ops and first.order == second.order
    assert fleet.generate(8, fleet.QUICK).ops != first.ops
    assert loadgen.due_times(4, 2000.0) == [0.0, 0.0005, 0.001, 0.0015]
    assert first.events == sum(point is not None for _, point in first.ops)
    for object_id, points in first.streams.items():  # per-object order survives the interleave
        replayed = [point for oid, point in first.ops if oid == object_id]
        assert replayed == points + [None]


def test_open_loop_charges_a_slow_sink_from_the_due_time():
    class FakeTime:
        now = 0.0

        def clock(self) -> float:
            return self.now

        async def sleep(self, seconds: float) -> None:
            self.now += seconds

    fake = FakeTime()

    async def slow_ingest(object_id: str, point: object) -> None:
        fake.now += 0.005  # each call takes 5 ms; operations are due every 1 ms

    async def slow_close(object_id: str) -> None:
        fake.now += 0.005

    ops = [("a", object())] * 9 + [("a", None)]
    report = asyncio.run(
        loadgen.open_loop(ops, 1000.0, slow_ingest, slow_close, fake.clock, fake.sleep)
    )
    for index in range(len(ops)):
        assert report.late[index] == pytest.approx(0.004 * index)  # the generator fell behind
        assert report.accepted[index] == pytest.approx(0.005 * (index + 1) - 0.001 * index)
    assert stats.percentile(report.late, 99.0) == pytest.approx(0.036)


def test_open_loop_waits_for_the_schedule_when_the_sink_is_fast():
    async def instant(*args: object) -> None:
        return None

    started = time.perf_counter()
    report = asyncio.run(loadgen.open_loop([("a", object())] * 20, 200.0, instant, instant))
    assert time.perf_counter() - started >= report.due[-1]
    assert all(late >= 0.0 for late in report.late)


# -------------------------------------------------------------------------- numbers
def test_percentile_rule():
    hundred = list(range(1, 101))
    assert stats.percentile(hundred, 50.0) == 50 and stats.percentile(hundred, 99.0) == 99
    assert stats.percentile([4, 1, 3, 2], 50.0) == 2  # always a measured sample
    # the highest percentile with at least ten samples beyond it, next to the median
    assert [stats.supported_percentile(n) for n in (5, 19, 20, 100, 200, 1000, 10_000)] == [
        50.0, 50.0, 50.0, 90.0, 95.0, 99.0, 99.9,
    ]
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_interference_correction_cancels_a_slowed_machine():
    from bench.workloads import Repetitions

    value, slowdown = stats.bracketed(lambda: "done")
    assert value == "done" and 0.2 < slowdown < 5.0  # the reference machine reads about 1
    # Three repetitions of 1,000 events; the machine ran at half speed during the second.
    reps = Repetitions(events=1000, rates=[1000.0, 500.0, 1000.0], cpus=[1.0, 2.0, 1.0],
                       slowdowns=[1.0, 2.0, 1.0])
    metrics = reps.metrics(fleet.Ledger(), [(0.1, 1.0), (0.3, 3.0), (0.1, 1.0)], 0.0)
    assert metrics["events_per_s"][0] == pytest.approx(1000.0)
    assert metrics["cpu_s_per_kevent"][0] == pytest.approx(1.0)
    assert metrics["setup_s"][0] == pytest.approx(0.1)
    assert metrics["events_per_s_raw"][0] == pytest.approx(1000.0)


def test_span_self_time_excludes_covered_children():
    recorder = SpanRecorder()
    root = recorder.add("run", "t1", 0.0, 10.0)
    recorder.add("stage", "t1", 1.0, 4.0, parent=root)
    recorder.add("stage", "t1", 3.0, 6.0, parent=root)  # overlap counts once
    assert recorder.self_times() == {"run": pytest.approx(5.0), "stage": pytest.approx(6.0)}


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    slightly_slower = [value * 0.97 for value in steady]
    assert compare.verdict(steady, slightly_slower, "higher", 0.1) == "within bound"
    assert compare.verdict(steady, [value * 0.8 for value in steady], "higher", 0.1) == "worse"
    assert compare.verdict(steady, [value * 1.3 for value in steady], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [60.0, 100.0, 140.0, 80.0, 120.0], "higher", 0.1) == "unresolved"
