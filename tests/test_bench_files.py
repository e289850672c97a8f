"""The committed perf trajectory: BENCH files re-derive, and ROADMAP's table is generated.

``scripts/ladder.py`` writes one ``BENCH_<pr>.json`` per measured PR and
prints ROADMAP.md's "Measured / fast" ``events_per_s`` table from them and
from ``BENCH_history.json`` (``--table``).  The table in ROADMAP.md must be
that output, row for row, and every committed BENCH file — a claim-free one
(``"claim": null``) included — must reproduce its verdicts from its records
(``--check``).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", REPO / "scripts" / "ladder.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _roadmap_table() -> list:
    """The markdown table under ROADMAP.md's ``| PR | `batch_store` | ...`` header."""
    lines = [line.strip() for line in (REPO / "ROADMAP.md").read_text("utf-8").splitlines()]
    workloads = ("batch_store", "stream_engine", "service_thread", "service_durable")
    start = lines.index("| PR | " + " | ".join(f"`{name}`" for name in workloads) + " |")
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return lines[start:end]


def test_the_roadmap_table_is_the_generated_one(ladder):
    assert _roadmap_table() == ladder.table()


@pytest.mark.parametrize("path", sorted(REPO.glob("BENCH_[0-9]*.json")), ids=lambda p: p.name)
def test_a_bench_file_reproduces_its_verdicts(ladder, path, capsys):
    assert ladder.check(str(path)) == 0
    assert "reproduced" in capsys.readouterr().out


def test_a_claim_free_run_checks(ladder, tmp_path):
    """``--claim none`` writes ``"claim": null``, and ``--check`` accepts it."""
    document = json.loads((REPO / "BENCH_47.json").read_text("utf-8"))
    assert ladder.judge(document["records"], "none") is None
    document["claim"] = None
    path = tmp_path / "BENCH_0.json"
    path.write_text(ladder.dump(document), encoding="utf-8")
    assert ladder.main(["--check", str(path)]) == 0
