"""Tiny-size smoke test of the benchmark itself.

Run from the repository root::

    python3 -m pytest e2ebench/test_smoke.py -q

It runs every workload briefly, untraced and traced, checks that every
metric ``BENCHMARK.json`` names is printed with its unit, and checks that
a falsified reference row is counted as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_reference_row_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from session import run_workload

    result = run_workload("serve-churn", 3, 2, trace=False,
                          work_dir=tmp_path / "run", corrupt_reference=True)
    tally = result["tally"]
    assert tally.failed >= 1
    assert tally.reasons == {"served row differs from the reference":
                             tally.failed}


def test_workload_records_match_benchmark_json():
    records = json.loads((HERE / "workloads.json").read_text())
    assert [w["name"] for w in records["workloads"]] == WORKLOAD_NAMES
    assert records["run_seconds"] == SPEC["run_seconds"]
    for record in records["workloads"]:
        assert {"why", "loop", "properties", "inputs"} <= set(record)


def test_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "e2ebench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "e2ebench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
