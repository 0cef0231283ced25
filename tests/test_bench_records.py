"""Benchmark records: each BENCH_*.json at the root of the repository.

A record keeps every run a performance change was measured with, parent
and change, so the trajectory can be compared across changes.  Each one
must parse and name only workloads and metrics that BENCHMARK.json
defines: end-to-end metrics for untraced runs, per-layer ones for traced
runs.  BENCHMARK.json is read here and never written.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _names(spec: dict, key: str) -> set:
    return {entry["name"] for entry in spec[key]}


def test_records_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_only_what_the_benchmark_defines(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = _names(spec, "workloads")
    end_to_end = _names(spec, "end_to_end")
    per_layer = _names(spec, "per_layer")
    record = json.loads(path.read_text())
    for key in ("host", "python", "mpmath"):
        assert record[key], key
    assert record["runs"]
    for run in record["runs"]:
        assert run["workload"] in workloads
        assert run["side"] in ("parent", "change")
        assert isinstance(run["seed"], int)
        assert run["run_seconds"] > 0
        assert run["end_to_end"] and set(run["end_to_end"]) <= end_to_end
        assert all(isinstance(v, (int, float)) for v in run["end_to_end"].values())
    for row in record.get("summary", []):
        assert row["workload"] in workloads
        assert row["metric"] in end_to_end
    for run in record.get("traced", []):
        assert run["workload"] in workloads
        assert run["side"] in ("parent", "change")
        assert run["per_layer"] and set(run["per_layer"]) <= per_layer
