"""Committed benchmark results (BENCH_*.json at the repository root) parse
and name only the workloads and metrics BENCHMARK.json declares."""

import glob
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_files_name_only_declared_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        name = os.path.basename(path)
        assert data["workloads"], name
        for workload, entry in data["workloads"].items():
            assert workload in workloads, (name, workload)
            assert entry["metrics"], (name, workload)
            assert set(entry["metrics"]) <= end_to_end, (name, workload)
        traced = data.get("traced")
        if traced is not None:
            assert traced["workload"] in workloads, name
            assert set(traced["layers"]) <= per_layer, name
