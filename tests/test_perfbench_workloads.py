"""The benchmark's workload code, perfbench/workloads.py, run in-process at
each workload's tiny size, so a library change that breaks a call the
benchmark makes (`split_values`, `Dataset.mean`/`std`, `model_state`, ...)
fails in the test suite too."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_reports_no_problem(workloads, name, tmp_path):
    w = workloads.WORKLOADS[name].tiny()
    s = workloads.set_up(w, seed=1, scratch=str(tmp_path))
    unit = workloads.run_unit(w, s)
    assert unit.problems == [] and unit.windows > 0
    assert workloads.LatencyProbe(w, s).run(3) == []
