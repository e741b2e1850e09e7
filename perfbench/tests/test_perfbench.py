"""Self-test of the benchmark: each workload at its tiny size.

    python3 -m pytest perfbench/tests -q

Every run is a fresh process, as the benchmark is always run.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# counts that must repeat exactly between two runs of the same seed
EXACT = ("tensor.ops_per_forward", "tensor.closures_per_forward",
         "tensor.graph_mb")


def run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, \
        proc.stderr
    return out["metrics"]


def assert_reports(metrics, declared):
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float)


def test_names_and_units_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"])
               for key in ("end_to_end", "per_layer") for m in SPEC[key])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_repeats(workload):
    plain = [result(workload, 0) for _ in range(2)]
    traced = [result(workload, 1) for _ in range(2)]
    for metrics in plain:
        assert_reports(metrics, SPEC["end_to_end"])
    for metrics in traced:
        assert_reports(metrics, SPEC["per_layer"])
    assert plain[0]["quality_mse"] == plain[1]["quality_mse"]
    for name in EXACT:
        assert traced[0][name] == traced[1][name]
        assert traced[0][name]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
