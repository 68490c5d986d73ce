"""The benchmark's negative controls, run as part of the test suite.

``bench/workloads.py`` evaluates fixed inputs on ``perturbed_sl2`` for each
workload declared in ``BENCHMARK.json``; every residual must match the one
recorded in ``bench/controls.json``.  The module is executed from its source,
unchanged, and leaves no bytecode cache under ``bench/``.
"""

import json
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_workloads() -> types.ModuleType:
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_controls_reproduce_recorded_residuals(workload):
    got = workloads.control_residuals(workload)
    assert got == workloads.expected_controls(workload)
    assert "0" not in got
