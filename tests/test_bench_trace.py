"""The benchmark's traced runs, in small form, as part of the test suite.

For each workload declared in ``BENCHMARK.json`` this runs the unchanged
``bench/worker.py fixed <workload> 1 <count> 1`` in a fresh interpreter, as
``bench/run.py`` does: the layer tracer must bind every traced name (the
worker fails otherwise), every case must return zero, and every per-layer
metric the benchmark declares must be reported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# Computed by bench/run.py from the plain and traced runs, not by the worker.
RUN_LEVEL = {"trace.overhead_ratio"}
LAYER_METRICS = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in RUN_LEVEL]
# About 0.3 s of cases each.
CASES = {"schouten-cartan3": 40, "weak-jacobi-gl2": 10, "injection-sl2": 2}
# Counters each workload's code path must reach.  A traced function bound
# where the tracer cannot rebind it (a stored reference, a partial) reads 0.
REACHED = {
    "schouten-cartan3": ["schouten.sn_sym.calls"],
    "weak-jacobi-gl2": ["linfty.n_bracket.calls"],
    "injection-sl2": ["linfty.n_bracket.calls", "linfty.natural_injection.calls"],
}


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "fixed", workload, "1", str(CASES[workload]), "1"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_cases_pass_and_report_every_layer(workload):
    result = traced_run(workload)
    assert result["cases"] == CASES[workload]
    assert result["failed"] == 0, result["errors"]
    metrics = result["metrics"]
    assert [name for name in LAYER_METRICS if name not in metrics] == []
    assert metrics["schouten.sn_antisym.calls"] > 0
    assert [name for name in REACHED[workload] if not metrics[name] > 0] == []
