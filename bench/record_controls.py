"""Record the negative controls' residuals in ``controls.json``.

Run from the repository root as ``python3 bench/record_controls.py``.  The
benchmark compares every run's control residuals with this file, so rerun it
only when the controls themselves change, never to make a run pass.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

recorded = {name: workloads.control_residuals(name) for name in workloads.CONTROL_INPUTS}
for name, residuals in recorded.items():
    if any(r == "0" for r in residuals):
        sys.exit(f"{name}: a negative control reads zero")
workloads.CONTROLS_FILE.write_text(json.dumps(recorded, indent=2) + "\n")
print(json.dumps(recorded, indent=2))
