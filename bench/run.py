"""Benchmark of schoutencalc's identity checks.

Usage, from the repository root:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: a case (one residual
evaluation plus its zero test) starts when the previous one returns.  Every
workload runs in fresh interpreters started by ``worker.py``, one at a time,
with no warm-up pass, so a cache that fills during the run is measured with
its fill cost and no workload warms another.  Workers neither read nor write
the package's bytecode cache, so every set-up compiles the package as a first
import does, whatever ``__pycache__`` the checkout already holds.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
``SETUP_RUNS`` fresh interpreters of importing the package and building and
validating the workload's pair), ``cases_per_s`` (cases over the time the
cases took), ``case_p50_ms`` and ``case_p90_ms`` (at least ``MIN_CASES``
cases, so ten or more lie above the p90) and ``peak_rss_mb`` (peak resident
set of the timed process).  These times are rescaled to a nominal machine
speed by a reference loop timed alongside them (see ``worker.py``); the
measured case time is printed too.  ``--trace 1`` runs a fixed, seeded number of
cases once untraced and twice traced, each in its own interpreter, requires
the two traced runs to count identical operations, and prints the per-layer
metrics of ``layertrace.py`` plus ``trace.overhead_ratio``.

Every case must return the zero multivector and every negative control its
recorded nonzero residual.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only if the run was correct.  ``record.json`` holds which end-to-end
metric each layer metric should move, and the numbers of the first commit
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
from worker import PAIRS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 9
# Size of a traced run, in cases per requested second.  The untraced pass and
# the two traced passes together took 1.2 to 1.6 times the requested time on
# the machine of the numbers in record.json.
TRACE_CASES_PER_S = {
    "injection-sl2": 0.9,
    "schouten-cartan3": 160.0,
    "weak-jacobi-gl2": 30.0,
}
# Each workload's run must finish within three minutes.
DEADLINE_S = 170.0
DETERMINISTIC_SUFFIXES = (".calls", ".perms", ".zero_ratio")


def spawn(deadline: float, *args) -> dict:
    """Run one worker in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(map(str, args))} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    setups = [spawn(deadline, "setup", workload)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    res = spawn(deadline, "timed", workload, seed, seconds)
    setups.append(res["setup_s"])
    n = res["cases"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh interpreters, nominal speed"),
        "cases_per_s": (
            n / res["scaled_s"],
            "1/s",
            f"{n} cases in {res['scaled_s']:.2f} s at nominal speed ({res['busy_s']:.2f} s measured)",
        ),
        "case_p50_ms": (res["p50_s"] * 1000, "ms", f"n={n}, nominal speed"),
        "case_p90_ms": (res["p90_s"] * 1000, "ms", f"n={n}, {n - int(0.9 * n)} above, nominal speed"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "timed process"),
    }
    return metrics, n + res["controls"], res["failed"], res["errors"], []


def traced(workload: str, seed: int, seconds: float, deadline: float):
    count = max(1, round(seconds * TRACE_CASES_PER_S[workload]))
    plain = spawn(deadline, "fixed", workload, seed, count, 0)
    runs = [spawn(deadline, "fixed", workload, seed, count, 1) for _ in range(2)]
    first, second = (run["metrics"] for run in runs)
    problems = [
        f"{name} differs between two traced runs: {first[name]} vs {second[name]}"
        for name in first
        if name.endswith(DETERMINISTIC_SUFFIXES) and first[name] != second[name]
    ]
    metrics = {}
    for name, value in first.items():
        unit = layertrace.UNITS[name.rsplit(".", 1)[1]]
        if name.endswith(DETERMINISTIC_SUFFIXES):
            metrics[name] = (value, unit, f"{count} cases, equal in 2 traced runs")
        else:
            metrics[name] = ((value + second[name]) / 2, unit, f"mean of 2 traced runs of {count} cases")
    overhead = statistics.mean(run["busy_s"] for run in runs) / plain["busy_s"]
    metrics["trace.overhead_ratio"] = (
        overhead,
        "ratio",
        f"traced over untraced case time, {count} cases",
    )
    attempted = 3 * count + plain["controls"]
    failed = plain["failed"] + sum(run["failed"] for run in runs)
    errors = plain["errors"] + [e for run in runs for e in run["errors"]]
    return metrics, attempted, failed, errors, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*PAIRS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "schoutencalc" / "__init__.py").is_file():
        print(f"no schoutencalc sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    names = list(PAIRS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    run = traced if args.trace else untraced
    combined: dict[str, dict] = {}
    attempted = failed = 0
    problems: list[str] = []
    for name in names:
        metrics, tried, bad, errors, issues = run(name, args.seed, args.seconds, deadline)
        attempted += tried
        failed += bad
        problems += issues
        print(f"[{name}] seed {args.seed}, closed loop, 1 client, trace {args.trace}")
        for metric, (value, unit, note) in metrics.items():
            print(f"  {metric:<44} {value:>14.6g} {unit:<6} {note}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            combined[key] = {"value": value, "unit": unit}
        ratio = bad / tried
        print(f"  {'fail_ratio':<44} {ratio:>14.6g} {'ratio':<6} {bad} failed of {tried} attempted")
        for message in errors + issues:
            print(f"  FAIL {message}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
