"""One workload process of the benchmark, always in a fresh interpreter.

Usage, from the repository root (``bench/run.py`` starts these):

    python3 bench/worker.py setup WORKLOAD
    python3 bench/worker.py timed WORKLOAD SEED SECONDS
    python3 bench/worker.py fixed WORKLOAD SEED COUNT TRACE

Every mode first times its set-up: importing ``schoutencalc`` from ``src/``
and building and validating the workload's pair.  The package is compiled
from its sources on every set-up, as on a first import: no bytecode cache is
read or written for it, whatever ``__pycache__`` the checkout holds.
``timed`` then runs cases in a closed loop until they have taken ``SECONDS`` and at least ``MIN_CASES``
have run, with no warm-up pass, and evaluates the negative controls after the
timed phase.  Set-up and case times are rescaled to a nominal machine speed
(see ``WINDOW_S``).  ``fixed`` runs exactly ``COUNT`` cases, traced if
``TRACE`` is 1, and reports their measured time.  The result is one JSON object on
standard output.
"""

from __future__ import annotations

import importlib.machinery
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The pair each workload builds and validates during set-up.
PAIRS = {
    "injection-sl2": "sl2",
    "schouten-cartan3": "cartan3",
    "weak-jacobi-gl2": "gl2",
}
# p90 needs at least ten samples above it.
MIN_CASES = 100
# Cases generated per untimed refill of the timed loop.
BATCH = 32
# The host's speed drifts by tens of percent within minutes, so times are
# rescaled to a nominal speed: after every WINDOW_S of case time the
# reference loop is timed again, and the cases of that window are scaled by
# REFERENCE_S over the mean of the reference times around it.  REFERENCE_S
# is the loop's typical time on the 2-vCPU VM of the recorded seed numbers.
WINDOW_S = 0.3
REFERENCE_S = 0.013


class SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    """Compiles a module from its source and neither reads nor writes its
    bytecode cache: without source stats, ``get_code`` skips both."""

    def path_stats(self, path):
        raise OSError("bytecode cache bypassed")


def compile_package_from_source() -> None:
    """Load every module under ``src/`` with ``SourceOnlyLoader``; the
    standard library keeps its bytecode cache."""
    finder = importlib.machinery.FileFinder.path_hook(
        (SourceOnlyLoader, importlib.machinery.SOURCE_SUFFIXES)
    )

    def hook(path: str):
        if not Path(path or ".").resolve().is_relative_to(SRC):
            raise ImportError(f"{path} is not under {SRC}")
        return finder(path)

    sys.path_hooks.insert(0, hook)
    sys.path_importer_cache.pop(str(SRC), None)
    sys.path.insert(0, str(SRC))


def reference_s() -> float:
    """Time a fixed stdlib-only loop shaped like the package's inner loops:
    sparse products of polynomials with ``Fraction`` coefficients."""
    from fractions import Fraction

    start = time.perf_counter()
    a = {(i % 3, i % 5, i % 2): Fraction(i + 1, 3) for i in range(12)}
    b = {(i % 2, i % 4, i % 3): Fraction(2, i + 1) for i in range(12)}
    for _ in range(10):
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
    return time.perf_counter() - start


def set_up(workload: str):
    """Import the package and build the workload's pair.

    Returns the pair and the set-up time at nominal speed; the reference loop
    runs after the timed part, so it preloads nothing the import would do.
    """
    compile_package_from_source()
    start = time.perf_counter()
    import schoutencalc.instances

    pair = schoutencalc.instances.builtin_pair(PAIRS[workload])
    elapsed = time.perf_counter() - start
    if not Path(schoutencalc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"schoutencalc was imported from {schoutencalc.__file__}, not {SRC}")
    if not isinstance(schoutencalc.instances.__loader__, SourceOnlyLoader):
        raise SystemExit("schoutencalc was not compiled from source")
    reference = statistics.median(reference_s() for _ in range(3))
    return pair, elapsed * REFERENCE_S / reference


def run_case(residual, pair, case):
    """Evaluate one case; returns (seconds, error or None)."""
    start = time.perf_counter()
    try:
        result = residual(pair, case)
        ok = result.is_zero()
    except Exception as exc:  # a raising case is a failed case, not a crash
        return time.perf_counter() - start, f"{case[0]}: raised {exc!r}"
    elapsed = time.perf_counter() - start
    return elapsed, None if ok else f"{case[0]}: nonzero residual {result}"


def check_controls(workloads, workload: str) -> list[str]:
    """Errors of the negative controls: each must reproduce its recorded residual."""
    expected = workloads.expected_controls(workload)
    try:
        got = workloads.control_residuals(workload)
    except Exception as exc:
        return [f"negative controls raised {exc!r}"] * len(expected)
    return [
        f"negative control {i}: residual {g!r}, recorded {e!r}"
        for i, (g, e) in enumerate(zip(got, expected))
        if g != e or g == "0"
    ]


def timed(workload: str, pair, seed: int, seconds: float) -> dict:
    import workloads

    stream = workloads.case_stream(workload, pair, seed)
    durations: list[float] = []  # at nominal speed
    window: list[float] = []  # measured, not yet rescaled
    errors: list[str] = []
    busy = window_s = 0.0
    before = reference_s()
    while busy < seconds or len(durations) + len(window) < MIN_CASES:
        for case in list(itertools.islice(stream, BATCH)):
            elapsed, error = run_case(workloads.residual, pair, case)
            window.append(elapsed)
            window_s += elapsed
            busy += elapsed
            if error:
                errors.append(error)
            done = busy >= seconds and len(durations) + len(window) >= MIN_CASES
            if done or window_s >= WINDOW_S:
                after = reference_s()
                scale = REFERENCE_S * 2 / (before + after)
                durations += [d * scale for d in window]
                window, window_s, before = [], 0.0, after
            if done:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    control_errors = check_controls(workloads, workload)
    return {
        "cases": len(durations),
        "busy_s": busy,
        "scaled_s": sum(durations),
        "p50_s": deciles[4],
        "p90_s": deciles[8],
        "peak_rss_mb": peak_rss_mb,
        "controls": len(workloads.expected_controls(workload)),
        "failed": len(errors) + len(control_errors),
        "errors": (errors + control_errors)[:5],
    }


def fixed(workload: str, pair, seed: int, count: int, trace: bool) -> dict:
    import workloads

    cases = list(itertools.islice(workloads.case_stream(workload, pair, seed), count))
    errors: list[str] = []
    out: dict = {"cases": count}
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        for case in cases:
            elapsed, error = tracer.case(run_case, workloads.residual, pair, case)
            if error:
                errors.append(error)
        out["busy_s"] = tracer.wall_s()
        out["metrics"] = tracer.metrics()
    else:
        out["busy_s"] = 0.0
        for case in cases:
            elapsed, error = run_case(workloads.residual, pair, case)
            out["busy_s"] += elapsed
            if error:
                errors.append(error)
        control_errors = check_controls(workloads, workload)
        out["controls"] = len(workloads.expected_controls(workload))
        errors += control_errors
    out["failed"] = len(errors)
    out["errors"] = errors[:5]
    return out


def main(argv: list[str]) -> None:
    mode, workload = argv[1], argv[2]
    if workload not in PAIRS:
        raise SystemExit(f"unknown workload {workload!r}; choices: {sorted(PAIRS)}")
    pair, setup_s = set_up(workload)
    if mode == "setup":
        result = {}
    elif mode == "timed":
        result = timed(workload, pair, int(argv[3]), float(argv[4]))
    elif mode == "fixed":
        result = fixed(workload, pair, int(argv[3]), int(argv[4]), argv[5] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["setup_s"] = setup_s
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
