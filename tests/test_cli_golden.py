"""Golden CLI output: the stdout and exit code of every suite, byte for byte.

Each case runs ``main`` in-process, once with ``--json`` and once in text
mode, and compares with ``data/cli_golden.json``.  Besides the ``check``
suites, the cases cover ``eval`` (the README examples, the expressions of
``test_expr.TestEvaluation`` and the usual error inputs) and ``info`` on
every builtin pair.  Those outputs are the
CLI's contract for identical seeds, failing reports included; re-record
them (``python tests/test_cli_golden.py``) only for a deliberate change of
output.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from schoutencalc.cli import main
from schoutencalc.instances import BUILTIN_PAIRS
from test_cli import CORRUPTED_SL2, ZERO_MORPHISM

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"
ALL_SUITES = (
    "leibniz",
    "jacobi-antisym",
    "jacobi-sym",
    "poisson",
    "weak-jacobi",
    "morphism-injection",
    "morphism-strict",
    "ce-square-zero",
    "combinatorial",
)
SWEEP = ("--trials", "5", "--seed", "3", "--max-n", "8")
# name -> (builtin pair, expression) for the eval cases.
EVALS = {
    "bracket": ("cartan2", "[d1^d2, x1]"),
    "three-bracket": ("cartan3", "{d1, d2, x1*x2*d3}_3"),
    "differential": ("sl2", "d(e1^e2)"),
    "injection": ("cartan2", "i_2(d1, d2)"),
    "rationals": ("cartan2", "1/2 * d1 + 1/2 * d1"),
    "negated-wedge": ("cartan2", "-d1 ^ d2"),
    "scalar-product": ("cartan2", "2 * 3"),
    "variable-power": ("cartan1", "x1^2"),
    "variable-wedge": ("cartan1", "x1^d1"),
    "sym-bracket": ("sl2", "{e1, e2}"),
    "sym-bracket-suffix": ("sl2", "{e1, e2}_2"),
    "syntax-error": ("cartan2", "[d1 d2]"),
    "unknown-symbol": ("cartan2", "q7"),
    "star-vectors": ("cartan2", "d1 * d2"),
    "differential-cartan": ("cartan1", "d(d1)"),
    "injection-degree": ("cartan2", "i_1(d1^d2)"),
}
# Written to files for each run; an argv entry "{corrupted}" or "{zero}" names them.
DOCUMENTS = {"corrupted": CORRUPTED_SL2, "zero": ZERO_MORPHISM}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for pair in ("sl2", "cartan2", "gl2", "cartan3"):
        for suite in ALL_SUITES:
            cases[f"{pair}-{suite}"] = ["--pair", f"builtin:{pair}", "check", suite, *SWEEP]
    for suite in ALL_SUITES:
        cases[f"corrupted-sl2-{suite}"] = [
            "--pair", "{corrupted}", "--no-validate", "check", suite, "--trials", "20", "--seed", "3",
        ]
    cases["cartan2-zero-morphism"] = [
        "--pair", "builtin:cartan2", "check", "morphism-strict", "--morphism", "{zero}", *SWEEP,
    ]
    for name, (pair, expression) in EVALS.items():
        cases[f"eval-{name}"] = ["--pair", f"builtin:{pair}", "eval", "--", expression]
    for pair in BUILTIN_PAIRS:
        cases[f"{pair}-info"] = ["--pair", f"builtin:{pair}", "info"]
    return {
        f"{name}/{mode}": (["--json"] if mode == "json" else []) + argv
        for name, argv in cases.items()
        for mode in ("json", "text")
    }


CASES = _cases()


def run_main(argv: list[str], directory: Path) -> tuple[int, str]:
    """Exit code and stdout of ``main(argv)``; stderr is not part of the contract."""
    files = {}
    for key, document in DOCUMENTS.items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps(document))
        files["{" + key + "}"] = str(path)
    argv = [files.get(arg, arg) for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, golden, tmp_path):
    code, stdout = run_main(CASES[case], tmp_path)
    assert {"exit": code, "stdout": stdout} == golden[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        record = {}
        for case, argv in CASES.items():
            code, stdout = run_main(argv, Path(directory))
            record[case] = {"exit": code, "stdout": stdout}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
