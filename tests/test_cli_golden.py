"""Golden CLI output: the stdout and exit code of every suite, byte for byte.

Each case runs ``main`` in-process, once with ``--json`` and once in text
mode, and compares with ``data/cli_golden.json``.  Those outputs are the
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
# Written to files for each run; "{corrupted}" and "{zero}" in an argv name them.
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
        files[key] = directory / f"{key}.json"
        files[key].write_text(json.dumps(document))
    argv = [arg.format(**files) for arg in argv]
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
