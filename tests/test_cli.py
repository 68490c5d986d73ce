"""Command-line behaviour: output formats, determinism and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schoutencalc
from schoutencalc.cli import main

# The CLI runs in a child interpreter; point it at the package this test
# run imported, which pytest may have found through its own pythonpath.
PACKAGE_ROOT = str(Path(schoutencalc.__file__).resolve().parent.parent)

CORRUPTED_SL2 = {
    "kind": "lie_algebra",
    "dimension": 3,
    "name": "sl2-corrupted",
    "brackets": [
        {"i": 1, "j": 2, "value": [{"gen": 3, "coeff": "1"}, {"gen": 1, "coeff": "1"}]},
        {"i": 1, "j": 3, "value": [{"gen": 1, "coeff": "-2"}]},
        {"i": 2, "j": 3, "value": [{"gen": 2, "coeff": "2"}]},
    ],
}

ZERO_MORPHISM = {
    "scalar_map": [
        [{"exponents": [1, 0], "coeff": "1"}],
        [{"exponents": [0, 1], "coeff": "1"}],
    ],
    "vector_map": [[], []],
}


def run_cli(*args):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "schoutencalc", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestEval:
    def test_bracket(self):
        result = run_cli("--pair", "builtin:cartan2", "eval", "[d1^d2, x1]")
        assert result.returncode == 0
        assert result.stdout.strip() == "-d2"

    def test_three_bracket(self):
        result = run_cli("--pair", "builtin:cartan3", "eval", "{d1, d2, x1*x2*d3}_3")
        assert result.stdout.strip() == "x1*d1^d3 - x2*d2^d3"

    def test_injection_normalizes(self):
        result = run_cli("--pair", "builtin:cartan2", "eval", "i_2(d1, d2)")
        assert result.stdout.strip() == "d1^d2"

    def test_parse_error_exits_2(self):
        result = run_cli("--pair", "builtin:cartan2", "eval", "[d1 d2]")
        assert result.returncode == 2
        assert "position" in result.stderr

    def test_json_output(self):
        result = run_cli("--pair", "builtin:cartan2", "--json", "eval", "d1 + d2")
        assert json.loads(result.stdout) == {"result": "d1 + d2"}

    def test_eval_without_pair_is_usage_error(self):
        result = run_cli("eval", "1 + 1")
        assert result.returncode == 2


class TestCheck:
    def test_combinatorial(self):
        result = run_cli("check", "combinatorial", "--max-n", "10")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 9
        assert all(line.startswith("PASS combinatorial") for line in lines)

    @pytest.mark.parametrize("max_n", ["0", "1", "21"])
    def test_combinatorial_max_n_out_of_range_exits_2(self, max_n):
        # 0 used to fall back to 10 and 1 to an empty, passing run.
        result = run_cli("check", "combinatorial", "--max-n", max_n)
        assert result.returncode == 2
        assert "--max-n must lie in 2..20" in result.stderr
        assert result.stdout == ""

    def test_weak_jacobi_seeded(self):
        result = run_cli(
            "--pair", "builtin:cartan2", "check", "weak-jacobi",
            "--n", "4", "--trials", "10", "--seed", "7",
        )
        assert result.returncode == 0
        assert result.stdout.count("PASS") == 2  # (2,3) and (3,2)

    def test_unknown_suite_exits_2(self):
        result = run_cli("--pair", "builtin:sl2", "check", "no-such-suite")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "suite, extra",
        [
            ("leibniz", ["--trials", "10"]),
            ("jacobi-antisym", ["--trials", "10"]),
            ("jacobi-sym", ["--trials", "10"]),
            ("poisson", ["--trials", "10"]),
            ("weak-jacobi", ["--n", "3", "--trials", "3"]),
            ("morphism-injection", ["--n", "2", "--trials", "2"]),
            ("morphism-strict", ["--n", "2", "--trials", "5"]),
            ("ce-square-zero", ["--trials", "5"]),
            ("combinatorial", ["--max-n", "4"]),
        ],
    )
    def test_every_suite_passes_on_sl2(self, suite, extra):
        result = run_cli("--pair", "builtin:sl2", "check", suite, *extra)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "FAIL" not in result.stdout

    def test_missing_pair_document_exits_3(self):
        result = run_cli("--pair", "/nonexistent/pair.json", "check", "leibniz")
        assert result.returncode == 3

    def test_mistyped_pair_path_is_named(self, tmp_path, capsys):
        missing = tmp_path / "sl2.jsn"
        assert main(["--pair", str(missing), "info"]) == 3
        assert capsys.readouterr().err.strip() == f"error: no such file: {missing}"

    def test_mistyped_morphism_path_is_named(self, tmp_path, capsys):
        missing = tmp_path / "morphism.jsn"
        code = main(["--pair", "builtin:sl2", "check", "morphism-strict", "--morphism", str(missing)])
        assert code == 3
        assert capsys.readouterr().err.strip() == f"error: no such file: {missing}"

    def test_ce_square_zero_on_cartan_exits_2(self):
        result = run_cli("--pair", "builtin:cartan2", "check", "ce-square-zero")
        assert result.returncode == 2

    def test_json_reports_are_byte_identical(self):
        args = (
            "--pair", "builtin:sl2", "--json", "check", "weak-jacobi",
            "--n", "3", "--trials", "5", "--seed", "11",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout.strip().splitlines()[0])
        assert payload["identity"] == "weak-jacobi"
        assert payload["pass"] is True
        assert payload["seed"] == 11
        assert set(payload) == {"identity", "n", "p", "q", "pass", "residual", "witness", "seed"}


class TestNegativeControls:
    def test_corrupted_pair_rejected_at_load(self, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps(CORRUPTED_SL2))
        result = run_cli("--pair", str(doc), "check", "jacobi-antisym")
        assert result.returncode == 3

    def test_corrupted_pair_detected_by_jacobi_suite(self, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps(CORRUPTED_SL2))
        result = run_cli(
            "--pair", str(doc), "--no-validate", "check", "jacobi-antisym", "--trials", "50"
        )
        assert result.returncode == 1
        assert "FAIL" in result.stdout

    def test_corrupted_pair_detected_by_weak_jacobi_suite(self, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps(CORRUPTED_SL2))
        result = run_cli(
            "--pair", str(doc), "--no-validate", "check", "weak-jacobi", "--trials", "50"
        )
        assert result.returncode == 1
        assert "residual=" in result.stdout

    def test_zero_vector_map_detected_by_morphism_suite(self, tmp_path):
        doc = tmp_path / "zero.json"
        doc.write_text(json.dumps(ZERO_MORPHISM))
        result = run_cli(
            "--pair", "builtin:cartan2", "check", "morphism-strict",
            "--morphism", str(doc), "--trials", "10",
        )
        assert result.returncode == 1
        assert "FAIL" in result.stdout


class TestInfo:
    def test_text(self):
        result = run_cli("--pair", "builtin:sl2", "info")
        assert result.returncode == 0
        assert "kind=lie_algebra" in result.stdout
        assert "[e1, e2] = e3" in result.stdout

    def test_json(self):
        result = run_cli("--pair", "builtin:cartan2", "--json", "info")
        payload = json.loads(result.stdout)
        assert payload["kind"] == "cartan"
        assert payload["generators"] == ["d1", "d2"]
