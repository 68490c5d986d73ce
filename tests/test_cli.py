"""Command-line behaviour: output formats, determinism and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import schoutencalc
from schoutencalc.cli import main
from schoutencalc.instances import BUILTIN_PAIRS

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

# sl2 with [f, h] = 3f instead of 2f (f = e2, h = e3): a Jacobi defect.
FH3_SL2 = {
    "kind": "lie_algebra",
    "dimension": 3,
    "name": "sl2-fh3",
    "brackets": [
        {"i": 1, "j": 2, "value": [{"gen": 3, "coeff": "1"}]},
        {"i": 1, "j": 3, "value": [{"gen": 1, "coeff": "-2"}]},
        {"i": 2, "j": 3, "value": [{"gen": 2, "coeff": "3"}]},
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

    def test_huge_exponent_finishes(self, capsys):
        assert main(["--pair", "builtin:cartan2", "eval", "x1^1000000000*d1"]) == 0
        assert capsys.readouterr().out.strip() == "x1^1000000000*d1"

    def test_long_sum_finishes(self, capsys):
        assert main(["--pair", "builtin:sl2", "eval", " + ".join(["e1"] * 1500)]) == 0
        assert capsys.readouterr().out.strip() == "1500*e1"

    def test_constant_arguments_factor_out_of_a_wide_bracket(self, capsys):
        # A constant is central on a Lie algebra, so {1, ..., 1, e1, e2}_200
        # is {e1, e2}: one table entry of two monomials, not 200.
        start = time.perf_counter()
        assert main(["--pair", "builtin:sl2", "eval", "{" + "1, " * 198 + "e1, e2}_200"]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out.strip() == "e3"

    @pytest.mark.parametrize(
        "expression",
        [
            "(" * 400 + "e1" + ")" * 400,
            "-" * 1200 + "e1",
            "[e1, " * 300 + "e2" + "]" * 300,
        ],
        ids=["parentheses", "unary-minus", "brackets"],
    )
    def test_deep_nesting_is_refused(self, expression, capsys):
        assert main(["--pair", "builtin:sl2", "eval", "--", expression]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: at position ")
        assert "nested too deeply" in captured.err


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

    @pytest.mark.parametrize("p, q", [(1, 4), (3, 3)])
    def test_invalid_weak_jacobi_split_exits_2(self, p, q, capsys):
        argv = ["--pair", "builtin:sl2", "check", "weak-jacobi", "--n", "4", "--p", str(p), "--q", str(q)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid split p={p}, q={q} for n=4\n"

    @pytest.mark.parametrize("flag, p, q", [("--p", 0, 4), ("--q", 4, 0)])
    def test_zero_weak_jacobi_split_exits_2(self, flag, p, q, capsys):
        # A zero --p or --q used to be read as absent: every split ran and the exit was 0.
        argv = ["--pair", "builtin:sl2", "check", "weak-jacobi", "--n", "3", flag, "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid split p={p}, q={q} for n=3\n"

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

    @pytest.mark.parametrize(
        "suite, extra, flag",
        [
            (suite, ["--n", "5"], "--n")
            for suite in ("leibniz", "jacobi-antisym", "jacobi-sym", "poisson", "ce-square-zero", "combinatorial")
        ]
        + [
            ("morphism-injection", ["--n", "2", "--p", "3"], "--p"),
            ("morphism-strict", ["--q", "2"], "--q"),
            ("leibniz", ["--p", "2"], "--p"),
        ]
        + [
            (suite, ["--morphism", "morphism.json"], "--morphism")
            for suite in ("weak-jacobi", "morphism-injection", "poisson")
        ],
    )
    def test_flags_the_suite_ignores_exit_2(self, suite, extra, flag, capsys):
        # These used to be dropped silently: the suite ran and could print PASS.
        with pytest.raises(SystemExit) as exc:
            main(["--pair", "builtin:sl2", "check", suite, *extra, "--trials", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} does not apply to {suite}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "leibniz", "--n", "5"],
            ["check", "weak-jacobi", "--trials", "0"],
            ["check", "morphism-injection", "--n", "9"],
            ["check", "combinatorial", "--max-n", "1"],
            ["check", "ce-square-zero"],
        ],
        ids=["flag", "trials", "n-range", "max-n-range", "ce-square-zero-on-cartan"],
    )
    def test_check_refusals_print_the_check_usage_line(self, argv, capsys):
        pair = "builtin:cartan2" if "ce-square-zero" in argv else "builtin:sl2"
        with pytest.raises(SystemExit) as exc:
            main(["--pair", pair, *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: schoutencalc check ")
        assert "[--n N]" in captured.err
        assert "\nschoutencalc check: error: " in captured.err

    def test_missing_pair_prints_the_top_level_usage_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "leibniz"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: schoutencalc [-h] [--pair PAIR]")
        assert err.endswith("schoutencalc: error: this command needs --pair\n")

    @pytest.mark.parametrize("suite", ["leibniz", "morphism-injection", "combinatorial"])
    def test_max_n_is_accepted_by_every_suite(self, suite, capsys):
        assert main(["--pair", "builtin:sl2", "check", suite, "--max-n", "3", "--trials", "2"]) == 0
        assert "FAIL" not in capsys.readouterr().out

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

    @pytest.mark.parametrize("text", ["[1]", '"x"', "3"])
    def test_non_object_documents_exit_3(self, tmp_path, capsys, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code = main(["--pair", "builtin:sl2", "check", "morphism-strict", "--morphism", str(path)])
        assert code == 3
        assert "must be a JSON object" in capsys.readouterr().err
        assert main(["--pair", str(path), "info"]) == 3
        assert "must be a JSON object" in capsys.readouterr().err

    def test_non_integer_pair_document_exits_3(self, capsys):
        document = json.dumps({
            "kind": "lie_algebra",
            "dimension": 3.9,
            "brackets": [{"i": 1.2, "j": 2.7, "value": [{"gen": 3.5, "coeff": "1"}]}],
        })
        assert main(["--pair", document, "info"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dimension must be an integer, not 3.9\n"

    def test_repeated_bracket_key_exits_3(self, capsys):
        # A format error, not a structure error, so --no-validate refuses it too.
        brackets = FH3_SL2["brackets"] + [FH3_SL2["brackets"][0]]
        document = json.dumps(dict(FH3_SL2, brackets=brackets))
        for flags in ([], ["--no-validate"]):
            assert main(["--pair", document, *flags, "check", "jacobi-antisym"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: bracket key (1, 2) is given twice\n"

    def test_zero_denominator_documents_exit_3(self, tmp_path, capsys):
        # "1/0" used to escape as a ZeroDivisionError traceback with exit 1.
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({
            "kind": "lie_algebra",
            "dimension": 2,
            "brackets": [{"i": 1, "j": 2, "value": [{"gen": 2, "coeff": "1/0"}]}],
        }))
        assert main(["--pair", str(pair), "info"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "zero denominator" in captured.err
        morphism = tmp_path / "morphism.json"
        morphism.write_text(json.dumps({"vector_map": [[{"gen": 1, "coeff": "1/0"}], [], []]}))
        code = main(["--pair", "builtin:sl2", "check", "morphism-strict", "--morphism", str(morphism)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "zero denominator" in captured.err

    def test_non_string_term_coefficient_exits_3(self, tmp_path, capsys):
        # A non-string coeff inside a term list used to escape as an AttributeError.
        morphism = tmp_path / "morphism.json"
        morphism.write_text(json.dumps(dict(ZERO_MORPHISM, scalar_map=[
            [{"exponents": [1, 0], "coeff": 1}],
            [{"exponents": [0, 1], "coeff": "1"}],
        ])))
        code = main(["--pair", "builtin:cartan2", "check", "morphism-strict", "--morphism", str(morphism)])
        assert code == 3
        assert capsys.readouterr().err == "error: malformed coefficient: 1\n"

    def test_unknown_builtin_pair_exits_3(self, tmp_path, capsys):
        # --pair and a morphism's target resolve through the same helper; the
        # target used to escape as a KeyError traceback with exit code 1.
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"target": "builtin:nope", "vector_map": [[], [], []]}))
        # The message is the KeyError's text, without the quotes str() adds.
        line = f"error: unknown builtin pair 'nope'; choices: {sorted(BUILTIN_PAIRS)}\n"
        code = main(["--pair", "builtin:sl2", "check", "morphism-strict", "--morphism", str(path)])
        assert code == 3
        assert capsys.readouterr().err == line
        assert main(["--pair", "builtin:nope", "check", "leibniz"]) == 3
        assert capsys.readouterr().err == line

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


def test_morphism_injection_failure_names_its_sample(monkeypatch):
    # The natural injection's equation holds for any antisymmetric bracket,
    # so a failing report cannot be reached from the command line.
    from schoutencalc import cli, sampling
    from schoutencalc.exterior import embed
    from schoutencalc.instances import sl2

    monkeypatch.setattr(cli, "injection_morphism_residual", lambda pair, sample: embed(pair, sample[0]))
    args = cli.build_parser().parse_args(["check", "morphism-injection", "--n", "3", "--trials", "4", "--seed", "2"])
    pair = sl2()
    reports = list(cli.SUITES["morphism-injection"][0](pair, args))
    assert [(r.identity, r.passed, r.n, r.seed) for r in reports] == [
        ("morphism-injection", False, 2, 2),
        ("morphism-injection", False, 3, 2),
    ]
    for report in reports:
        # Each arity draws afresh from the seed and fails on its first sample.
        rng = sampling.rng_for(2)
        sample = [
            sampling.random_pair_element(pair, rng, ensure_mixed=(rng.random() < 0.5))
            for _ in range(report.n)
        ]
        assert report.witness == [f"({e.scalar}, {e.vector!r})" for e in sample]
        assert report.residual == str(embed(pair, sample[0]))


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

    @pytest.mark.parametrize(
        "suite, code",
        [
            # These identities do not use Jacobi, so they hold on any table.
            ("poisson", 0),
            ("leibniz", 0),
            ("morphism-injection", 0),
            ("jacobi-antisym", 1),
            ("jacobi-sym", 1),
            ("weak-jacobi", 1),
            ("ce-square-zero", 1),
        ],
    )
    def test_which_suites_detect_a_jacobi_defect(self, suite, code, capsys):
        assert main(["--pair", json.dumps(FH3_SL2), "check", suite]) == 3
        argv = ["--pair", json.dumps(FH3_SL2), "--no-validate", "check", suite]
        assert main(argv) == code
        assert ("FAIL" in capsys.readouterr().out) == (code == 1)

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
