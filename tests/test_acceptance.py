"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import schoutencalc
from schoutencalc import sampling
from schoutencalc.exterior import Multivector, associated_exterior_morphism, wedge
from schoutencalc.instances import cartan, sl2, sl2_to_gl2, solvable4
from schoutencalc.linfty import (
    ce_differential,
    composition_identity_lhs,
    injection_morphism_residual,
    n_bracket,
    weak_jacobi_residual,
)
from schoutencalc.pairs import bracket_vectors
from schoutencalc.schouten import (
    check_antisym_jacobi,
    check_poisson,
    check_sym_jacobi,
    decalage_relation,
    sn_antisym,
    sn_antisym_poisson,
)

FAMILIES = {"sl2": sl2, "cartan2": lambda: cartan(2)}


def report(number, name, passed):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_1_combinatorial_identity():
    ok = all(composition_identity_lhs(n) == Fraction(1, 2) for n in range(2, 11))
    report(1, "combinatorial identity = 1/2 for n in 2..10", ok)


def test_criterion_2_weak_jacobi_per_split():
    ok = True
    for family_name, factory in FAMILIES.items():
        pair = factory()
        for n in (3, 4, 5):
            for p in range(2, n):
                q = n + 1 - p
                if q < 2:
                    continue
                rng = sampling.rng_for(1000 * n + 10 * p + q)
                for _ in range(50):
                    args = [
                        sampling.random_homogeneous(pair, rng, rng.randint(0, 2))
                        for _ in range(n)
                    ]
                    residual = weak_jacobi_residual(pair, p, q, args)
                    if not residual.is_zero():
                        ok = False
                        print(f"  violation: {family_name} n={n} (p,q)=({p},{q})")
                        break
    report(2, "weak Jacobi vanishes per (p,q), n <= 5, 50 tuples each", ok)


def test_criterion_3_injection_morphism_equation():
    ok = True
    for family_name, factory in FAMILIES.items():
        pair = factory()
        for n in (2, 3, 4):
            rng = sampling.rng_for(2000 + n)
            for trial in range(25):
                # Every other tuple forces nonzero scalar parts in every slot.
                mixed = trial % 2 == 0
                args = [
                    sampling.random_pair_element(pair, rng, ensure_mixed=mixed)
                    for _ in range(n)
                ]
                residual = injection_morphism_residual(pair, args)
                if not residual.is_zero():
                    ok = False
                    print(f"  violation: {family_name} n={n} trial={trial}")
                    break
    report(3, "injection structure equation, n = 2..4, 25 tuples each", ok)


def test_criterion_4_schouten_layer():
    ok = True
    for family_name, factory in FAMILIES.items():
        pair = factory()
        for check in (check_antisym_jacobi, check_poisson, check_sym_jacobi):
            result = check(pair, trials=200, seed=4)
            if not result.passed:
                ok = False
                print(f"  violation: {family_name} {result.identity}")
        rng = sampling.rng_for(44)
        top = min(3, pair.dim)
        for _ in range(200):
            x = sampling.random_homogeneous(pair, rng, rng.randint(0, top))
            y = sampling.random_homogeneous(pair, rng, rng.randint(0, top))
            if not decalage_relation(pair, x, y).passed:
                ok = False
                print(f"  violation: {family_name} decalage")
                break
    report(4, "antisym Jacobi, Poisson, sym Jacobi, decalage at 200 samples", ok)


def test_criterion_5_bracket_agreement_on_generators():
    ok = True
    pairs = [sl2(), cartan(1), cartan(2), cartan(3)]
    for pair in pairs:
        for i in range(1, pair.dim + 1):
            for j in range(1, pair.dim + 1):
                lie = Multivector.from_vector(
                    pair, bracket_vectors(pair, pair.generator(i), pair.generator(j))
                )
                two_bracket = n_bracket(
                    pair,
                    [Multivector.monomial(pair, (i,)), Multivector.monomial(pair, (j,))],
                )
                if two_bracket != lie:
                    ok = False
                    print(f"  mismatch: {pair.name} generators ({i}, {j})")
    report(5, "binary bracket equals the Lie bracket on all generator pairs", ok)


def test_criterion_6_ce_differential():
    import itertools

    pair = sl2()
    e, f, h = (Multivector.monomial(pair, (i,)) for i in (1, 2, 3))
    ok = ce_differential(pair, wedge(pair, e, f)) == h
    ok &= ce_differential(pair, wedge(pair, wedge(pair, e, f), h)).is_zero()
    for algebra in (sl2(), solvable4()):
        for length in range(algebra.dim + 1):
            for combo in itertools.combinations(range(1, algebra.dim + 1), length):
                mono = Multivector.monomial(algebra, combo)
                if not ce_differential(algebra, ce_differential(algebra, mono)).is_zero():
                    ok = False
                    print(f"  d^2 != 0 on {algebra.name} monomial {combo}")
    report(6, "d(e^f) = h, d(e^f^h) = 0, and d^2 = 0 on all monomials", ok)


def test_criterion_7_strict_morphism_naturality():
    m = sl2_to_gl2()
    ok = True
    for n in (2, 3, 4):
        rng = sampling.rng_for(7000 + n)
        for _ in range(50):
            args = [
                sampling.random_homogeneous(m.source, rng, rng.randint(0, 2))
                for _ in range(n)
            ]
            lhs = associated_exterior_morphism(m, n_bracket(m.source, args))
            rhs = n_bracket(m.target, [associated_exterior_morphism(m, a) for a in args])
            if lhs != rhs:
                ok = False
                print(f"  violation at n={n}")
                break
    report(7, "sl2 -> gl2 prolongation commutes with n-brackets, n <= 4", ok)


def test_criterion_8_oracle_equivalence():
    ok = True
    for family_name, factory in FAMILIES.items():
        pair = factory()
        rng = sampling.rng_for(88)
        top = min(3, pair.dim)
        for _ in range(200):
            x = sampling.random_multivector(pair, rng, max_degree=top)
            y = sampling.random_multivector(pair, rng, max_degree=top)
            if sn_antisym(pair, x, y) != sn_antisym_poisson(pair, x, y):
                ok = False
                print(f"  divergence in {family_name}")
                break
    report(8, "absorption and Poisson-recursion evaluations agree, 200 pairs", ok)


CORRUPTED_SL2 = {
    "kind": "lie_algebra",
    "dimension": 3,
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


def test_criterion_9_negative_controls(tmp_path):
    # Run the package this test run imported, so a failed import in the child
    # cannot pass for the exit code 1 expected here.
    package_root = str(Path(schoutencalc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))

    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "schoutencalc", *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )

    bad_pair = tmp_path / "corrupted.json"
    bad_pair.write_text(json.dumps(CORRUPTED_SL2))
    jacobi = run_cli(
        "--pair", str(bad_pair), "--no-validate", "check", "jacobi-antisym", "--trials", "50"
    )
    zero_map = tmp_path / "zero.json"
    zero_map.write_text(json.dumps(ZERO_MORPHISM))
    morphism = run_cli(
        "--pair", "builtin:cartan2", "check", "morphism-strict",
        "--morphism", str(zero_map), "--trials", "10",
    )
    ok = jacobi.returncode == 1 and morphism.returncode == 1
    report(9, "perturbation fixtures exit 1 from their suites", ok)
