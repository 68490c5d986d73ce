"""Seeded inputs, case evaluation and negative controls of the three workloads.

Inputs are built only through the package's public constructors
(``Scalar.monomial``, ``Multivector.monomial``, ``Vector``,
``GradedPairElement``), never through ``schoutencalc.sampling``, so the case
stream stays fixed when the sampling helpers change.  Library functions are
reached through module attributes at call time, so the tracer's rebinding of
those attributes covers every call made here.

A case is one residual evaluation plus its zero test.  Every case is drawn on
a valid pair and must return the zero multivector.  The negative controls are
fixed inputs on ``instances.perturbed_sl2()`` whose nonzero residuals were
recorded in ``controls.json`` when the benchmark was written
(``python3 bench/record_controls.py`` rewrites that file).
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

from schoutencalc import exterior, graded, instances, linfty, pairs, scalars, schouten

CONTROLS_FILE = Path(__file__).with_name("controls.json")


# -- seeded generators ------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))


def _scalar(pair, rng: random.Random, max_degree: int = 2, max_terms: int = 2):
    """Nonzero polynomial in the pair's variables (a nonzero rational if none)."""
    nvars = pair.nvars
    while True:
        out = scalars.Scalar.zero(nvars)
        for _ in range(rng.randint(1, max_terms) if nvars else 1):
            exps = [0] * nvars
            for _ in range(rng.randint(0, max_degree) if nvars else 0):
                exps[rng.randrange(nvars)] += 1
            out = out + scalars.Scalar.monomial(exps, _coeff(rng), nvars)
        if not out.is_zero():
            return out


def _vector(pair, rng: random.Random):
    """One-term vector with a nonzero coefficient of degree at most one."""
    return pairs.Vector({rng.randint(1, pair.dim): _scalar(pair, rng, max_degree=1)})


def _homogeneous(pair, rng: random.Random, degree: int, max_terms: int = 2):
    """Nonzero homogeneous multivector of the given tensor degree."""
    while True:
        out = exterior.Multivector.zero(pair)
        for _ in range(rng.randint(1, max_terms)):
            indices = sorted(rng.sample(range(1, pair.dim + 1), degree))
            out = out + exterior.Multivector.monomial(pair, indices, _scalar(pair, rng))
        if not out.is_zero():
            return out


def _pair_element(pair, rng: random.Random, pure: bool):
    """Element of ``A (+) g`` with a nonzero scalar and a one-term vector part;
    ``pure`` keeps only one of the two, either with equal odds."""
    scalar, vector = _scalar(pair, rng), _vector(pair, rng)
    if pure:
        if rng.random() < 0.5:
            scalar = pair.scalar_zero()
        else:
            vector = pairs.Vector.zero()
    return pairs.GradedPairElement(scalar, vector)


INJECTION_ARITY = 4
WEAK_JACOBI_ARITY = 5
WEAK_JACOBI_SPLITS = tuple(
    (p, WEAK_JACOBI_ARITY + 1 - p) for p in range(2, WEAK_JACOBI_ARITY)
)
SCHOUTEN_IDENTITIES = ("jacobi-antisym", "poisson", "jacobi-sym")
SCHOUTEN_DEGREES = (0, 1, 1, 2, 2, 3)


def case_stream(workload: str, pair, seed: int) -> Iterator[tuple]:
    """Endless seeded stream of ``(kind, args)`` cases on the workload's pair."""
    rng = _rng(workload, seed)
    for i in itertools.count():
        if workload == "injection-sl2":
            # Every other case has both parts nonzero in every slot; the rest
            # have one pure slot, which keeps their cost near the mixed ones
            # and the median off a gap between two clusters.
            pure = rng.randrange(INJECTION_ARITY) if i % 2 else None
            args = [_pair_element(pair, rng, k == pure) for k in range(INJECTION_ARITY)]
            yield "injection", args
        elif workload == "schouten-cartan3":
            identity = SCHOUTEN_IDENTITIES[i % len(SCHOUTEN_IDENTITIES)]
            yield identity, [_homogeneous(pair, rng, rng.choice(SCHOUTEN_DEGREES)) for _ in range(3)]
        elif workload == "weak-jacobi-gl2":
            p, q = WEAK_JACOBI_SPLITS[i % len(WEAK_JACOBI_SPLITS)]
            args = [_homogeneous(pair, rng, rng.randint(0, 2)) for _ in range(WEAK_JACOBI_ARITY)]
            yield f"weak-jacobi-{p}-{q}", args
        else:
            raise ValueError(f"unknown workload {workload!r}")


# -- residuals ---------------------------------------------------------------------


def _jacobi_antisym(pair, x, y, z):
    sn = schouten.sn_antisym
    sign = graded.parity_sign
    dx, dy, dz = (exterior.tensor_degree(v) - 1 for v in (x, y, z))
    return (
        sn(pair, x, sn(pair, y, z)).scaled(sign(dx * dz))
        + sn(pair, y, sn(pair, z, x)).scaled(sign(dx * dy))
        + sn(pair, z, sn(pair, x, y)).scaled(sign(dy * dz))
    )


def _poisson(pair, x, y, z):
    sn = schouten.sn_antisym
    wedge = exterior.wedge
    dx, dy = exterior.tensor_degree(x) - 1, exterior.tensor_degree(y) - 1
    return (
        sn(pair, x, wedge(pair, y, z))
        - wedge(pair, sn(pair, x, y), z)
        - wedge(pair, y, sn(pair, x, z)).scaled(graded.parity_sign(dx * (dy - 1)))
    )


def _jacobi_sym(pair, *args):
    degrees = [exterior.tensor_degree(v) for v in args]
    residual = exterior.Multivector.zero(pair)
    for s in graded.shuffles((2, 1)):
        inner = schouten.sn_sym(pair, args[s(1) - 1], args[s(2) - 1])
        term = schouten.sn_sym(pair, inner, args[s(3) - 1])
        residual = residual + term.scaled(graded.koszul_sign(s, degrees))
    return residual


def residual(pair, case: tuple):
    """Evaluate one case; a correct program returns zero on a valid pair."""
    kind, args = case
    if kind == "injection":
        return linfty.injection_morphism_residual(pair, args)
    if kind == "jacobi-antisym":
        return _jacobi_antisym(pair, *args)
    if kind == "poisson":
        return _poisson(pair, *args)
    if kind == "jacobi-sym":
        return _jacobi_sym(pair, *args)
    if kind.startswith("weak-jacobi-"):
        p, q = (int(v) for v in kind.rsplit("-", 2)[1:])
        return linfty.weak_jacobi_residual(pair, p, q, args)
    raise ValueError(f"unknown case kind {kind!r}")


# -- negative controls ---------------------------------------------------------------

# Fixed inputs on perturbed sl2 (e, f, h = 1, 2, 3), given as plain data so
# they never depend on a generator.  The natural injection's structure
# equation holds for any antisymmetric bracket, so perturbed sl2 alone cannot
# make it fail; its controls instead inject perturbed sl2 into the exterior
# algebra of the true sl2, which is not a weak morphism.  The Schouten and
# weak-Jacobi controls use their workload's own residual.
CONTROL_INPUTS = {
    "injection-sl2": [
        ("injection-into-sl2", [(1, {1: 1}), (0, {2: 1}), (2, {3: 1}), (0, {1: 1, 3: -1})]),
        ("injection-into-sl2", [(1, {2: 1}), (-1, {1: 2}), (0, {3: 1}), (1, {1: 1})]),
    ],
    "schouten-cartan3": [
        ("jacobi-antisym", [(1,), (2,), (3,)]),
        ("jacobi-antisym", [(1,), (3,), (2, 3)]),
        ("jacobi-sym", [(1,), (2,), (3,)]),
        ("jacobi-sym", [(1,), (2,), (2, 3)]),
    ],
    "weak-jacobi-gl2": [
        ("weak-jacobi-2-4", [(1,), (2,), (3,), (2, 3), ()]),
        ("weak-jacobi-3-3", [(1,), (2,), (3,), (2, 3), ()]),
        ("weak-jacobi-4-2", [(1,), (2,), (3,), (2, 3), ()]),
    ],
}


def _control_arg(pair, spec):
    if len(spec) == 2 and isinstance(spec[1], dict):
        constant, vector = spec
        return pairs.GradedPairElement(
            pair.scalar_const(constant),
            pairs.Vector({g: pair.scalar_const(c) for g, c in vector.items()}),
        )
    return exterior.Multivector.monomial(pair, spec)


def control_residuals(workload: str) -> list[str]:
    """Render the residual of each negative control of the workload."""
    pair = instances.perturbed_sl2()
    out = []
    for kind, specs in CONTROL_INPUTS[workload]:
        args = [_control_arg(pair, spec) for spec in specs]
        if kind == "injection-into-sl2":
            target = instances.sl2()
            report = linfty.check_linfty_morphism(
                pair, linfty.injection_family(target), linfty.BracketFamily(target), len(args), args
            )
            out.append(report.residual)
        else:
            out.append(str(residual(pair, (kind, args))))
    return out


def expected_controls(workload: str) -> list[str]:
    """Residual renderings recorded when the benchmark was written."""
    return json.loads(CONTROLS_FILE.read_text())[workload]
