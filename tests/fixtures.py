"""Pair morphisms that the tests build (an inclusion, a scaling and a zero
vector map), and a CLI suite run in-process on a pair object."""

from __future__ import annotations

from fractions import Fraction

from schoutencalc import cli
from schoutencalc.instances import gl2, sl2
from schoutencalc.pairs import LieRinehartPair, PairMorphism, Vector, check_pair_morphism
from schoutencalc.report import BracketReport


def run_suite(suite: str, pair: LieRinehartPair, *, trials: int, seed: int) -> list[BracketReport]:
    """The reports of ``check SUITE --trials T --seed S`` on ``pair``: the CLI's cases, draw for draw."""
    args = cli.build_parser().parse_args(["check", suite, "--trials", str(trials), "--seed", str(seed)])
    return list(cli.SUITES[suite][0](pair, args))


def sl2_to_gl2(*, validate: bool = True) -> PairMorphism:
    """Inclusion e -> E12, f -> E21, h -> E11 - E22."""
    source, target = sl2(), gl2()
    m = PairMorphism(
        source,
        target,
        (),
        (
            Vector({2: target.scalar_one()}),
            Vector({3: target.scalar_one()}),
            Vector({1: target.scalar_one(), 4: target.scalar_const(-1)}),
        ),
    )
    if validate:
        report = check_pair_morphism(m)
        if not report.passed:
            raise AssertionError(f"builtin morphism failed validation: {report.render_text()}")
    return m


def scaling_morphism(pair: LieRinehartPair, factor: Fraction | int) -> PairMorphism:
    """Scale every generator; a pair morphism only for abelian brackets."""
    return PairMorphism(
        pair,
        pair,
        tuple(pair.scalar_variable(i) for i in range(1, pair.nvars + 1)),
        tuple(pair.generator(i).scaled(pair.scalar_const(factor)) for i in range(1, pair.dim + 1)),
    )


def zero_vector_morphism(pair: LieRinehartPair) -> PairMorphism:
    """Identity scalar map with the zero vector map; fails on nonzero anchors."""
    return PairMorphism(
        pair,
        pair,
        tuple(pair.scalar_variable(i) for i in range(1, pair.nvars + 1)),
        tuple(Vector.zero() for _ in range(pair.dim)),
    )
