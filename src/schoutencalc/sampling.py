"""Seeded random element generators for the command line's case streams and
``pairs.check_pair_morphism``.

All generators draw from an explicit ``random.Random`` so parallel or
repeated runs reproduce byte-identical reports.  Coefficients stay small:
the checks are exact, so size buys nothing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exterior import Multivector
from .pairs import GradedPairElement, LieRinehartPair, Vector
from .scalars import Scalar

__all__ = [
    "random_fraction",
    "random_homogeneous",
    "random_multivector",
    "random_pair_element",
    "random_scalar",
    "random_vector",
    "rng_for",
]


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def random_fraction(rng: random.Random, *, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if value or not nonzero:
            return value


def random_scalar(
    pair: LieRinehartPair,
    rng: random.Random,
    *,
    max_degree: int = 2,
    max_terms: int = 2,
    nonzero: bool = False,
) -> Scalar:
    while True:
        if pair.nvars == 0:
            out = Scalar.const(random_fraction(rng), 0)
        else:
            out = Scalar.zero(pair.nvars)
            for _ in range(rng.randint(1, max_terms)):
                exps = [0] * pair.nvars
                for _ in range(rng.randint(0, max_degree)):
                    exps[rng.randrange(pair.nvars)] += 1
                out = out + Scalar.monomial(exps, random_fraction(rng), pair.nvars)
        if not out.is_zero() or not nonzero:
            return out


def random_vector(
    pair: LieRinehartPair,
    rng: random.Random,
    *,
    nonzero: bool = False,
) -> Vector:
    while True:
        out = Vector.zero()
        for _ in range(rng.randint(1, 2)):
            gen = rng.randint(1, pair.dim)
            out = out + Vector({gen: random_scalar(pair, rng, max_degree=1)})
        if not out.is_zero() or not nonzero:
            return out


def random_homogeneous(pair: LieRinehartPair, rng: random.Random, degree: int) -> Multivector:
    """Nonzero homogeneous multivector of the given tensor degree, one or two terms."""
    if degree > pair.dim:
        raise ValueError(f"degree {degree} exceeds the generator count {pair.dim}")
    while True:
        out = Multivector.zero(pair)
        for _ in range(rng.randint(1, 2)):
            indices = tuple(sorted(rng.sample(range(1, pair.dim + 1), degree)))
            coeff = random_scalar(pair, rng, nonzero=True)
            out = out + Multivector.monomial(pair, indices, coeff)
        if not out.is_zero():
            return out


def random_multivector(
    pair: LieRinehartPair,
    rng: random.Random,
    *,
    max_degree: int | None = None,
) -> Multivector:
    """Possibly inhomogeneous multivector of one to three terms, degrees up to ``max_degree``."""
    top = pair.dim if max_degree is None else min(max_degree, pair.dim)
    out = Multivector.zero(pair)
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(0, top)
        indices = tuple(sorted(rng.sample(range(1, pair.dim + 1), degree)))
        out = out + Multivector.monomial(pair, indices, random_scalar(pair, rng))
    return out


def random_pair_element(
    pair: LieRinehartPair,
    rng: random.Random,
    *,
    ensure_mixed: bool = False,
) -> GradedPairElement:
    """Random element of ``A (+) g``; with ``ensure_mixed`` both parts are nonzero."""
    scalar = random_scalar(pair, rng, nonzero=ensure_mixed)
    vector = random_vector(pair, rng, nonzero=ensure_mixed)
    if not ensure_mixed and rng.random() < 0.3:
        # Keep pure-degree elements in the mix.
        if rng.random() < 0.5:
            scalar = pair.scalar_zero()
        else:
            vector = Vector.zero()
    return GradedPairElement(scalar, vector)
