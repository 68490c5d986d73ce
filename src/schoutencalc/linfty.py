"""Higher Lie brackets on the exterior algebra and their coherence laws.

The arity-``n`` bracket sums ``e(s) e(x_{s(1)}) x_{s(n)} ^ ... ^ x_{s(3)} ^
[x_{s(2)}, x_{s(1)}]`` over ``Sh(2, n-2)``; arity one is the zero operator
and arity two reproduces the symmetric Schouten-Nijenhuis bracket.  Koszul
signs throughout use the tensor grading.

This module also provides the coalgebraic differential available on
trivial-scalar pairs, the weak natural injection ``i_n = (-1)**(n-1) (n-1)!
x_n ^ ... ^ x_1`` together with a full structure-equation checker for weak
morphisms, and the exact combinatorial sum over ordered compositions whose
value ``1/2`` closes the injection argument.

The checker sums the right side of the structure equation over unordered
set partitions of the arguments with coefficient 1 (the unshuffle form of
Lada-Markl).  That equals the ``1/p!``-weighted sum over ordered
compositions because the components are multilinear and graded symmetric in
the tensor grading, with a component's image carrying the total degree of
its arguments, and the target bracket is graded symmetric too: the ``p!``
block orders of one partition give equal terms.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedPairError
from .exterior import INHOMOGENEOUS, Multivector, _accumulate, embed, tensor_degree, wedge
from .graded import parity_sign, partition_table, signed_shuffles
from .pairs import GradedPairElement, LieRinehartPair, Vector, associated_bracket
from .report import BracketReport, run_identity
from .scalars import Scalar

__all__ = [
    "BracketFamily",
    "aggregated_weak_jacobi_residual",
    "ce_differential",
    "check_linfty_morphism",
    "check_weak_jacobi",
    "composition_identity_lhs",
    "composition_identity_terms",
    "injection_family",
    "injection_morphism_residual",
    "n_bracket",
    "natural_injection",
    "weak_jacobi_residual",
]


def _hom_parts(x: Multivector) -> list[tuple[Multivector, int]]:
    """``x``'s nonzero homogeneous components with their tensor degrees."""
    if x.is_zero():
        return []
    degree = tensor_degree(x)
    if degree != INHOMOGENEOUS:
        return [(x, degree)]
    return [(component, degree) for degree, component in x.homogeneous_components().items()]


def _n_bracket_hom(pair: LieRinehartPair, args: list[Multivector], degrees: list[int]) -> Multivector:
    """One shuffle sum on homogeneous ``args`` of the given tensor degrees.

    The shuffles of ``Sh(2, n-2)`` and their Koszul signs come from the
    :func:`signed_shuffles` table.  A shuffle whose inner bracket is zero is
    skipped; otherwise ``x_{s(n)} ^ ... ^ x_{s(3)} ^ inner`` is built by
    wedging each ``x_{s(k)}``, k = 3..n, onto the left of ``inner``.
    """
    from .schouten import sn_antisym

    n = len(args)
    out: dict = {}
    for order, sign in signed_shuffles((2, n - 2) if n > 2 else (2,), degrees):
        first, second = order[0], order[1]
        inner = sn_antisym(pair, args[second], args[first])
        if inner.is_zero():
            continue
        term = inner
        for k in order[2:]:
            term = wedge(pair, args[k], term)
        _accumulate(out, term, sign * parity_sign(degrees[first]))
    return Multivector._trusted(pair, out)


def n_bracket(pair: LieRinehartPair, args: Sequence[Multivector]) -> Multivector:
    """The arity-``len(args)`` bracket, extended multilinearly to mixed degrees.

    On trivial scalars, ``sum +-c_1...c_p n_brackets[sorted (m_1..m_p)]`` over
    one term ``c_k e_(m_k)`` per argument (sign: see :class:`LieRinehartPair`);
    other pairs sum :func:`_n_bracket_hom` over the homogeneous parts.
    """
    args = list(args)
    if not args:
        raise ValueError("n_bracket needs at least one argument")
    if any(a.pair is not pair and not a.pair.compatible(pair) for a in args):
        raise ValueError("multivector does not belong to the given pair")
    if len(args) == 1:
        return Multivector.zero(pair)
    out: dict = {}
    if not pair.is_trivial_scalars:
        for combo in itertools.product(*(_hom_parts(a) for a in args)):
            _accumulate(out, _n_bracket_hom(pair, [c[0] for c in combo], [c[1] for c in combo]), 1)
        return Multivector._trusted(pair, out)
    for combo in itertools.product(*(a.terms.items() for a in args)):
        monos = [mono for mono, _ in combo]
        key = tuple(sorted(monos))
        entry = pair.n_brackets.get(key)
        if entry is None:
            if sum(map(len, key)) > pair.dim + 1:  # of degree above dim, so zero
                continue
            units = [Multivector._trusted(pair, {m: Scalar._trusted(0, {(): Fraction(1)})}) for m in key]
            value = _n_bracket_hom(pair, units, [len(mono) for mono in key])
            entry = pair.n_brackets[key] = tuple((mono, c.terms[()]) for mono, c in value.terms.items())
        if not entry:
            continue
        odd = [mono for mono in monos if len(mono) % 2]
        c = -1 if sum(a > b for i, a in enumerate(odd) for b in odd[i + 1 :]) % 2 else 1
        for _, coeff in combo:
            c *= coeff.terms[()]
        for mono, q in entry:
            out[mono] = out.get(mono, 0) + q * c
    return Multivector._trusted(pair, {m: Scalar._trusted(0, {(): c}) for m, c in out.items() if c})


@dataclass(frozen=True)
class BracketFamily:
    """The n-brackets of a fixed pair, as the target of a weak morphism."""

    pair: LieRinehartPair


# -- weak Jacobi ---------------------------------------------------------------


def _shuffle_sum(pair: LieRinehartPair, args: list[Multivector], arities) -> Multivector:
    """``sum_j sum_{Sh(j, n-j)} e(s) {{x_s(1..j)}_j, x_s(j+1..n)}`` over the inner arities.

    Each ``Sh(j, n-j)`` and its Koszul signs are read from the
    :func:`signed_shuffles` table.
    """
    n = len(args)
    degrees = []
    for a in args:
        d = tensor_degree(a)
        if not isinstance(d, int):
            raise ValueError("weak Jacobi arguments must be homogeneous")
        degrees.append(d)
    residual: dict = {}
    for j in arities:
        parts = (j,) if j == n else (j, n - j)
        for order, sign in signed_shuffles(parts, degrees):
            inner = n_bracket(pair, [args[i] for i in order[:j]])
            outer = n_bracket(pair, [inner] + [args[i] for i in order[j:]])
            _accumulate(residual, outer, sign)
    return Multivector._trusted(pair, residual)


def weak_jacobi_residual(
    pair: LieRinehartPair, p: int, q: int, args: Sequence[Multivector]
) -> Multivector:
    """Shuffle sum ``sum_{Sh(q, p-1)} e(s) {{...}_q, ...}_p`` on homogeneous args."""
    n = len(args)
    if p + q != n + 1 or p < 2 or q < 2:
        raise ValueError(f"invalid split p={p}, q={q} for n={n}")
    return _shuffle_sum(pair, list(args), (q,))


def check_weak_jacobi(
    pair: LieRinehartPair, n: int, p: int, q: int, args: Sequence[Multivector]
) -> BracketReport:
    if len(args) != n:
        raise ValueError(f"expected {n} arguments, got {len(args)}")
    residual = lambda xs: weak_jacobi_residual(pair, p, q, xs)
    return run_identity("weak-jacobi", [args], residual, n=n, p=p, q=q)


def aggregated_weak_jacobi_residual(
    pair: LieRinehartPair, args: Sequence[Multivector]
) -> Multivector:
    """Total coherence sum over all inner arities, unary terms included."""
    return _shuffle_sum(pair, list(args), range(1, len(args) + 1))


# -- coalgebraic differential ---------------------------------------------------


def ce_differential(pair: LieRinehartPair, x: Multivector) -> Multivector:
    """Degree ``-1`` square-zero operator encoding the bracket; trivial pairs only.

    ``d(x_1 ^ ... ^ x_n) = sum_{Sh(2, n-2)} e(s) [x_{s(1)}, x_{s(2)}] ^
    x_{s(3)} ^ ... ^ x_{s(n)}`` with ``d = 0`` on scalars and vectors.  On a
    monomial of ``n`` generators that is ``(-1)**((n-1)(n-2)/2)`` times the
    n-bracket of the generators: reversing the ``n - 1`` vector factors of
    each bracket term gives that sign.
    """
    if not pair.is_trivial_scalars:
        raise UnsupportedPairError(
            "the coalgebraic differential exists only for trivial-scalar pairs"
        )
    out: dict = {}
    for mono, coeff in x.terms.items():
        n = len(mono)
        if n < 2:
            continue
        generators = [Multivector.monomial(pair, (g,)) for g in mono]
        term = n_bracket(pair, generators).scaled(coeff)
        _accumulate(out, term, parity_sign((n - 1) * (n - 2) // 2))
    return Multivector._trusted(pair, out)


# -- the natural injection -------------------------------------------------------


def natural_injection(
    pair: LieRinehartPair, args: Sequence[GradedPairElement]
) -> Multivector:
    """``i_n(x_1, ..., x_n) = (-1)**(n-1) (n-1)! x_n ^ ... ^ x_1``."""
    args = list(args)
    n = len(args)
    if n == 0:
        raise ValueError("the injection needs at least one argument")
    out = embed(pair, args[-1])
    for element in reversed(args[:-1]):
        out = wedge(pair, out, embed(pair, element))
    factor = Fraction(math.factorial(n - 1))
    if (n - 1) % 2:
        factor = -factor
    return out.scaled(factor)


def injection_family(pair: LieRinehartPair) -> Callable:
    """The natural injection's components: ``k -> i_k``, none of them zero."""
    return lambda k: lambda elems: natural_injection(pair, elems)


def _source_parts(pair: LieRinehartPair, x: GradedPairElement) -> list[tuple[GradedPairElement, int]]:
    """``x``'s nonzero degree-0 scalar and degree-1 vector parts with their degrees."""
    out: list[tuple[GradedPairElement, int]] = []
    if not x.scalar.is_zero():
        out.append((GradedPairElement(x.scalar, Vector.zero()), 0))
    if not x.vector.is_zero():
        out.append((GradedPairElement(pair.scalar_zero(), x.vector), 1))
    return out


def _compositions(n: int, p: int):
    """Ordered tuples of p positive integers summing to n."""
    for cuts in itertools.combinations(range(1, n), p - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(p))


def _structure_equation_residual(source_pair, f: Callable, target_pair, args) -> Multivector:
    """LHS minus RHS of the weak-morphism structure equation, one term at a time.

    Left side: ``sum_{Sh(2,n-2)} e(s) f_{n-1}([x_s(1), x_s(2)], x_s(3), ...)``,
    since ``A (+) g`` has only its binary bracket; the shuffles and their
    signs are read from the :func:`signed_shuffles` table, and terms whose
    bracket is zero are skipped.
    Right side: ``sum_{B_1 | ... | B_p} e(s) {f_{|B_1|}(x_{B_1}), ...,
    f_{|B_p|}(x_{B_p})}_p`` over the unordered set partitions of ``1..n``
    into ``p >= 2`` blocks (the arity-one bracket is zero), blocks increasing
    and ordered by least element, ``s`` their concatenation.  The blocks and
    the inversions of ``s``, which give its Koszul sign, are read from the
    :func:`partition_table` row of the partition.  Coefficient 1
    replaces the ``1/p!`` of the ordered-composition form because the
    components and the target bracket are multilinear and graded symmetric
    in the tensor grading, so the ``p!`` block orders give equal terms.

    The arguments are expanded into their homogeneous parts, and each choice
    of parts is one term of that expansion.  ``f(k)`` is evaluated once per
    arity.  Each source bracket is computed once per pair of positions and
    degrees, and each block image once per block and degrees of its
    arguments; both are shared by every choice of parts that agrees there.
    A partition is skipped as soon as one of its block images is zero
    (``e1 ^ e1``, say), since the bracket is multilinear.  The residual is
    summed in place into one fresh map.
    """
    n = len(args)
    components = {k: f(k) for k in range(1, n)}
    rows = [
        (blocks, inversions)
        for blocks, inversions in partition_table(n)
        if all(components[len(block)] is not None for block in blocks)
    ]
    f_left = components.get(n - 1)
    brackets: dict[tuple[int, int, int, int], GradedPairElement] = {}
    images: dict[tuple[tuple[int, ...], tuple[int, ...]], Multivector] = {}
    residual: dict = {}
    for combo in itertools.product(*(_source_parts(source_pair, a) for a in args)):
        elems = [c[0] for c in combo]
        degrees = [c[1] for c in combo]

        if f_left is not None:
            for order, sign in signed_shuffles((2,) if n == 2 else (2, n - 2), degrees):
                i, j = order[0], order[1]
                key = (i, degrees[i], j, degrees[j])
                inner = brackets.get(key)
                if inner is None:
                    inner = brackets[key] = associated_bracket(source_pair, elems[i], elems[j])
                if inner.is_zero():
                    continue
                _accumulate(residual, f_left([inner] + [elems[k] for k in order[2:]]), sign)

        for blocks, inversions in rows:
            block_images = []
            for block in blocks:
                key = (block, tuple([degrees[i] for i in block]))
                image = images.get(key)
                if image is None:
                    image = images[key] = components[len(block)]([elems[i] for i in block])
                if image.is_zero():
                    break
                block_images.append(image)
            else:
                odd = sum(degrees[a] * degrees[b] for a, b in inversions) % 2
                _accumulate(residual, n_bracket(target_pair, block_images), 1 if odd else -1)
    return Multivector._trusted(target_pair, residual)


# Largest arity check_linfty_morphism evaluates.
_MAX_ARITY = 5


def check_linfty_morphism(
    source_pair: LieRinehartPair,
    f: Callable,
    target: BracketFamily,
    n: int,
    args: Sequence[GradedPairElement],
) -> BracketReport:
    """Evaluate the weak-morphism structure equation at arity ``n``.

    ``f`` maps an arity ``k`` to the k-linear component, a callable on a list
    of source elements returning a multivector, or to ``None`` for the zero
    map.  Every component must be multilinear, graded symmetric in the tensor
    grading, and map homogeneous arguments to a multivector whose degree is
    their total degree; for a family that breaks this, the sum over set
    partitions is not the equation.  The source is ``A (+) g`` with only its
    binary bracket, so ``args`` must be :class:`GradedPairElement` values.
    The shuffle-sum term count grows super-exponentially in ``n``, so ``n``
    above 5 is refused.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    if n > _MAX_ARITY:
        raise ValueError(f"arity {n} exceeds the cap {_MAX_ARITY}")
    if len(args) != n:
        raise ValueError(f"expected {n} arguments, got {len(args)}")
    if not all(isinstance(a, GradedPairElement) for a in args):
        raise TypeError("structure-equation arguments must be GradedPairElement values")
    residual = lambda xs: _structure_equation_residual(source_pair, f, target.pair, list(xs))
    return run_identity("linfty-morphism", [args], residual, n=n)


def injection_morphism_residual(
    pair: LieRinehartPair, args: Sequence[GradedPairElement]
) -> Multivector:
    """Structure-equation residual of the natural injection at the given args."""
    return _structure_equation_residual(pair, injection_family(pair), pair, list(args))


# -- the composition identity ----------------------------------------------------


def composition_identity_terms(n: int) -> dict[int, Fraction]:
    """Per-``p`` partial sums of the composition identity, exact."""
    if n < 2:
        raise ValueError("the identity is stated for n >= 2")
    out: dict[int, Fraction] = {}
    for p in range(2, n + 1):
        total = Fraction(0)
        for ks in _compositions(n, p):
            prod = 1
            for k in ks:
                prod *= k
            pairs = sum(ks[l] * ks[m] for l in range(p) for m in range(l + 1, p))
            total += Fraction(pairs, prod)
        sign = 1 if p % 2 == 0 else -1
        out[p] = Fraction(sign, math.factorial(p)) * total
    return out


def composition_identity_lhs(n: int) -> Fraction:
    """Brute-force the ordered-composition sum; equals ``1/2`` for every n >= 2."""
    return sum(composition_identity_terms(n).values(), Fraction(0))
