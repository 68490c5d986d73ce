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
from .exterior import Multivector, embed, tensor_degree, wedge
from .graded import Permutation, koszul_sign, parity_sign, set_partitions, shuffles
from .pairs import GradedPairElement, LieRinehartPair, associated_bracket
from .report import BracketReport

__all__ = [
    "BracketFamily",
    "MorphismFamily",
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
    "strict_family",
    "weak_jacobi_residual",
]


def _hom_parts(x: Multivector) -> list[tuple[Multivector, int]]:
    return [(component, degree) for degree, component in x.homogeneous_components().items()]


def _n_bracket_hom(pair: LieRinehartPair, args: list[Multivector], degrees: list[int]) -> Multivector:
    from .schouten import sn_antisym

    n = len(args)
    out = Multivector.zero(pair)
    parts = (2, n - 2) if n > 2 else (2,)
    for s in shuffles(parts):
        sign = koszul_sign(s, degrees) * parity_sign(degrees[s(1) - 1])
        inner = sn_antisym(pair, args[s(2) - 1], args[s(1) - 1])
        if inner.is_zero():
            continue
        term = Multivector.unit(pair)
        for k in range(n, 2, -1):
            term = wedge(pair, term, args[s(k) - 1])
        term = wedge(pair, term, inner)
        out = out + (term if sign > 0 else -term)
    return out


def n_bracket(pair: LieRinehartPair, args: Sequence[Multivector]) -> Multivector:
    """The arity-``len(args)`` bracket, extended multilinearly to mixed degrees."""
    args = list(args)
    if not args:
        raise ValueError("n_bracket needs at least one argument")
    if len(args) == 1:
        return Multivector.zero(pair)
    out = Multivector.zero(pair)
    for combo in itertools.product(*(_hom_parts(a) for a in args)):
        out = out + _n_bracket_hom(pair, [c[0] for c in combo], [c[1] for c in combo])
    return out


@dataclass(frozen=True)
class BracketFamily:
    """Arity-indexed bracket evaluator over a fixed pair; arity one is zero."""

    pair: LieRinehartPair

    def bracket(self, args: Sequence[Multivector]) -> Multivector:
        return n_bracket(self.pair, args)


# -- weak Jacobi ---------------------------------------------------------------


def weak_jacobi_residual(
    pair: LieRinehartPair, p: int, q: int, args: Sequence[Multivector]
) -> Multivector:
    """Shuffle sum ``sum_{Sh(q, p-1)} e(s) {{...}_q, ...}_p`` on homogeneous args."""
    args = list(args)
    n = len(args)
    if p + q != n + 1 or p < 2 or q < 2:
        raise ValueError(f"invalid split p={p}, q={q} for n={n}")
    degrees = []
    for a in args:
        d = tensor_degree(a)
        if not isinstance(d, int):
            raise ValueError("weak Jacobi arguments must be homogeneous")
        degrees.append(d)
    residual = Multivector.zero(pair)
    for s in shuffles((q, p - 1)):
        inner = n_bracket(pair, [args[s(k) - 1] for k in range(1, q + 1)])
        outer = n_bracket(pair, [inner] + [args[s(k) - 1] for k in range(q + 1, n + 1)])
        residual = residual + outer.scaled(koszul_sign(s, degrees))
    return residual


def check_weak_jacobi(
    pair: LieRinehartPair, n: int, p: int, q: int, args: Sequence[Multivector]
) -> BracketReport:
    if len(args) != n:
        raise ValueError(f"expected {n} arguments, got {len(args)}")
    residual = weak_jacobi_residual(pair, p, q, args)
    if residual.is_zero():
        return BracketReport.success("weak-jacobi", n=n, p=p, q=q)
    return BracketReport.failure(
        "weak-jacobi", str(residual), witness=[str(a) for a in args], n=n, p=p, q=q
    )


def aggregated_weak_jacobi_residual(
    pair: LieRinehartPair, args: Sequence[Multivector]
) -> Multivector:
    """Total coherence sum over all inner arities, unary terms included."""
    args = list(args)
    n = len(args)
    degrees = []
    for a in args:
        d = tensor_degree(a)
        if not isinstance(d, int):
            raise ValueError("arguments must be homogeneous")
        degrees.append(d)
    residual = Multivector.zero(pair)
    for j in range(1, n + 1):
        parts = (j,) if j == n else (j, n - j)
        for s in shuffles(parts):
            inner = n_bracket(pair, [args[s(k) - 1] for k in range(1, j + 1)])
            outer = n_bracket(pair, [inner] + [args[s(k) - 1] for k in range(j + 1, n + 1)])
            residual = residual + outer.scaled(koszul_sign(s, degrees))
    return residual


# -- coalgebraic differential ---------------------------------------------------


def ce_differential(pair: LieRinehartPair, x: Multivector) -> Multivector:
    """Degree ``-1`` square-zero operator encoding the bracket; trivial pairs only.

    ``d(x_1 ^ ... ^ x_n) = sum_{Sh(2, n-2)} e(s) [x_{s(1)}, x_{s(2)}] ^
    x_{s(3)} ^ ... ^ x_{s(n)}`` with ``d = 0`` on scalars and vectors.
    """
    from .schouten import sn_antisym

    if not pair.is_trivial_scalars:
        raise UnsupportedPairError(
            "the coalgebraic differential exists only for trivial-scalar pairs"
        )
    out = Multivector.zero(pair)
    for mono, coeff in x.terms.items():
        n = len(mono)
        if n < 2:
            continue
        degrees = [1] * n
        parts = (2, n - 2) if n > 2 else (2,)
        for s in shuffles(parts):
            inner = sn_antisym(
                pair,
                Multivector.monomial(pair, (mono[s(1) - 1],)),
                Multivector.monomial(pair, (mono[s(2) - 1],)),
            )
            if inner.is_zero():
                continue
            term = inner
            for k in range(3, n + 1):
                term = wedge(pair, term, Multivector.monomial(pair, (mono[s(k) - 1],)))
            out = out + term.scaled(coeff).scaled(koszul_sign(s, degrees))
    return out


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


class MorphismFamily:
    """Arity-indexed components of a weak morphism into an exterior algebra.

    ``component(k)`` returns the k-linear component or ``None`` for the zero
    map; components consume lists of source elements and produce multivectors.
    The structure-equation checker assumes every component is multilinear and
    graded symmetric in the tensor grading, and maps homogeneous arguments to
    a multivector whose degree is their total degree; for a family that
    breaks this, the checker's sum over set partitions is not the equation.
    """

    def __init__(self, components: dict[int, Callable] | None = None, rule: Callable | None = None):
        self._components = components or {}
        self._rule = rule

    def component(self, k: int) -> Callable | None:
        if self._rule is not None:
            return self._rule(k)
        return self._components.get(k)


def injection_family(pair: LieRinehartPair) -> MorphismFamily:
    return MorphismFamily(rule=lambda k: (lambda elems: natural_injection(pair, elems)))


def strict_family(component_one: Callable) -> MorphismFamily:
    return MorphismFamily(components={1: lambda elems: component_one(elems[0])})


class _PairSource:
    """The graded Lie algebra ``A (+) g`` viewed as the source structure.

    Only the binary bracket is nonzero; elements split into a degree-0 scalar
    part and a degree-1 vector part.
    """

    def __init__(self, pair: LieRinehartPair):
        self.pair = pair

    def components(self, v: GradedPairElement) -> list[tuple[GradedPairElement, int]]:
        from .pairs import Vector

        out: list[tuple[GradedPairElement, int]] = []
        if not v.scalar.is_zero():
            out.append((GradedPairElement(v.scalar, Vector.zero()), 0))
        if not v.vector.is_zero():
            out.append((GradedPairElement(self.pair.scalar_zero(), v.vector), 1))
        return out

    def bracket(self, arity: int, elems: list[GradedPairElement]) -> GradedPairElement:
        from .pairs import Vector

        if arity == 2:
            return associated_bracket(self.pair, elems[0], elems[1])
        return GradedPairElement(self.pair.scalar_zero(), Vector.zero())


class _ExteriorSource:
    """An exterior algebra with its full bracket family as the source."""

    def __init__(self, pair: LieRinehartPair):
        self.pair = pair

    def components(self, v: Multivector) -> list[tuple[Multivector, int]]:
        return _hom_parts(v)

    def bracket(self, arity: int, elems: list[Multivector]) -> Multivector:
        return n_bracket(self.pair, elems)


def _compositions(n: int, p: int):
    """Ordered tuples of p positive integers summing to n."""
    for cuts in itertools.combinations(range(1, n), p - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(p))


def _structure_equation_residual(source, f: MorphismFamily, target_pair, args) -> Multivector:
    """LHS minus RHS of the weak-morphism structure equation, one term at a time.

    Left side: ``sum_{p+q=n+1} sum_{Sh(q,p-1)} e(s) f_p(D_q(...), ...)``,
    skipping terms whose source bracket ``D_q`` is zero.
    Right side: ``sum_{B_1 | ... | B_p} e(s) {f_{|B_1|}(x_{B_1}), ...,
    f_{|B_p|}(x_{B_p})}_p`` over the unordered set partitions of ``1..n``
    into ``p >= 2`` blocks (the arity-one bracket is zero), blocks increasing
    and ordered by least element, ``s`` their concatenation.  Coefficient 1
    replaces the ``1/p!`` of the ordered-composition form because the
    components and the target bracket are multilinear and graded symmetric
    in the tensor grading, so the ``p!`` block orders give equal terms.
    Each block image is computed once per (argument, degree) choice and
    shared by every homogeneous expansion of the arguments.
    """
    n = len(args)
    partitions = []
    for blocks in set_partitions(n):
        fs = [f.component(len(block)) for block in blocks]
        if len(blocks) > 1 and all(fk is not None for fk in fs):
            s = Permutation([i for block in blocks for i in block])
            partitions.append((blocks, fs, s))
    images: dict[tuple[tuple[int, int], ...], Multivector] = {}
    residual = Multivector.zero(target_pair)
    for combo in itertools.product(*(source.components(a) for a in args)):
        elems = [c[0] for c in combo]
        degrees = [c[1] for c in combo]

        for q in range(1, n + 1):
            p = n + 1 - q
            f_p = f.component(p)
            if f_p is None:
                continue
            parts = (q,) if p == 1 else (q, p - 1)
            for s in shuffles(parts):
                inner = source.bracket(q, [elems[s(k) - 1] for k in range(1, q + 1)])
                if inner.is_zero():
                    continue
                rest = [elems[s(k) - 1] for k in range(q + 1, n + 1)]
                term = f_p([inner] + rest)
                residual = residual + term.scaled(koszul_sign(s, degrees))

        for blocks, fs, s in partitions:
            block_images = []
            for fk, block in zip(fs, blocks):
                key = tuple((i, degrees[i - 1]) for i in block)
                if key not in images:
                    images[key] = fk([elems[i - 1] for i in block])
                block_images.append(images[key])
            term = n_bracket(target_pair, block_images)
            residual = residual - term.scaled(koszul_sign(s, degrees))
    return residual


def check_linfty_morphism(
    source_pair: LieRinehartPair,
    f: MorphismFamily,
    target: BracketFamily,
    n: int,
    args: Sequence,
    *,
    source_kind: str = "pair",
    identity: str = "linfty-morphism",
    max_arity: int = 5,
) -> BracketReport:
    """Evaluate the weak-morphism structure equation at arity ``n``.

    ``source_kind`` selects the source structure: ``"pair"`` for ``A (+) g``
    with only its binary bracket, ``"exterior"`` for the full bracket family
    on the source exterior algebra.  The shuffle-sum term count grows
    super-exponentially in ``n``; raise ``max_arity`` deliberately if you
    need more than the default.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    if n > max_arity:
        raise ValueError(f"arity {n} exceeds the configured cap {max_arity}")
    if len(args) != n:
        raise ValueError(f"expected {n} arguments, got {len(args)}")
    if source_kind == "pair":
        source = _PairSource(source_pair)
    elif source_kind == "exterior":
        source = _ExteriorSource(source_pair)
    else:
        raise ValueError(f"unknown source kind: {source_kind!r}")
    residual = _structure_equation_residual(source, f, target.pair, list(args))
    if residual.is_zero():
        return BracketReport.success(identity, n=n)
    return BracketReport.failure(identity, str(residual), n=n)


def injection_morphism_residual(
    pair: LieRinehartPair, args: Sequence[GradedPairElement]
) -> Multivector:
    """Structure-equation residual of the natural injection at the given args."""
    source = _PairSource(pair)
    return _structure_equation_residual(source, injection_family(pair), pair, list(args))


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
