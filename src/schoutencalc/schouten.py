"""Both incarnations of the Schouten-Nijenhuis bracket and their laws.

Sign conventions, fixed once and used everywhere:

* On a vector ``x`` and scalar ``a``: ``[x, a] = D_x(a)`` and
  ``[a, x] = -D_x(a)``.  The asymmetric scalar case is forced: with a
  symmetric choice the graded antisymmetry law, the symmetric Jacobi sum and
  the injection structure equation all fail on scalar-vector samples in any
  pair with a nonzero anchor.
* On vector monomials the bracket is the double sum with signs
  ``(-1)**(i+j)``, coefficients absorbed into the first vector slot.
* ``deg`` below is the antisymmetric grading (tensor degree minus one);
  parity signs with negative exponents are taken by parity, never by
  exponentiation.
* The decalage twin is ``{x, y} = e(x) [y, x]`` with ``e(x)`` the parity of
  the tensor degree; on vectors it reproduces the Lie bracket.

The term-pair evaluator (``_sn_term_pair``) expands each pair of
coefficiented monomials through coefficient absorption, the vector bracket
and the anchor.  :func:`sn_antisym` evaluates it only to fill a per-pair
table of generator-monomial brackets, split into the parts that multiply
``ab``, ``a d_k(b)`` and ``b d_k(a)``, and sums every argument through that
table.  The independent oracles (Poisson-rule recursion and the shuffle
form) live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .exterior import INHOMOGENEOUS, Multivector, tensor_degree, wedge
from .graded import koszul_sign, parity_sign, shuffles
from .pairs import LieRinehartPair, PairMorphism, Vector, anchor, bracket_vectors
from .report import BracketReport, run_identity
from .scalars import Scalar

__all__ = [
    "check_antisym_jacobi",
    "check_morphism_respects_sn",
    "check_poisson",
    "check_sym_jacobi",
    "decalage_relation",
    "sn_antisym",
    "sn_sym",
]


def _absorbed_slots(pair: LieRinehartPair, mono: tuple[int, ...], coeff: Scalar) -> list[Vector]:
    """Slot vectors of a coefficiented monomial, coefficient in slot one."""
    slots = [Vector({mono[0]: coeff})]
    slots.extend(Vector({g: pair.scalar_one()}) for g in mono[1:])
    return slots


def _wedge_vectors(pair: LieRinehartPair, head: Multivector, slots: list[Vector]) -> Multivector:
    out = head
    for v in slots:
        out = wedge(pair, out, Multivector.from_vector(pair, v))
    return out


def _scalar_contraction(
    pair: LieRinehartPair, slots: list[Vector], a: Scalar, *, flip: bool
) -> Multivector:
    """``[a, x_1^...^x_n]`` on vector slots, or with ``flip`` the reversed order.

    The Poisson rule plus antisymmetry force
    ``[a, X] = sum_j (-1)**j D_{x_j}(a) (X without x_j)`` and
    ``[X, a] = (-1)**n [a, X]``.
    """
    n = len(slots)
    out = Multivector.zero(pair)
    for j in range(1, n + 1):
        sign = parity_sign(n + j) if flip else parity_sign(j)
        derived = anchor(pair, slots[j - 1], a)
        if derived.is_zero():
            continue
        rest = slots[: j - 1] + slots[j:]
        term = _wedge_vectors(pair, Multivector.from_scalar(pair, derived), rest)
        out = out + (term if sign > 0 else -term)
    return out


def _sn_term_pair(
    pair: LieRinehartPair,
    mx: tuple[int, ...],
    a: Scalar,
    my: tuple[int, ...],
    b: Scalar,
) -> Multivector:
    n, m = len(mx), len(my)
    if n == 0 and m == 0:
        return Multivector.zero(pair)
    if n == 0:
        return _scalar_contraction(pair, _absorbed_slots(pair, my, b), a, flip=False)
    if m == 0:
        return _scalar_contraction(pair, _absorbed_slots(pair, mx, a), b, flip=True)
    xs = _absorbed_slots(pair, mx, a)
    ys = _absorbed_slots(pair, my, b)
    out = Multivector.zero(pair)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            inner = bracket_vectors(pair, xs[i - 1], ys[j - 1])
            if inner.is_zero():
                continue
            rest = xs[: i - 1] + xs[i:] + ys[: j - 1] + ys[j:]
            term = _wedge_vectors(pair, Multivector.from_vector(pair, inner), rest)
            if parity_sign(i + j) < 0:
                term = -term
            out = out + term
    return out


def _constant_terms(value: Multivector) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """``(monomial, rational)`` pairs of a multivector with constant coefficients."""
    if not all(coeff.is_constant() for coeff in value.terms.values()):
        raise ValueError(
            f"anchor of {value.pair.name} is not a constant-coefficient derivation: {value}"
        )
    return tuple((mono, coeff.constant_value()) for mono, coeff in value.terms.items())


def _monomial_bracket(pair: LieRinehartPair, mx: tuple[int, ...], my: tuple[int, ...]) -> tuple:
    """``(products, left, right)`` of ``[e_mx, e_my]``, memoized in the pair's table.

    Probes the general evaluator with the coefficients ``(1, 1)``, ``(1, x_k)``
    and ``(x_k, 1)``; the latter two, less ``x_k`` times the first, are the
    parts linear in ``d_k b`` and ``d_k a``.
    """
    key = (mx, my)
    entry = pair.monomial_brackets.get(key)
    if entry is None:
        one = pair.scalar_one()
        unit = _sn_term_pair(pair, mx, one, my, one)
        left: list[tuple[int, tuple[int, ...], Fraction]] = []
        right: list[tuple[int, tuple[int, ...], Fraction]] = []
        for k in range(1, pair.nvars + 1):
            xk = pair.scalar_variable(k)
            shifted = unit.scaled(xk)
            probe = _sn_term_pair(pair, mx, one, my, xk) - shifted
            left += [(k, mono, q) for mono, q in _constant_terms(probe)]
            probe = _sn_term_pair(pair, mx, xk, my, one) - shifted
            right += [(k, mono, q) for mono, q in _constant_terms(probe)]
        entry = (_constant_terms(unit), tuple(left), tuple(right))
        pair.monomial_brackets[key] = entry
    return entry


def sn_antisym(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """Antisymmetric Schouten-Nijenhuis bracket, homogeneous of tensor degree -1.

    Exact when the anchor of every generator is a derivation
    ``sum_k rho_ik d_k`` with constant ``rho_ik`` (zero on ``lie_algebra``
    pairs, ``d_i`` on ``cartan`` pairs).  Then
    ``[a e_I, b e_J] = sum q ab e_M + sum q a d_k(b) e_M + sum q b d_k(a) e_M``
    over the ``products``, ``left`` and ``right`` lists of the pair's table
    entry for ``(I, J)``, summed here in bare ``Fraction`` coefficients keyed
    by (monomial, exponent tuple).
    """
    x._check(y)
    sums: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
    for mx, a in x.terms.items():
        a_terms = a.terms.items()
        for my, b in y.terms.items():
            b_terms = b.terms.items()
            products, left, right = _monomial_bracket(pair, mx, my)
            if products:
                for ea, ca in a_terms:
                    for eb, cb in b_terms:
                        e = tuple(map(add, ea, eb))
                        c = ca * cb
                        for mono, q in products:
                            key = (mono, e)
                            sums[key] = sums.get(key, 0) + q * c
            for k, mono, q in left:
                for eb, cb in b_terms:
                    n = eb[k - 1]
                    if n:
                        db = eb[: k - 1] + (n - 1,) + eb[k:]
                        for ea, ca in a_terms:
                            key = (mono, tuple(map(add, ea, db)))
                            sums[key] = sums.get(key, 0) + q * n * ca * cb
            for k, mono, q in right:
                for ea, ca in a_terms:
                    n = ea[k - 1]
                    if n:
                        da = ea[: k - 1] + (n - 1,) + ea[k:]
                        for eb, cb in b_terms:
                            key = (mono, tuple(map(add, da, eb)))
                            sums[key] = sums.get(key, 0) + q * n * ca * cb
    grouped: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for (mono, e), c in sums.items():
        if c:
            grouped.setdefault(mono, {})[e] = c
    return Multivector(pair, {mono: Scalar(pair.nvars, terms) for mono, terms in grouped.items()})


def sn_sym(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """Symmetric bracket ``{x, y} = e(x) [y, x]``; bilinear over components."""
    x._check(y)
    out = Multivector.zero(pair)
    for degree, component in x.homogeneous_components().items():
        term = sn_antisym(pair, y, component)
        out = out + (term if parity_sign(degree) > 0 else -term)
    return out


# -- identity checks ----------------------------------------------------------


def _sample_triples(pair, trials, seed, max_degree):
    """``trials`` seeded random homogeneous triples, drawn lazily."""
    from . import sampling

    rng = sampling.rng_for(seed)
    # Vectors and bivectors carry the most signal; scalars and top-degree
    # elements stay in the mix but less often.
    palette = [d for d in (0, 1, 1, 2, 2, 3) if d <= min(max_degree, pair.dim)]
    for _ in range(trials):
        yield tuple(sampling.random_homogeneous(pair, rng, rng.choice(palette)) for _ in range(3))


def check_antisym_jacobi(
    pair: LieRinehartPair, trials: int = 200, seed: int = 0, max_degree: int = 3
) -> BracketReport:
    """Graded Jacobi in the antisymmetric grading on random homogeneous triples."""

    def residual(case):
        x, y, z = case
        dx, dy, dz = (tensor_degree(v) - 1 for v in case)
        return (
            sn_antisym(pair, x, sn_antisym(pair, y, z)).scaled(parity_sign(dx * dz))
            + sn_antisym(pair, y, sn_antisym(pair, z, x)).scaled(parity_sign(dx * dy))
            + sn_antisym(pair, z, sn_antisym(pair, x, y)).scaled(parity_sign(dy * dz))
        )

    cases = _sample_triples(pair, trials, seed, max_degree)
    return run_identity("jacobi-antisym", cases, residual, seed=seed)


def check_poisson(
    pair: LieRinehartPair, trials: int = 200, seed: int = 0, max_degree: int = 3
) -> BracketReport:
    """Graded Leibniz rule of the bracket against the wedge."""

    def residual(case):
        x, y, z = case
        dx = tensor_degree(x) - 1
        dy = tensor_degree(y) - 1
        return (
            sn_antisym(pair, x, wedge(pair, y, z))
            - wedge(pair, sn_antisym(pair, x, y), z)
            - wedge(pair, y, sn_antisym(pair, x, z)).scaled(parity_sign(dx * (dy - 1)))
        )

    cases = _sample_triples(pair, trials, seed, max_degree)
    return run_identity("poisson", cases, residual, seed=seed)


def check_sym_jacobi(
    pair: LieRinehartPair, trials: int = 200, seed: int = 0, max_degree: int = 3
) -> BracketReport:
    """Shuffle-sum Jacobi of the symmetric bracket over ``Sh(2, 1)``."""

    def residual(args):
        degrees = [tensor_degree(v) for v in args]
        out = Multivector.zero(pair)
        for s in shuffles((2, 1)):
            inner = sn_sym(pair, args[s(1) - 1], args[s(2) - 1])
            term = sn_sym(pair, inner, args[s(3) - 1])
            out = out + term.scaled(koszul_sign(s, degrees))
        return out

    cases = _sample_triples(pair, trials, seed, max_degree)
    return run_identity("jacobi-sym", cases, residual, seed=seed)


def check_morphism_respects_sn(
    m: PairMorphism, trials: int = 100, seed: int = 0, max_degree: int = 3
) -> BracketReport:
    """Prolonged morphisms are bracket morphisms: ``F([x,y]) = [F(x), F(y)]``."""
    from . import sampling
    from .exterior import associated_exterior_morphism

    def residual(case):
        x, y = case
        lhs = associated_exterior_morphism(m, sn_antisym(m.source, x, y))
        rhs = sn_antisym(
            m.target,
            associated_exterior_morphism(m, x),
            associated_exterior_morphism(m, y),
        )
        return lhs - rhs

    rng = sampling.rng_for(seed)
    max_degree = min(max_degree, m.source.dim)
    cases = (
        tuple(sampling.random_homogeneous(m.source, rng, rng.randint(0, max_degree)) for _ in range(2))
        for _ in range(trials)
    )
    return run_identity("morphism-sn", cases, residual, seed=seed)


def decalage_relation(pair: LieRinehartPair, x: Multivector, y: Multivector) -> BracketReport:
    """Check the decalage dictionary between the two brackets on homogeneous x, y.

    Asserts the defining relation ``{x,y} = e(x) [y,x]`` together with graded
    antisymmetry of ``[.,.]`` (antisymmetric grading) and graded symmetry of
    ``{.,.}`` (tensor grading).
    """
    nx, ny = tensor_degree(x), tensor_degree(y)
    if nx == INHOMOGENEOUS or ny == INHOMOGENEOUS:
        raise ValueError("decalage relation is stated for homogeneous inputs")
    sym = sn_sym(pair, x, y)
    anti_xy = sn_antisym(pair, x, y)
    anti_yx = sn_antisym(pair, y, x)
    checks = [
        sym - anti_yx.scaled(parity_sign(nx)),
        anti_xy + anti_yx.scaled(parity_sign((nx - 1) * (ny - 1))),
        sym - sn_sym(pair, y, x).scaled(parity_sign(nx * ny)),
    ]
    for residual in checks:
        if not residual.is_zero():
            return BracketReport.failure("decalage", str(residual), witness=[str(x), str(y)])
    return BracketReport.success("decalage")
