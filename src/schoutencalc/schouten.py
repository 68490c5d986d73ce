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

The primary evaluator (:func:`sn_antisym`) uses coefficient absorption; the
independent oracle (:func:`sn_antisym_poisson`) recurses through the graded
Leibniz rule ``[x, y^z] = [x,y]^z + (-1)**(deg(x)(deg(y)-1)) y^[x,z]`` and
graded antisymmetry, so the two routes cross-check each other's signs.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import INHOMOGENEOUS, Multivector, tensor_degree, wedge
from .graded import koszul_sign, parity_sign, shuffles
from .pairs import LieRinehartPair, PairMorphism, Vector, anchor, bracket_vectors
from .report import BracketReport
from .scalars import Scalar

__all__ = [
    "check_antisym_jacobi",
    "check_morphism_respects_sn",
    "check_poisson",
    "check_sym_jacobi",
    "decalage_relation",
    "sn_antisym",
    "sn_antisym_poisson",
    "sn_antisym_shuffle",
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


def _monomial_bracket(
    pair: LieRinehartPair, mx: tuple[int, ...], my: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """``[e_mx, e_my]`` with unit coefficients, memoized in the pair's table."""
    key = (mx, my)
    entry = pair.monomial_brackets.get(key)
    if entry is None:
        one = pair.scalar_one()
        value = _sn_term_pair(pair, mx, one, my, one)
        entry = tuple((mono, coeff.terms[()]) for mono, coeff in value.terms.items())
        pair.monomial_brackets[key] = entry
    return entry


def sn_antisym(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """Antisymmetric Schouten-Nijenhuis bracket, homogeneous of tensor degree -1.

    With trivial scalars the anchor is zero, so ``[a e_I, b e_J] = ab [e_I, e_J]``
    and the bracket is read from the pair's table of monomial brackets.
    """
    x._check(y)
    if pair.is_trivial_scalars:
        sums: dict[tuple[int, ...], Fraction] = {}
        for mx, a in x.terms.items():
            fa = a.terms[()]
            for my, b in y.terms.items():
                ab = fa * b.terms[()]
                for mono, c in _monomial_bracket(pair, mx, my):
                    sums[mono] = sums.get(mono, 0) + ab * c
        return Multivector(pair, {mono: Scalar(0, {(): c}) for mono, c in sums.items() if c})
    out = Multivector.zero(pair)
    for mx, a in x.terms.items():
        for my, b in y.terms.items():
            out = out + _sn_term_pair(pair, mx, a, my, b)
    return out


def _poisson_pair(
    pair: LieRinehartPair,
    mx: tuple[int, ...],
    a: Scalar,
    my: tuple[int, ...],
    b: Scalar,
) -> Multivector:
    n, m = len(mx), len(my)
    if m >= 2:
        # [X, Y'^z] = [X, Y']^z + (-1)**(deg(X)(deg(Y')-1)) Y'^[X, z]
        head_mono, last = my[:-1], my[-1]
        left = _poisson_pair(pair, mx, a, head_mono, b)
        left = wedge(pair, left, Multivector.monomial(pair, (last,)))
        right = _poisson_pair(pair, mx, a, (last,), pair.scalar_one())
        right = wedge(pair, Multivector.monomial(pair, head_mono, b), right)
        if parity_sign((n - 1) * (m - 3)) < 0:
            right = -right
        return left + right
    if n >= 2:
        flipped = _poisson_pair(pair, my, b, mx, a)
        sign = -parity_sign((n - 1) * (m - 1))
        return flipped if sign > 0 else -flipped
    if n == 0 and m == 0:
        return Multivector.zero(pair)
    if n == 1 and m == 0:
        return Multivector.from_scalar(pair, anchor(pair, Vector({mx[0]: a}), b))
    if n == 0 and m == 1:
        return -Multivector.from_scalar(pair, anchor(pair, Vector({my[0]: b}), a))
    return Multivector.from_vector(
        pair, bracket_vectors(pair, Vector({mx[0]: a}), Vector({my[0]: b}))
    )


def sn_antisym_poisson(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """Independent oracle for :func:`sn_antisym` via Poisson-rule recursion."""
    x._check(y)
    out = Multivector.zero(pair)
    for mx, a in x.terms.items():
        for my, b in y.terms.items():
            out = out + _poisson_pair(pair, mx, a, my, b)
    return out


def sn_antisym_shuffle(
    pair: LieRinehartPair, xs: list[Vector], ys: list[Vector]
) -> Multivector:
    """Symmetric shuffle form of the bracket on lists of vector slots.

    Sums ``e(s) e(t) [x_{s(1)}, y_{t(1)}] ^ x_{s(2..n)} ^ y_{t(2..m)}`` over
    ``Sh(1, n-1) x Sh(1, m-1)``; agrees with the double-sum form.
    """
    n, m = len(xs), len(ys)
    if n == 0 or m == 0:
        raise ValueError("shuffle form needs at least one vector in each slot list")
    degrees_x = [1] * n
    degrees_y = [1] * m
    out = Multivector.zero(pair)
    s_parts = (1, n - 1) if n > 1 else (1,)
    t_parts = (1, m - 1) if m > 1 else (1,)
    for s in shuffles(s_parts):
        for t in shuffles(t_parts):
            sign = koszul_sign(s, degrees_x) * koszul_sign(t, degrees_y)
            inner = bracket_vectors(pair, xs[s(1) - 1], ys[t(1) - 1])
            if inner.is_zero():
                continue
            rest = [xs[s(k) - 1] for k in range(2, n + 1)]
            rest += [ys[t(k) - 1] for k in range(2, m + 1)]
            term = _wedge_vectors(pair, Multivector.from_vector(pair, inner), rest)
            out = out + (term if sign > 0 else -term)
    return out


def sn_sym(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """Symmetric bracket ``{x, y} = e(x) [y, x]``; bilinear over components."""
    x._check(y)
    out = Multivector.zero(pair)
    for degree, component in x.homogeneous_components().items():
        term = sn_antisym(pair, y, component)
        out = out + (term if parity_sign(degree) > 0 else -term)
    return out


# -- identity checks ----------------------------------------------------------


def _sample_triple(pair, rng, max_degree):
    from . import sampling

    # Vectors and bivectors carry the most signal; scalars and top-degree
    # elements stay in the mix but less often.
    palette = [d for d in (0, 1, 1, 2, 2, 3) if d <= max_degree]
    return tuple(
        sampling.random_homogeneous(pair, rng, rng.choice(palette)) for _ in range(3)
    )


def check_antisym_jacobi(
    pair: LieRinehartPair, trials: int = 200, seed: int = 0, max_degree: int = 3
) -> BracketReport:
    """Graded Jacobi in the antisymmetric grading on random homogeneous triples."""
    from . import sampling

    rng = sampling.rng_for(seed)
    max_degree = min(max_degree, pair.dim)
    for _ in range(trials):
        x, y, z = _sample_triple(pair, rng, max_degree)
        dx, dy, dz = (tensor_degree(v) - 1 for v in (x, y, z))
        residual = (
            sn_antisym(pair, x, sn_antisym(pair, y, z)).scaled(parity_sign(dx * dz))
            + sn_antisym(pair, y, sn_antisym(pair, z, x)).scaled(parity_sign(dx * dy))
            + sn_antisym(pair, z, sn_antisym(pair, x, y)).scaled(parity_sign(dy * dz))
        )
        if not residual.is_zero():
            return BracketReport.failure(
                "jacobi-antisym", str(residual), witness=[str(x), str(y), str(z)], seed=seed
            )
    return BracketReport.success("jacobi-antisym", seed=seed)


def check_poisson(
    pair: LieRinehartPair, trials: int = 200, seed: int = 0, max_degree: int = 3
) -> BracketReport:
    """Graded Leibniz rule of the bracket against the wedge."""
    from . import sampling

    rng = sampling.rng_for(seed)
    max_degree = min(max_degree, pair.dim)
    for _ in range(trials):
        x, y, z = _sample_triple(pair, rng, max_degree)
        dx = tensor_degree(x) - 1
        dy = tensor_degree(y) - 1
        residual = (
            sn_antisym(pair, x, wedge(pair, y, z))
            - wedge(pair, sn_antisym(pair, x, y), z)
            - wedge(pair, y, sn_antisym(pair, x, z)).scaled(parity_sign(dx * (dy - 1)))
        )
        if not residual.is_zero():
            return BracketReport.failure(
                "poisson", str(residual), witness=[str(x), str(y), str(z)], seed=seed
            )
    return BracketReport.success("poisson", seed=seed)


def check_sym_jacobi(
    pair: LieRinehartPair, trials: int = 200, seed: int = 0, max_degree: int = 3
) -> BracketReport:
    """Shuffle-sum Jacobi of the symmetric bracket over ``Sh(2, 1)``."""
    from . import sampling

    rng = sampling.rng_for(seed)
    max_degree = min(max_degree, pair.dim)
    for _ in range(trials):
        args = _sample_triple(pair, rng, max_degree)
        degrees = [tensor_degree(v) for v in args]
        residual = Multivector.zero(pair)
        for s in shuffles((2, 1)):
            inner = sn_sym(pair, args[s(1) - 1], args[s(2) - 1])
            term = sn_sym(pair, inner, args[s(3) - 1])
            residual = residual + term.scaled(koszul_sign(s, degrees))
        if not residual.is_zero():
            return BracketReport.failure(
                "jacobi-sym", str(residual), witness=[str(v) for v in args], seed=seed
            )
    return BracketReport.success("jacobi-sym", seed=seed)


def check_morphism_respects_sn(
    m: PairMorphism, trials: int = 100, seed: int = 0, max_degree: int = 3
) -> BracketReport:
    """Prolonged morphisms are bracket morphisms: ``F([x,y]) = [F(x), F(y)]``."""
    from . import sampling
    from .exterior import associated_exterior_morphism

    rng = sampling.rng_for(seed)
    max_degree = min(max_degree, m.source.dim)
    for _ in range(trials):
        x = sampling.random_homogeneous(m.source, rng, rng.randint(0, max_degree))
        y = sampling.random_homogeneous(m.source, rng, rng.randint(0, max_degree))
        lhs = associated_exterior_morphism(m, sn_antisym(m.source, x, y))
        rhs = sn_antisym(
            m.target,
            associated_exterior_morphism(m, x),
            associated_exterior_morphism(m, y),
        )
        residual = lhs - rhs
        if not residual.is_zero():
            return BracketReport.failure(
                "morphism-sn", str(residual), witness=[str(x), str(y)], seed=seed
            )
    return BracketReport.success("morphism-sn", seed=seed)


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
