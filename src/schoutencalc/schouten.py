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

:func:`sn_antisym` sums every argument through a per-pair table of
generator-monomial brackets, each split into the parts that multiply ``ab``,
``a d_k(b)`` and ``b d_k(a)`` and filled in closed form from the structure
constants and the anchor.  Like ``wedge``, it sums ``int`` products of its
arguments' int forms (table entries are ``int``s over the pair's
``bracket_denominator``) and returns an int form, so nested brackets make no
``Fraction``; :func:`sn_sym` is one :func:`sn_antisym` call.  The independent oracles
(the term-pair double sum, Poisson-rule recursion and the shuffle form) live
with the tests, in ``tests/oracles.py``.

The laws are residuals that must vanish, one function each of the pair and
the case; the command line draws the cases (``cli.SUITES``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .exterior import Multivector, _check_args, _from_cleared, _merge_monomials, _of_form
from .exterior import associated_exterior_morphism, tensor_degree, wedge
from .graded import parity_sign
from .pairs import LieRinehartPair, PairMorphism

__all__ = [
    "antisym_jacobi_residual",
    "morphism_sn_residual",
    "poisson_residual",
    "sn_antisym",
    "sn_sym",
]


def _add_wedge(total: dict, prefix: tuple, q: Fraction, *monomials: tuple[int, ...]) -> None:
    """Add ``q e_(m_1) ^ ... ^ e_(m_r) = sign q e_M`` to ``total[prefix + (M,)]``."""
    mono: tuple[int, ...] = ()
    for m in monomials:
        merged = _merge_monomials(mono, m)
        if merged is None:
            return
        sign, mono = merged
        q = sign * q
    key = prefix + (mono,)
    total[key] = total.get(key, 0) + q


def _anchor_row(pair: LieRinehartPair, i: int) -> list[tuple[int, Fraction]]:
    """Nonzero ``(k, rho_ik)`` of ``D_(e_i) = sum_k rho_ik d_k``, ``rho_ik = D_(e_i)(x_k)``."""
    row = []
    for k in range(1, pair.nvars + 1):
        rho = pair.anchor_generator(i, pair.scalar_variable(k))
        if not rho.is_constant():
            raise ValueError(
                f"anchor of {pair.name} is not a constant-coefficient derivation: "
                f"{pair.generator_name(i)}(x{k}) = {rho}"
            )
        if not rho.is_zero():
            row.append((k, rho.constant_value()))
    return row


def _monomial_bracket(pair: LieRinehartPair, mx: tuple[int, ...], my: tuple[int, ...]) -> tuple:
    """``(products, left, right)`` of ``[e_I, e_J]``, memoized in the pair's table.

    Koszul's closed form on generator monomials, with ``n = len(I)`` and
    ``r``, ``s`` counted from 1:

    * ``products = sum_(r,s) (-1)**(r+s) [e_(I_r), e_(J_s)] ^ e_(I-r) ^ e_(J-s)``;
    * ``left_k = sum_r (-1)**(r+n) rho_(I_r k) e_(I-r) ^ e_J``, multiplying ``a d_k(b)``;
    * ``right_k = sum_s (-1)**s rho_(J_s k) e_I ^ e_(J-s)``, multiplying ``b d_k(a)``.

    It is the double sum over slot pairs with the coefficients absorbed into
    the first slots, expanded by ``[a e_i, b e_j] = ab [e_i, e_j]
    + a D_i(b) e_j - b D_j(a) e_i``.

    Each coefficient ``q`` is stored as the ``int`` ``q D_pair``, ``D_pair``
    being the pair's ``bracket_denominator``, the lcm of the structure
    constants' denominators.  That product is an integer for both pair
    kinds.  A ``products`` coefficient is a signed sum of structure
    constants, each a multiple of ``1/D_pair``.  A ``left`` or ``right``
    coefficient is a signed ``rho``: Cartan pairs have ``rho = delta`` and
    ``D_pair = 1``, and Lie algebras have a zero anchor, so their entries
    hold structure constants only.
    """
    key = (mx, my)
    entry = pair.monomial_brackets.get(key)
    if entry is None:
        n = len(mx)
        products: dict = {}
        left: dict = {}
        right: dict = {}
        for r, i in enumerate(mx, 1):
            rest_x = mx[: r - 1] + mx[r:]
            for s, j in enumerate(my, 1):
                rest_y = my[: s - 1] + my[s:]
                for g, c in pair.generator_bracket(i, j).terms.items():
                    q = parity_sign(r + s) * c.constant_value()
                    _add_wedge(products, (), q, (g,), rest_x, rest_y)
            for k, rho in _anchor_row(pair, i):
                _add_wedge(left, (k,), parity_sign(r + n) * rho, rest_x, my)
        for s, j in enumerate(my, 1):
            rest_y = my[: s - 1] + my[s:]
            for k, rho in _anchor_row(pair, j):
                _add_wedge(right, (k,), parity_sign(s) * rho, mx, rest_y)
        dp = pair.bracket_denominator
        entry = tuple(
            tuple(head + (int(q * dp),) for head, q in part.items() if q) for part in (products, left, right)
        )
        pair.monomial_brackets[key] = entry
    return entry


def sn_antisym(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """Antisymmetric Schouten-Nijenhuis bracket, homogeneous of tensor degree -1.

    Exact when the anchor of every generator is a derivation
    ``sum_k rho_ik d_k`` with constant ``rho_ik`` (zero on ``lie_algebra``
    pairs, ``d_i`` on ``cartan`` pairs); other anchors are refused with a
    ``ValueError``.  Then
    ``D_pair [a e_I, b e_J] = sum q ab e_M + sum q a d_k(b) e_M + sum q b d_k(a) e_M``
    over the ``products``, ``left`` and ``right`` lists of the pair's table
    entry for ``(I, J)`` (filled in closed form by ``_monomial_bracket``),
    each ``q`` an ``int``.  It reads both arguments' int forms, so the sums
    keyed by (monomial, exponent tuple) are ``int``s.  Zero sums are
    dropped, and the result is the int form of the sums over ``D_x D_y
    D_pair`` (``exterior._from_cleared``), wrapped without re-validation.
    """
    _check_args(pair, x, y)
    dx, xs = x._form
    dy, ys = y._form
    sums: dict = {}
    for mx, a_terms in xs:
        for my, b_terms in ys:
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
    return _from_cleared(pair, sums, dx * dy * pair.bracket_denominator)


def sn_sym(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """Symmetric bracket ``{x, y} = e(x) [y, x]``, bilinear over components.

    One :func:`sn_antisym` call ``[y, x']``, ``x'`` being ``x``'s int form
    with its odd tensor-degree rows negated; a zero ``x`` gives zero with no
    call, after the same pair checks.
    """
    _check_args(pair, x, y)
    if x.is_zero():
        return Multivector.zero(pair)
    d, rows = x._form
    twisted = [(mono, [(e, -n) for e, n in row]) if len(mono) % 2 else (mono, row) for mono, row in rows]
    return sn_antisym(pair, y, _of_form(x.pair, (d, twisted)))


# -- identity residuals --------------------------------------------------------


def antisym_jacobi_residual(
    pair: LieRinehartPair, x: Multivector, y: Multivector, z: Multivector
) -> Multivector:
    """Graded Jacobi in the antisymmetric grading on homogeneous ``x, y, z``."""
    dx, dy, dz = (tensor_degree(v) - 1 for v in (x, y, z))
    return (
        sn_antisym(pair, x, sn_antisym(pair, y, z)).scaled(parity_sign(dx * dz))
        + sn_antisym(pair, y, sn_antisym(pair, z, x)).scaled(parity_sign(dx * dy))
        + sn_antisym(pair, z, sn_antisym(pair, x, y)).scaled(parity_sign(dy * dz))
    )


def poisson_residual(
    pair: LieRinehartPair, x: Multivector, y: Multivector, z: Multivector
) -> Multivector:
    """Graded Leibniz rule of the bracket against the wedge, on homogeneous ``x, y``."""
    dx = tensor_degree(x) - 1
    dy = tensor_degree(y) - 1
    return (
        sn_antisym(pair, x, wedge(pair, y, z))
        - wedge(pair, sn_antisym(pair, x, y), z)
        - wedge(pair, y, sn_antisym(pair, x, z)).scaled(parity_sign(dx * (dy - 1)))
    )


def morphism_sn_residual(m: PairMorphism, x: Multivector, y: Multivector) -> Multivector:
    """``F([x, y]) - [F(x), F(y)]`` for the prolongation ``F`` of a validated morphism."""
    image = lambda v: associated_exterior_morphism(m, v)
    return image(sn_antisym(m.source, x, y)) - sn_antisym(m.target, image(x), image(y))
