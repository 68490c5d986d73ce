"""Higher Lie brackets on the exterior algebra and their coherence laws.

The arity-``n`` bracket sums ``e(s) e(x_{s(1)}) x_{s(n)} ^ ... ^ x_{s(3)} ^
[x_{s(2)}, x_{s(1)}]`` over ``Sh(2, n-2)``; arity one is the zero operator
and arity two reproduces the symmetric Schouten-Nijenhuis bracket.  Koszul
signs throughout use the tensor grading.

This module also provides the coalgebraic differential available on
trivial-scalar pairs, the weak natural injection ``i_n = (-1)**(n-1) (n-1)!
x_n ^ ... ^ x_1`` together with the checker of its weak-morphism structure
equation, and the exact combinatorial sum over ordered compositions whose
value ``1/2`` closes the injection argument.

The checker sums the right side of the structure equation over unordered
set partitions of the arguments with coefficient 1 (the unshuffle form of
Lada-Markl).  That equals the ``1/p!``-weighted sum over ordered
compositions because the injection's components are multilinear and graded
symmetric in the tensor grading, with an image carrying the total degree of
its arguments, and the target bracket is graded symmetric too: the ``p!``
block orders of one partition give equal terms.  Each argument splits into
a scalar part of degree 0 and a vector part of degree 1.  For each
partition the checker enumerates the parts only of the arguments outside
its largest block ``B*`` and sums ``B*``'s exactly: no inversion lies inside
an increasing block, so the Koszul sign factors over ``B*``'s elements, and
by multilinearity each ``k`` in ``B*`` enters as ``x_k^0 + (-1)**t_k
x_k^1``, ``t_k`` the parity of the outside degrees that inversions join to
``k`` (the proof is in ``_structure_equation_residual``).  The left side is
twisted the same way, one term per pair ``i < j`` and choice of their parts:
``sn_sym`` of the two embedded parts, which is their bracket in ``A (+) g``,
wedged under the cached word of the rest, as on the right side.

Every sum here adds the ``int`` numerators of int forms ``(D, rows)`` (see
:mod:`schoutencalc.exterior`), so no ``Fraction`` is built before a result is
read.  On trivial scalars the n-bracket table holds ``int`` terms over the
pair's ``bracket_denominator`` ``D_pair``, so on one pair each term of the
structure equation lies over ``D_pair D_1 ... D_n``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedPairError
from .exterior import Multivector, _IntSum, _of_form, embed, tensor_degree, wedge
from .graded import parity_sign, partition_table, signed_shuffles
from .pairs import GradedPairElement, LieRinehartPair
from .report import BracketReport, run_identity

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


def _n_bracket_hom(pair: LieRinehartPair, args: list[Multivector], degrees: list[int]) -> Multivector:
    """One shuffle sum on homogeneous ``args`` of the given tensor degrees.

    The shuffles of ``Sh(2, n-2)`` and their Koszul signs come from the
    :func:`signed_shuffles` table.  A shuffle whose inner bracket is zero is
    skipped; otherwise ``x_{s(n)} ^ ... ^ x_{s(3)} ^ inner`` is built by
    wedging each ``x_{s(k)}``, k = 3..n, onto the left of ``inner``.
    """
    from .schouten import sn_antisym

    n = len(args)
    out = _IntSum()
    for order, sign in signed_shuffles((2, n - 2) if n > 2 else (2,), degrees):
        first, second = order[0], order[1]
        inner = sn_antisym(pair, args[second], args[first])
        if inner.is_zero():
            continue
        term = inner
        for k in order[2:]:
            term = wedge(pair, args[k], term)
        out.add(term, sign * parity_sign(degrees[first]))
    return out.value(pair)


def n_bracket(pair: LieRinehartPair, args: Sequence[Multivector]) -> Multivector:
    """The arity-``len(args)`` bracket, extended multilinearly to mixed degrees.

    On trivial scalars, ``sum +-c_1...c_p n_brackets[sorted (m_1..m_p)]`` over
    one term ``c_k e_(m_k)`` per argument (sign: see :class:`LieRinehartPair`),
    with ``c_k = n_k / D_k`` read from the argument's int form: the ``int``
    sums lie over ``D_pair D_1 ... D_p``.  Other pairs sum
    :func:`_n_bracket_hom` over the homogeneous parts.
    """
    args = list(args)
    if not args:
        raise ValueError("n_bracket needs at least one argument")
    if any(a.pair is not pair and not a.pair.compatible(pair) for a in args):
        raise ValueError("multivector does not belong to the given pair")
    if len(args) == 1:
        return Multivector.zero(pair)
    if not pair.is_trivial_scalars:
        out = _IntSum()
        for combo in itertools.product(*(a.homogeneous_components().items() for a in args)):
            out.add(_n_bracket_hom(pair, [c[1] for c in combo], [c[0] for c in combo]))
        return out.value(pair)
    forms = [a._form for a in args]
    d = pair.bracket_denominator * math.prod([form[0] for form in forms])
    sums: dict = {}
    for combo in itertools.product(*(rows for _, rows in forms)):
        monos = [mono for mono, _ in combo]
        key = tuple(sorted(monos))
        entry = pair.n_brackets.get(key)
        if entry is None:
            if sum(map(len, key)) > pair.dim + 1:  # of degree above dim, so zero
                continue
            units = [_of_form(pair, (1, [(m, [((), 1)])])) for m in key]
            # Each term holds one sn_antisym result over D_pair, so the sum lies over D_pair.
            value = _n_bracket_hom(pair, units, [len(m) for m in key])._form[1]
            entry = pair.n_brackets[key] = tuple((m, r[0][1]) for m, r in value)
        if not entry:
            continue
        odd = [mono for mono in monos if len(mono) % 2]
        c = -1 if sum(a > b for i, a in enumerate(odd) for b in odd[i + 1 :]) % 2 else 1
        for _, row in combo:
            c *= row[0][1]
        for mono, q in entry:
            sums[mono] = sums.get(mono, 0) + q * c
    rows = [(mono, [((), c)]) for mono, c in sums.items() if c]
    return _of_form(pair, (d, rows)) if rows else Multivector.zero(pair)


@dataclass(frozen=True)
class BracketFamily:
    """The n-brackets of a fixed pair, as the target of a weak morphism."""

    pair: LieRinehartPair


# -- weak Jacobi ---------------------------------------------------------------


def _shuffle_sum(pair: LieRinehartPair, args: list[Multivector], arities) -> Multivector:
    """``sum_j sum_{Sh(j, n-j)} e(s) {{x_s(1..j)}_j, x_s(j+1..n)}`` over the inner arities.

    Each ``Sh(j, n-j)`` and its Koszul signs are read from the
    :func:`signed_shuffles` table.  A zero inner bracket skips the outer
    one, which is multilinear.
    """
    n = len(args)
    degrees = []
    for a in args:
        d = tensor_degree(a)
        if not isinstance(d, int):
            raise ValueError("weak Jacobi arguments must be homogeneous")
        degrees.append(d)
    residual = _IntSum()
    for j in arities:
        parts = (j,) if j == n else (j, n - j)
        for order, sign in signed_shuffles(parts, degrees):
            inner = n_bracket(pair, [args[i] for i in order[:j]])
            if inner.is_zero():
                continue
            residual.add(n_bracket(pair, [inner] + [args[i] for i in order[j:]]), sign)
    return residual.value(pair)


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
    each bracket term gives that sign.  The monomials' coefficients
    ``n / D`` are read from ``x``'s int form.
    """
    if not pair.is_trivial_scalars:
        raise UnsupportedPairError(
            "the coalgebraic differential exists only for trivial-scalar pairs"
        )
    d, rows = x._form
    out = _IntSum()
    for mono, row in rows:
        n = len(mono)
        if n < 2:
            continue
        generators = [Multivector.monomial(pair, (g,)) for g in mono]
        out.add(n_bracket(pair, generators), parity_sign((n - 1) * (n - 2) // 2) * row[0][1])
    return out.value(pair, d)


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
    return out.scaled(parity_sign(n - 1) * math.factorial(n - 1))


@dataclass(frozen=True)
class _InjectionFamily:
    """The natural injection's components ``k -> i_k`` into one pair's exterior algebra."""

    pair: LieRinehartPair

    def __call__(self, k: int) -> Callable:
        return lambda elems: natural_injection(self.pair, elems)


def injection_family(pair: LieRinehartPair) -> _InjectionFamily:
    """The natural injection's components: ``f(k)(elems) == i_k(elems)``, none of them zero."""
    return _InjectionFamily(pair)


def _compositions(n: int, p: int):
    """Ordered tuples of p positive integers summing to n."""
    for cuts in itertools.combinations(range(1, n), p - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(p))


# Keyed by the arity alone, like graded.partition_table; never evicted.
_TWIST_TABLES: dict[int, tuple] = {}


def _twist_table(n: int) -> tuple:
    """The rows of ``partition_table(n)`` with their largest block summed out.

    One ``(blocks, star, outside, partners, inversions, factor)`` row per
    partition, in the same order: ``blocks[star]`` is the first largest block
    B*, ``outside`` the arguments not in B*, ``partners[r]`` the outside
    arguments that an inversion joins to B*'s ``r``-th argument,
    ``inversions`` the partition's inversions that touch no argument of B*,
    and ``factor`` the product of ``(-1)**(|B|-1) (|B|-1)!`` over the blocks.
    Equal tuples are shared between rows, the blocks are the partition table's.
    """
    table = _TWIST_TABLES.get(n)
    if table is None:
        shared: dict[tuple, tuple] = {}
        rows = []
        for blocks, inversions in partition_table(n):
            star = max(range(len(blocks)), key=lambda b: len(blocks[b]))
            inside = blocks[star]
            outside = tuple(k for k in range(n) if k not in inside)
            # No inversion lies inside B*, so a + b - k is k's outside partner.
            partners = [tuple(sorted(a + b - k for a, b in inversions if k in (a, b))) for k in inside]
            rest = tuple(ab for ab in inversions if ab[0] not in inside and ab[1] not in inside)
            rows.append((
                blocks,
                star,
                shared.setdefault(outside, outside),
                tuple(shared.setdefault(t, t) for t in partners),
                shared.setdefault(rest, rest),
                math.prod([parity_sign(len(b) - 1) * math.factorial(len(b) - 1) for b in blocks]),
            ))
        table = _TWIST_TABLES[n] = tuple(rows)
    return table


def _word(pair: LieRinehartPair, words: dict, units: list, block: tuple[int, ...], choice: tuple[int, ...]):
    """``x_{b_m} ^ ... ^ x_{b_1}`` on the chosen units, one wedge onto the cached shorter word."""
    key = (block, choice)
    word = words.get(key)
    if word is None:
        head = units[block[-1]][choice[-1]]
        word = words[key] = (
            head if len(block) == 1 else wedge(pair, head, _word(pair, words, units, block[:-1], choice[:-1]))
        )
    return word


def _structure_equation_residual(source_pair, target_pair, args) -> Multivector:
    """LHS minus RHS of the natural injection's weak-morphism structure equation.

    Split each argument ``x_k = x_k^0 + x_k^1`` into its scalar part, of
    tensor degree 0, and its vector part, of degree 1.  Over those parts the
    equation reads

        sum_{i<j} sum_d e(i, j, R; d) i_{n-1}([x_i^d_i, x_j^d_j], x_R^d)
            = sum_{B_1 | ... | B_p} sum_d e(s; d) {i_|B_1|(x_B_1^d), ..., i_|B_p|(x_B_p^d)}_p.

    The left side is the ``Sh(2, n-2)`` sum, ``R`` the rest in increasing
    order, since ``A (+) g`` has only its binary bracket.  The right side
    runs over the unordered set partitions of ``1..n`` into ``p >= 2``
    blocks (the arity-one bracket is zero), blocks increasing and ordered by
    least element, ``s`` their concatenation: the unshuffle form of
    Lada-Markl.  Coefficient 1 replaces the ``1/p!`` of the
    ordered-composition form because the components and the target bracket
    are multilinear and graded symmetric in the tensor grading, so the
    ``p!`` block orders give equal terms.  ``e(s; d)`` is ``(-1)**sum(d_a
    d_b)`` over the inversions ``(a, b)`` of ``s``, from :func:`partition_table`.

    Summing out one block.  Fix a partition and its first largest block
    ``B*``.  Blocks are increasing, so no inversion lies inside ``B*``, and
    each inversion touching ``B*`` joins one ``k`` in ``B*`` to one outside
    argument.  So the Koszul sign factors over ``B*``'s elements:

        e(s; d) = e'(d) prod_{k in B*} (-1)**(d_k t_k),

    where ``e'`` counts only the inversions that touch no argument of
    ``B*`` and ``t_k`` is the parity of the degrees of the outside arguments
    that the inversions join to ``k``.  Neither depends on the degrees on
    ``B*``, nor do the other blocks' images.  ``i_|B*|`` and the bracket
    are multilinear, so for fixed outside degrees the ``2**|B*|`` terms of
    the degrees on ``B*`` sum to one bracket with ``y_k = x_k^0 +
    (-1)**t_k x_k^1`` in place of ``x_k`` in ``B*``, signed ``e'(d)``.  The
    left side is the same with ``B* = R``: the inversions of ``(i, j, R)``
    are ``(i, k)`` for ``k < i`` and ``(j, k)`` for ``k < j``, ``R`` being
    increasing, so ``t_k = d_i [k < i] + d_j [k < j]``, and there is one
    term per pair ``i < j`` and choice of ``d_i``, ``d_j``.  The rows'
    ``B*``, partners and remaining inversions come from :func:`_twist_table`.

    The inner bracket.  On parts of degree ``<= 1``, ``embed`` carries the
    bracket ``[(a, x), (b, y)] = (D_x(b) + D_y(a), [x, y])`` of ``A (+) g``
    to ``sn_sym``, ``{u, v} = e(u) [v, u]`` (signs of :mod:`.schouten`):
    ``{x, y} = -[y, x] = [x, y]`` on vectors, ``{a, y} = [y, a] = D_y(a)``
    and ``{x, b} = -[b, x] = D_x(b)`` on a scalar and a vector, ``{a, b} =
    [b, a] = 0`` on scalars.  So a left term is ``(-1)**n (n-2)! W(R) ^
    {u_i, u_j}``, ``u`` the embedded parts, ``W(R)`` the twisted rest's word
    and ``sn_sym`` the source pair's; the constructor rebuilds a bracket of
    another source pair in the target, refusing one that leaves it.

    Words.  Each argument is embedded and cleared once, over its own
    ``D_k``, into four int-form units: its scalar part, its vector part, and
    their sum and difference.  A block ``b_1 < ... < b_m``'s word on chosen
    units ``u`` is ``u_(b_m) ^ W(b_1, ..., b_(m-1))``, one :func:`wedge` onto
    the cached shorter word, over ``D_(b_1) ... D_(b_m)``, built once per
    call for both sides.  Its image is ``(-1)**(m-1) (m-1)!`` times it; each
    :func:`_twist_table` row holds the product of these, so :func:`n_bracket`
    takes the words.  A partition is skipped at a zero word (the bracket is
    multilinear) and, on trivial scalars, a two-block one at a constant word
    (it is central).  On one pair every term lies over ``D_pair D_1 ...
    D_n``; the residual is one ``int`` sum, ``exterior._IntSum``.
    """
    from .schouten import sn_sym

    n = len(args)
    residual = _IntSum()
    units = []
    for x in args:
        dk, rows = embed(target_pair, x)._form
        scalar = [row for row in rows if not row[0]]
        vector = [row for row in rows if row[0]]
        minus = [(m, [(e, -c) for e, c in row]) for m, row in vector]
        # Units 0 and 1 are the parts of degree 0 and 1; unit 2 + t is x^0 + (-1)**t x^1.
        units.append([_of_form(target_pair, (dk, part)) for part in (scalar, vector, rows, scalar + minus)])
    degrees = [tuple(d for d in (0, 1) if not unit[d].is_zero()) for unit in units]
    words: dict = {}
    bracketed = units
    if source_pair is not target_pair:
        bracketed = [[Multivector(source_pair, u.terms) for u in unit[:2]] for unit in units]
    # Two scalar parts bracket to zero; on trivial scalars (zero anchor) a scalar part always does.
    least = 2 if source_pair.is_trivial_scalars else 1
    constant = parity_sign(n) * math.factorial(max(n - 2, 0))
    for i, j in itertools.combinations(range(n), 2):
        rest = tuple(k for k in range(n) if k != i and k != j)
        for di in degrees[i]:
            for dj in degrees[j]:
                if di + dj < least:
                    continue
                term = sn_sym(source_pair, bracketed[i][di], bracketed[j][dj])
                if term.is_zero():
                    continue
                if term.pair is not target_pair:
                    term = Multivector(target_pair, term.terms)
                if rest:
                    choice = tuple([2 + (di * (k < i) + dj * (k < j)) % 2 for k in rest])
                    term = wedge(target_pair, _word(target_pair, words, units, rest, choice), term)
                residual.add(term, constant)

    d = [0] * n
    for blocks, star, outside, partners, inversions, factor in _twist_table(n):
        central = target_pair.is_trivial_scalars and len(blocks) == 2
        for choice in itertools.product(*[degrees[m] for m in outside]):
            for m, dm in zip(outside, choice):
                d[m] = dm
            block_words = []
            for b, block in enumerate(blocks):
                if b == star:
                    chosen = tuple([2 + sum([d[m] for m in p]) % 2 for p in partners])
                else:
                    chosen = tuple([d[k] for k in block])
                word = _word(target_pair, words, units, block, chosen)
                if word.is_zero() or central and not any([m for m, _ in word._form[1]]):
                    break
                block_words.append(word)
            else:
                odd = sum([d[a] & d[b] for a, b in inversions]) % 2
                residual.add(n_bracket(target_pair, block_words), factor if odd else -factor)
    return residual.value(target_pair)


# Largest arity check_linfty_morphism evaluates.
_MAX_ARITY = 5


def check_linfty_morphism(
    source_pair: LieRinehartPair,
    f: _InjectionFamily,
    target: BracketFamily,
    n: int,
    args: Sequence[GradedPairElement],
) -> BracketReport:
    """Evaluate the natural injection's weak-morphism structure equation at arity ``n``.

    ``f`` must be ``injection_family(target.pair)``: the evaluator sums out
    one block per partition by the injection's multilinearity and graded
    symmetry, so any other family raises ``TypeError``.  The source is
    ``A (+) g`` with only its binary bracket, so ``args`` must be
    :class:`GradedPairElement` values.  The term count grows
    super-exponentially in ``n``, so ``n`` above 5 is refused.
    """
    if f != injection_family(target.pair):
        raise TypeError("check_linfty_morphism evaluates injection_family(target.pair) only")
    if n < 1:
        raise ValueError("arity must be at least 1")
    if n > _MAX_ARITY:
        raise ValueError(f"arity {n} exceeds the cap {_MAX_ARITY}")
    if len(args) != n:
        raise ValueError(f"expected {n} arguments, got {len(args)}")
    if not all(isinstance(a, GradedPairElement) for a in args):
        raise TypeError("structure-equation arguments must be GradedPairElement values")
    residual = lambda xs: _structure_equation_residual(source_pair, target.pair, list(xs))
    return run_identity("linfty-morphism", [args], residual, n=n)


def injection_morphism_residual(
    pair: LieRinehartPair, args: Sequence[GradedPairElement]
) -> Multivector:
    """Structure-equation residual of the natural injection at the given args."""
    return _structure_equation_residual(pair, pair, list(args))


# -- the composition identity ----------------------------------------------------


def composition_identity_terms(n: int) -> dict[int, Fraction]:
    """Per-``p`` partial sums of the composition identity, exact."""
    if n < 2:
        raise ValueError("the identity is stated for n >= 2")
    out: dict[int, Fraction] = {}
    for p in range(2, n + 1):
        total = Fraction(0)
        for ks in _compositions(n, p):
            pairs = sum(ks[l] * ks[m] for l in range(p) for m in range(l + 1, p))
            total += Fraction(pairs, math.prod(ks))
        out[p] = Fraction(parity_sign(p), math.factorial(p)) * total
    return out


def composition_identity_lhs(n: int) -> Fraction:
    """Brute-force the ordered-composition sum; equals ``1/2`` for every n >= 2."""
    return sum(composition_identity_terms(n).values(), Fraction(0))
