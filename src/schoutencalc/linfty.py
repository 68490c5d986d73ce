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

The checker writes the right side of the structure equation over unordered
set partitions with coefficient 1 (the unshuffle form of Lada-Markl).  The
weights ``(-1)**(m-1) (m-1)!`` of the injection's components, the Moebius
function of the partition lattice, collapse that sum to the brackets of two
blocks that leave at most one argument out; in each, the parts of the
arguments are enumerated only outside the larger block, which enters with
twisted arguments ``x_k^0 + (-1)**t_k x_k^1``, as does the rest on the left
side.  The proofs are in ``_structure_equation_residual``; what depends on
the arity alone is read from one table per arity.

Every sum here adds the ``int`` numerators of int forms ``(D, rows)`` (see
:mod:`schoutencalc.exterior`), so no ``Fraction`` is built before a result is
read.  On trivial scalars the n-bracket table holds ``int`` terms over the
pair's ``bracket_denominator`` ``D_pair``, so on one pair each term of the
structure equation lies over ``D_pair D_1 ... D_n`` and its residual is one
``exterior._IntSum``.  On trivial scalars the weak-Jacobi shuffle sum is one
``int`` sum as well: each inner bracket lies over ``D_pair`` times its
arguments' ``D_k``, so every outer bracket's table terms lie over
``D_pair**2 D_1 ... D_n`` and add into one :func:`_table_sum`, with no outer
bracket built as a multivector.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedPairError
from .exterior import Multivector, _IntSum, _of_form, embed, tensor_degree, wedge
from .graded import parity_sign, signed_shuffles
from .pairs import GradedPairElement, LieRinehartPair
from .report import BracketReport, run_identity

__all__ = [
    "BracketFamily",
    "ce_differential",
    "check_linfty_morphism",
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


def _fitting_combinations(forms: list[list], budget: int):
    """The choices of one row per argument whose monomial lengths sum to at most ``budget``.

    Each argument's rows are grouped by length, and a partial choice of
    lengths is kept only while it plus the shortest lengths of the
    arguments still to come fits, so every kept prefix extends to at least
    one fitting choice: the work is bounded by the fitting combinations.
    """
    groups = []
    for rows in forms:
        by_length: dict[int, list] = {}
        for row in rows:
            by_length.setdefault(len(row[0]), []).append(row)
        groups.append(by_length)
    floors = [0]
    for by_length in reversed(groups):
        # A zero argument has no rows, so no choice fits.
        floors.append(floors[-1] + min(by_length, default=budget + 1))
    floors.reverse()
    prefixes = [((), 0)]
    for k, by_length in enumerate(groups):
        room = budget - floors[k + 1]
        prefixes = [
            (chosen + (rows,), total + length)
            for chosen, total in prefixes
            for length, rows in by_length.items()
            if total + length <= room
        ]
    return itertools.chain.from_iterable(itertools.product(*chosen) for chosen, _ in prefixes)


def _table_sum(pair: LieRinehartPair, d: int, brackets, top: int) -> Multivector:
    """A sum of n-brackets on a trivial-scalar pair, as one ``int`` sum over ``d``.

    ``brackets`` yields, for each bracket, the rows of its arguments' int
    forms ``(D_k, rows)``; ``top`` bounds the sum of their longest rows'
    lengths.  A bracket adds ``sum n_1...n_p n_brackets[key]`` over one row
    ``n_k e_(m_k)`` per argument, ``key`` the tuple of the non-constant
    ``m_k`` in argument order, so ``d`` must be ``D_pair D_1 ... D_p`` for
    every bracket.  A missing entry is :func:`_n_bracket_hom` on the unit
    monomials of its key, in that order, whose terms are ``int``s over
    ``D_pair``.  A combination of total length above ``dim + 1`` brackets to
    degree above ``dim``, which is zero; only when ``top`` passes ``dim + 1``
    are the combinations enumerated by length, skipping those
    (:func:`_fitting_combinations`), so the table never holds such an entry.

    The lemma.  On trivial scalars the anchor is zero, so a constant ``c`` is
    central, and it wedges as a scalar: ``l_n(c, y_2, ..., y_n) = c
    l_(n-1)(y_2, ..., y_n)``, with ``c`` in any position.  The shuffle terms
    whose inner bracket meets ``c`` are zero, and in each other one ``c`` is
    a factor of degree 0, which moves through the wedge and adds no Koszul
    sign, leaving one term of the ``(n-1)``-bracket.  Since ``l_1 = 0``, the
    bracket is zero when fewer than two non-constant arguments remain: such a
    key is skipped and stores no entry.
    """
    budget = pair.dim + 1
    table = pair.n_brackets
    sums: dict = {}
    for forms in brackets:
        combos = _fitting_combinations(forms, budget) if top > budget else itertools.product(*forms)
        for combo in combos:
            key = tuple([mono for mono, _ in combo if mono])
            if len(key) < 2:
                continue
            entry = table.get(key)
            if entry is None:
                units = [_of_form(pair, (1, [(m, [((), 1)])])) for m in key]
                # Each term holds one sn_antisym result over D_pair, so the sum lies over D_pair.
                value = _n_bracket_hom(pair, units, [len(m) for m in key])._form[1]
                entry = table[key] = tuple((m, r[0][1]) for m, r in value)
            if not entry:
                continue
            c = 1
            for _, row in combo:
                c *= row[0][1]
            for mono, q in entry:
                sums[mono] = sums.get(mono, 0) + q * c
    rows = [(mono, [((), c)]) for mono, c in sums.items() if c]
    return _of_form(pair, (d, rows)) if rows else Multivector.zero(pair)


def n_bracket(pair: LieRinehartPair, args: Sequence[Multivector]) -> Multivector:
    """The arity-``len(args)`` bracket, extended multilinearly to mixed degrees.

    One pass over ``args`` refuses an argument of another pair, reads each
    int form ``(D_k, rows)``, multiplies the ``D_k`` and notes each
    argument's longest row.  On trivial scalars the result is one
    :func:`_table_sum` over ``D_pair D_1 ... D_p``.  Other pairs sum
    :func:`_n_bracket_hom` over the homogeneous parts.
    """
    if not args:
        raise ValueError("n_bracket needs at least one argument")
    d = pair.bracket_denominator
    forms = []
    top = 0
    for a in args:
        if a.pair is not pair and not a.pair.compatible(pair):
            raise ValueError("multivector does not belong to the given pair")
        dk, rows = a._form
        d *= dk
        forms.append(rows)
        width = 0
        for mono, _ in rows:
            if len(mono) > width:
                width = len(mono)
        top += width
    if not pair.is_trivial_scalars:
        out = _IntSum()
        if len(forms) > 1:
            for combo in itertools.product(*(a.homogeneous_components().items() for a in args)):
                out.add(_n_bracket_hom(pair, [c[1] for c in combo], [c[0] for c in combo]))
        return out.value(pair)
    return _table_sum(pair, d, (forms,), top)


@dataclass(frozen=True)
class BracketFamily:
    """The n-brackets of a fixed pair, as the target of a weak morphism."""

    pair: LieRinehartPair


# -- weak Jacobi ---------------------------------------------------------------


def weak_jacobi_residual(
    pair: LieRinehartPair, p: int, q: int, args: Sequence[Multivector]
) -> Multivector:
    """Shuffle sum ``sum_{Sh(q, p-1)} e(s) {{x_s(1..q)}_q, x_s(q+1..n)}_p`` on homogeneous args.

    ``Sh(q, p-1)`` and its Koszul signs are read from the
    :func:`signed_shuffles` table.  A zero inner bracket skips the outer
    one, which is multilinear.

    Degree bound.  On homogeneous arguments an n-bracket has tensor degree
    one less than the sum of its arguments' degrees: each shuffle term is
    one binary Schouten bracket, of degree ``|x| + |y| - 1``, wedged with
    the rest.  So every term of the shuffle sum, an inner and an outer
    bracket, has degree ``sum |x_i| - 2``, and ``wedge^k L = 0`` for ``k >
    dim`` (``L`` is free of rank ``dim``).  When ``sum |x_i| - 2 > dim`` the
    residual is therefore zero, and it is returned without a bracket.

    Skipped shuffles, on trivial scalars.  By the lemma of
    :func:`_table_sum`, a shuffle whose inner block has fewer than two
    non-constant arguments has a zero inner bracket.  Otherwise two of the
    inner arguments have degree at least 1, so the inner bracket, when
    nonzero, is homogeneous of degree ``sum_S |x_k| - 1 >= 1`` and is not a
    constant; if the remaining arguments are all constants, the outer
    bracket has one non-constant argument and is zero by the same lemma.
    Neither kind of shuffle is bracketed, and with fewer than three
    non-constant arguments none is left.  The inner bracket of a remaining
    shuffle is one :func:`n_bracket` call, over ``D_pair prod_S D_k``; the
    outer bracket's table terms then lie over ``D_pair**2 D_1 ... D_n``
    whatever the shuffle, so every outer bracket adds into one
    :func:`_table_sum`, with no outer :class:`Multivector` built.  On other
    pairs a constant need not be central, and there is no n-bracket table:
    each shuffle's brackets are two :func:`n_bracket` calls.
    """
    n = len(args)
    if p + q != n + 1 or p < 2 or q < 2:
        raise ValueError(f"invalid split p={p}, q={q} for n={n}")
    degrees = []
    for a in args:
        degree = tensor_degree(a)
        if not isinstance(degree, int):
            raise ValueError("weak Jacobi arguments must be homogeneous")
        degrees.append(degree)
    if sum(degrees) - 2 > pair.dim:
        return Multivector.zero(pair)
    if not pair.is_trivial_scalars:
        residual = _IntSum()
        for order, sign in signed_shuffles((q, p - 1), degrees):
            inner = n_bracket(pair, [args[i] for i in order[:q]])
            if inner.is_zero():
                continue
            residual.add(n_bracket(pair, [inner] + [args[i] for i in order[q:]]), sign)
        return residual.value(pair)
    d = pair.bracket_denominator**2
    forms = []
    for a in args:
        if a.pair is not pair and not a.pair.compatible(pair):
            raise ValueError("multivector does not belong to the given pair")
        dk, rows = a._form
        d *= dk
        forms.append(rows)
    moving = [1 if degree else 0 for degree in degrees]
    count = sum(moving)
    if count < 3:
        return Multivector.zero(pair)
    # The outer bracket's widths: sum_S |x_k| - 1 for the inner bracket, |x_k| for the rest.
    top = sum(degrees) - 1

    def outer():
        for order, sign in signed_shuffles((q, p - 1), degrees):
            live = sum([moving[i] for i in order[:q]])
            if live < 2 or live == count:
                continue
            inner = n_bracket(pair, [args[i] for i in order[:q]])
            if not inner.is_zero():
                # The sign rides on the inner bracket, which the outer one is linear in.
                yield [(-inner if sign < 0 else inner)._form[1]] + [forms[i] for i in order[q:]]

    return _table_sum(pair, d, outer(), top)


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


def injection_family(pair: LieRinehartPair) -> _InjectionFamily:
    """The components ``i_k`` of :func:`natural_injection` into ``pair``'s exterior algebra."""
    return _InjectionFamily(pair)


def _compositions(n: int, p: int):
    """Ordered tuples of p positive integers summing to n."""
    for cuts in itertools.combinations(range(1, n), p - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(p))


def _weight(m: int) -> int:
    """``w(m) = (-1)**(m-1) (m-1)!``, the constant of the injection's component ``i_m``."""
    return parity_sign(m - 1) * math.factorial(m - 1)


@functools.cache
def _pair_table(n: int) -> tuple:
    """The structure equation's words and terms at arity ``n``.

    ``(words, left, right)``.  ``words[w] = (k, u, prefix)`` is the word
    ``units[k][u] ^ words[prefix]``, or ``units[k][u]`` alone when ``prefix``
    is ``-1``: one id per block ``b_1 < ... < b_m`` and choice of units, unit
    0 or 1 being the part of that degree and unit ``2 + t`` the twisted
    ``x^0 + (-1)**t x^1``.  ``left`` has one ``(i, j, rest)`` per pair ``i <
    j``: ``rest[2 d_i + d_j]`` is the id of the word of the other arguments
    twisted by ``t_k = d_i [k < i] + d_j [k < j]``, ``-1`` when there are
    none.  ``right`` has one ``(r, d_r, groups)`` per argument ``r`` left
    out and its degree, and ``(-1, 0, groups)``: one row per split of the
    other arguments into ``F``, holding the least, and ``S``, and choice of
    degrees on the smaller block (``S`` on a tie), 68 at n = 4.  A row
    ``(fixed, factor)`` is ``factor x_r^(d_r) ^ {W_F, W_S}``, ``fixed`` the
    smaller block's word and ``factor = -e'(d) w(|F|) w(|S|)``, ``e'``
    signed by the inversions that miss the larger block, whose word is
    twisted by the parity of the fixed degrees that the inversions of ``F S
    r`` join to each of its arguments.  The rows sharing a twisted word
    ``w`` form one group ``(w, summed_first, rows)``, ``summed_first``
    telling if ``w`` is ``W_F``.
    """
    ids: dict[tuple[int, int, int], int] = {}
    words: list[tuple[int, int, int]] = []

    def word(block: tuple[int, ...], choice) -> int:
        w = -1
        for k, u in zip(block, choice):
            spec = (k, u, w)
            w = ids.get(spec)
            if w is None:
                w = ids[spec] = len(words)
                words.append(spec)
        return w

    left = []
    for i, j in itertools.combinations(range(n), 2):
        rest = tuple(k for k in range(n) if k != i and k != j)
        twists = [[2 + (di * (k < i) + dj * (k < j)) % 2 for k in rest] for di in (0, 1) for dj in (0, 1)]
        left.append((i, j, tuple(word(rest, t) for t in twists)))
    right = []
    for r in range(-1, n):
        rest = [k for k in range(n) if k != r]
        splits = [
            ((rest[0], *chosen), tuple(k for k in rest[1:] if k not in chosen))
            for size in range(len(rest) - 1)
            for chosen in itertools.combinations(rest[1:], size)
        ]
        for dr in (0, 1) if r >= 0 else (0,):
            groups: dict[tuple[int, bool], list] = {}
            for first, second in splits:
                summed_first = len(first) >= len(second)
                large, small = (first, second) if summed_first else (second, first)
                order = first + second + ((r,) if r >= 0 else ())
                inversions = [(a, b) for at, a in enumerate(order) for b in order[at + 1 :] if a > b]
                # No inversion lies inside the larger block, so each one
                # touching it joins one of its arguments to a fixed one.
                partners = [[a + b - k for a, b in inversions if k in (a, b)] for k in large]
                missed = [(a, b) for a, b in inversions if a not in large and b not in large]
                weight = _weight(len(first)) * _weight(len(second))
                for choice in itertools.product((0, 1), repeat=len(small)):
                    d = {**dict(zip(small, choice)), r: dr}
                    twisted = word(large, [2 + sum([d[m] for m in ms]) % 2 for ms in partners])
                    odd = sum([d[a] & d[b] for a, b in missed]) % 2
                    rows = groups.setdefault((twisted, summed_first), [])
                    rows.append((word(small, choice), weight if odd else -weight))
            right.append((r, dr, tuple((w, at, tuple(rows)) for (w, at), rows in groups.items())))
    return tuple(words), tuple(left), tuple(right)


def _word(pair: LieRinehartPair, built: list, words: tuple, units: list, w: int) -> Multivector:
    """Word ``w`` of :func:`_pair_table` on the units, one wedge onto its cached prefix."""
    word = built[w]
    if word is None:
        k, u, prefix = words[w]
        word = units[k][u]
        # A zero unit makes a zero word without its prefix.
        if prefix >= 0 and word._form[1]:
            word = wedge(pair, word, _word(pair, built, words, units, prefix))
        built[w] = word
    return word


def _inert(word: Multivector, central: bool) -> bool:
    """Whether ``word`` is zero or, with ``central``, a constant."""
    rows = word._form[1]
    return not rows or central and len(rows) == 1 and not rows[0][0]


def _structure_equation_residual(source_pair, target_pair, args) -> Multivector:
    """LHS minus RHS of the natural injection's weak-morphism structure equation.

    Split each argument ``x_k = x_k^0 + x_k^1`` into its scalar part, of
    tensor degree 0, and its vector part, of degree 1.  Over those parts the
    equation reads

        sum_{i<j} sum_d e(i, j, R; d) i_{n-1}([x_i^d_i, x_j^d_j], x_R^d)
            = sum_{B_1 | ... | B_p} sum_d e(s; d) {i_|B_1|(x_B_1^d), ..., i_|B_p|(x_B_p^d)}_p.

    The left side is the ``Sh(2, n-2)`` sum, ``R`` the rest in increasing
    order, since ``A (+) g`` has only its binary bracket.  The right side
    runs over the set partitions of ``1..n`` into ``p >= 2`` increasing
    blocks ordered by least element, ``s`` their concatenation and ``e(s;
    d)`` the sign ``(-1)**sum(d_a d_b)`` of its inversions ``(a, b)``: the
    unshuffle form of Lada-Markl, whose coefficient 1 replaces the ``1/p!``
    of ordered compositions since the components and the target bracket are
    multilinear and graded symmetric in the tensor grading.

    The collapse.  ``i_m(x_B) = w(m) W_B`` with ``W_B = x_(b_m) ^ ... ^
    x_(b_1)`` and ``w(m) = (-1)**(m-1) (m-1)!``, and each term of ``{y_1,
    ..., y_p}_p`` on pure degrees is ``e(t) y_t(p) ^ ... ^ y_t(3) ^
    {y_t(1), y_t(2)}`` for one ``t`` in ``Sh(2, p-2)``.  Group the right
    side's terms by the blocks ``F`` and ``S`` that the binary bracket
    joins, ``F`` holding the smaller least element, and let ``R`` be the
    other arguments, split by the other blocks ``C_1 | ... | C_q``.  The
    block shuffle's sign times ``e(s; d)`` is the Koszul sign of ``F S c``,
    ``c = C_1 ... C_q``, so a term is ``w(|F|) w(|S|) prod w(|C_l|)`` times
    ``e(F S c; d) W_(C_q) ^ ... ^ W_(C_1) ^ {W_F, W_S}``.  The wedge there
    is ``e(c; d)`` times ``W_R`` (the exterior algebra is graded
    commutative in the tensor degree) and ``e(F S c; d) = e(F S R; d)
    e(c; d)``, so that product is ``e(F S R; d) W_R ^ {W_F, W_S}``,
    whatever the split of ``R``.  The group is therefore one term times
    ``sum prod w(|C_l|)`` over the partitions of ``R``, which by the
    exponential formula is ``|R|!`` times the coefficient of ``x**|R|`` in
    ``exp(sum_k w(k) x**k / k!) = exp(log(1 + x)) = 1 + x``: 1 when ``|R|
    <= 1`` and 0 otherwise (``w`` is the Moebius function of the partition
    lattice).  The right side is

        sum_{F, S, |R| <= 1} sum_d e(F S R; d) w(|F|) w(|S|) x_R^d ^ {W_F, W_S},

    over the splits of all arguments, or of all but one ``r``, into ``F``
    and ``S``: ``2**(n-1) - 1 + n (2**(n-2) - 1)`` splits, not ``Bell(n) -
    1`` partitions.

    Summing out one block.  Let ``L`` be the larger of ``F`` and ``S``
    (``F`` on a tie).  No inversion of ``F S r`` lies inside the increasing
    ``L``, and each one touching ``L`` joins one ``k`` in ``L`` to a fixed
    argument, of the other block or ``r``, so

        e(F S r; d) = e'(d) prod_{k in L} (-1)**(d_k t_k),

    ``e'`` counting the inversions that miss ``L`` and ``t_k`` the parity
    of the fixed degrees that inversions join to ``k``.  Neither depends on
    the degrees on ``L``, nor does the other block's word, so by
    multilinearity the ``2**|L|`` terms of those degrees sum to one with
    ``y_k = x_k^0 + (-1)**t_k x_k^1`` in place of ``x_k`` in ``L``, signed
    ``e'(d)``.  The left side is the same with ``L = R``: the inversions of
    ``(i, j, R)`` are ``(i, k)`` for ``k < i`` and ``(j, k)`` for ``k <
    j``, so ``t_k = d_i [k < i] + d_j [k < j]``, one term per pair ``i <
    j`` and choice of ``d_i``, ``d_j``.

    The inner bracket.  On parts of degree ``<= 1``, ``embed`` carries the
    bracket ``[(a, x), (b, y)] = (D_x(b) + D_y(a), [x, y])`` of ``A (+) g``
    to ``sn_sym``, ``{u, v} = e(u) [v, u]`` (signs of :mod:`.schouten`):
    ``{x, y} = -[y, x] = [x, y]`` on vectors, ``{a, y} = [y, a] = D_y(a)``
    and ``{x, b} = -[b, x] = D_x(b)`` on a scalar and a vector, ``{a, b} =
    [b, a] = 0`` on scalars.  So a left term is ``(-1)**n (n-2)! W(R) ^
    {u_i, u_j}``, ``u`` the embedded parts, ``W(R)`` the twisted rest's word
    and ``sn_sym`` the source pair's; the constructor rebuilds a bracket of
    another source pair in the target, refusing one that leaves it.

    One table per arity, :func:`_pair_table`.  Each argument is embedded
    and cleared once, over its own ``D_k``, into four int-form units: its
    scalar part, its vector part, and their sum and difference.  A word
    ``u_(b_m) ^ W(b_1, ..., b_(m-1))`` is one :func:`wedge` onto its cached
    prefix, over ``D_(b_1) ... D_(b_m)``, built once per call for both
    sides.  The rows sharing ``x_r^(d_r)`` and a twisted word add their
    fixed words first and make one :func:`n_bracket` call, and the brackets
    sharing ``x_r^(d_r)`` add up under one :func:`wedge`.  Zero words, and
    on a trivial-scalar target constant ones (by the lemma of
    :func:`_table_sum`), are skipped.  On one pair every term lies over ``D_pair D_1 ... D_n``:
    the residual is one ``int`` sum, ``exterior._IntSum``.
    """
    from .schouten import sn_sym

    n = len(args)
    if not n:
        raise ValueError("the structure equation needs at least one argument")
    words, left, right = _pair_table(n)
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
    built: list = [None] * len(words)
    bracketed = units
    if source_pair is not target_pair:
        bracketed = [[Multivector(source_pair, u.terms) for u in unit[:2]] for unit in units]
    # Two scalar parts bracket to zero; on trivial scalars (zero anchor) a scalar part always does.
    least = 2 if source_pair.is_trivial_scalars else 1
    constant = parity_sign(n) * math.factorial(max(n - 2, 0))
    for i, j, rest in left:
        for di in degrees[i]:
            for dj in degrees[j]:
                if di + dj < least:
                    continue
                term = sn_sym(source_pair, bracketed[i][di], bracketed[j][dj])
                if term.is_zero():
                    continue
                if term.pair is not target_pair:
                    term = Multivector(target_pair, term.terms)
                w = rest[2 * di + dj]
                if w >= 0:
                    term = wedge(target_pair, _word(target_pair, built, words, units, w), term)
                residual.add(term, constant)

    # A zero word brackets to zero, and so does a constant one on a
    # trivial-scalar target, by the lemma of _table_sum.
    central = target_pair.is_trivial_scalars
    for r, dr, groups in right:
        if r >= 0 and dr not in degrees[r]:
            continue
        brackets = residual if r < 0 else _IntSum()
        for w, summed_first, rows in groups:
            live = []
            for s, factor in rows:
                word = built[s] or _word(target_pair, built, words, units, s)
                if not _inert(word, central):
                    live.append((word, factor))
            if not live:
                continue
            summed = built[w] or _word(target_pair, built, words, units, w)
            if _inert(summed, central):
                continue
            fixed, factor = live[0]
            if len(live) > 1:
                total = _IntSum()
                for word, c in live:
                    total.add(word, c)
                fixed, factor = total.value(target_pair), 1
            brackets.add(n_bracket(target_pair, [summed, fixed] if summed_first else [fixed, summed]), factor)
        if r >= 0 and brackets.sums:
            residual.add(wedge(target_pair, units[r][dr], brackets.value(target_pair)))
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

    ``f`` must be ``injection_family(target.pair)``: the evaluator collapses
    the right side to pairs of blocks by the injection's weights and sums
    out one block per pair by its multilinearity and graded symmetry, so
    any other family raises ``TypeError``.  The source is ``A (+) g`` with
    only its binary bracket, so ``args`` must be :class:`GradedPairElement`
    values.  ``n`` above 5 is refused.  The sum now grows only about
    threefold per arity; the cap stays as a fixed bound on the cost of one
    call, like the CLI's ``--n <= 8``, until a cost budget replaces both.
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
