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
wedged under the cached word of the rest, as on the right side.  What
depends on the arity alone (each term's words, twists and sign, per pattern
of part degrees) is read from one table per arity.

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


def n_bracket(pair: LieRinehartPair, args: Sequence[Multivector]) -> Multivector:
    """The arity-``len(args)`` bracket, extended multilinearly to mixed degrees.

    One pass over ``args`` refuses an argument of another pair, reads each
    int form ``(D_k, rows)``, multiplies the ``D_k`` and notes each
    argument's longest row.  On trivial scalars the result is ``sum
    +-c_1...c_p n_brackets[sorted (m_1..m_p)]`` over one term ``c_k
    e_(m_k)`` per argument (sign: see :class:`LieRinehartPair`), with ``c_k
    = n_k / D_k``: the ``int`` sums lie over ``D_pair D_1 ... D_p``.  The
    sorted tuple and the sort's Koszul sign of each ordered tuple of
    monomials are computed once per pair and kept in its
    ``n_bracket_sorts``; inversions are counted only among two or more
    odd-length monomials.

    Zero without a sum.  On trivial scalars a constant is central (the
    anchor is zero), so when fewer than two arguments have a non-constant
    row every inner bracket of the shuffle sum meets a constant; a zero
    argument has no row.  A combination of total length above ``dim + 1``
    brackets to degree above ``dim``, which is zero; only when the longest
    rows sum past ``dim + 1`` are the combinations enumerated by length,
    skipping those (:func:`_fitting_combinations`), so the table never
    holds such an entry.  Other pairs sum :func:`_n_bracket_hom` over the
    homogeneous parts.
    """
    if not args:
        raise ValueError("n_bracket needs at least one argument")
    d = pair.bracket_denominator
    forms = []
    live = top = 0
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
        if width:
            live += 1
        top += width
    if not pair.is_trivial_scalars:
        out = _IntSum()
        if len(forms) > 1:
            for combo in itertools.product(*(a.homogeneous_components().items() for a in args)):
                out.add(_n_bracket_hom(pair, [c[1] for c in combo], [c[0] for c in combo]))
        return out.value(pair)
    if live < 2:
        return Multivector.zero(pair)
    budget = pair.dim + 1
    combos = _fitting_combinations(forms, budget) if top > budget else itertools.product(*forms)
    table = pair.n_brackets
    sorts = pair.n_bracket_sorts
    sums: dict = {}
    for combo in combos:
        monos = tuple([mono for mono, _ in combo])
        sort = sorts.get(monos)
        if sort is None:
            odd = [mono for mono in monos if len(mono) & 1]
            swaps = sum([a > b for i, a in enumerate(odd) for b in odd[i + 1 :]]) if len(odd) > 1 else 0
            sort = sorts[monos] = (tuple(sorted(monos)), -1 if swaps & 1 else 1)
        key, c = sort
        entry = table.get(key)
        if entry is None:
            units = [_of_form(pair, (1, [(m, [((), 1)])])) for m in key]
            # Each term holds one sn_antisym result over D_pair, so the sum lies over D_pair.
            value = _n_bracket_hom(pair, units, [len(m) for m in key])._form[1]
            entry = table[key] = tuple((m, r[0][1]) for m, r in value)
        if not entry:
            continue
        for _, row in combo:
            c *= row[0][1]
        for mono, q in entry:
            sums[mono] = sums.get(mono, 0) + q * c
    if not sums:
        return Multivector.zero(pair)
    rows = [(mono, [((), c)]) for mono, c in sums.items() if c]
    return _of_form(pair, (d, rows)) if rows else Multivector.zero(pair)


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
    """
    n = len(args)
    if p + q != n + 1 or p < 2 or q < 2:
        raise ValueError(f"invalid split p={p}, q={q} for n={n}")
    degrees = []
    for a in args:
        d = tensor_degree(a)
        if not isinstance(d, int):
            raise ValueError("weak Jacobi arguments must be homogeneous")
        degrees.append(d)
    if sum(degrees) - 2 > pair.dim:
        return Multivector.zero(pair)
    residual = _IntSum()
    for order, sign in signed_shuffles((q, p - 1), degrees):
        inner = n_bracket(pair, [args[i] for i in order[:q]])
        if inner.is_zero():
            continue
        residual.add(n_bracket(pair, [inner] + [args[i] for i in order[q:]]), sign)
    return residual.value(pair)


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
_PATTERN_TABLES: dict[int, tuple] = {}


def _pattern_table(n: int) -> tuple:
    """The structure equation's words and terms at arity ``n``, for every pattern of part degrees.

    ``(words, left, right)``.  ``words[w] = (k, u, prefix)`` is the word
    ``units[k][u] ^ words[prefix]``, or ``units[k][u]`` alone when ``prefix``
    is ``-1``: one id per block ``b_1 < ... < b_m`` and choice of units, unit
    0 or 1 being the part of that degree and unit ``2 + t`` the twisted
    ``x^0 + (-1)**t x^1``.  ``left`` has one ``(i, j, rest)`` per pair ``i <
    j``: ``rest[2 d_i + d_j]`` is the id of the word of the other arguments
    twisted by ``t_k = d_i [k < i] + d_j [k < j]``, ``-1`` when there are
    none.  ``right`` has one ``(need, ids, factor)`` per row of
    ``partition_table(n)`` and pattern of degrees ``d`` on the arguments
    outside its first largest block ``B*``, in the order of
    ``itertools.product``: ``need`` has bit ``2m + d_m`` set for each outside
    ``m``, ``ids`` are the blocks' words (parts of those degrees, and on
    ``B*`` each ``k`` twisted by the parity of the outside degrees that the
    partition's inversions join to ``k``), and ``factor`` is the term's
    coefficient in LHS minus RHS, ``-e'(d) prod (-1)**(|B|-1) (|B|-1)!``,
    ``e'`` signed by the inversions that touch no argument of ``B*``.

    The patterns of one partition are walked depth first, one outside
    argument at a time in increasing order, so each step extends one
    block's word by one unit and updates the twists and the sign by bit
    masks.  Equal ``need`` and ``factor`` values are shared between rows.
    """
    table = _PATTERN_TABLES.get(n)
    if table is None:
        ids: dict[tuple[int, int, int], int] = {}
        words: list[tuple[int, int, int]] = []

        def extend(prefix: int, k: int, u: int) -> int:
            spec = (k, u, prefix)
            w = ids.get(spec)
            if w is None:
                w = ids[spec] = len(words)
                words.append(spec)
            return w

        def word(block: tuple[int, ...], choice) -> int:
            w = -1
            for k, u in zip(block, choice):
                w = extend(w, k, u)
            return w

        left = []
        for i, j in itertools.combinations(range(n), 2):
            rest = tuple(k for k in range(n) if k != i and k != j)
            twisted = [
                word(rest, [2 + (di * (k < i) + dj * (k < j)) % 2 for k in rest]) if rest else -1
                for di in (0, 1)
                for dj in (0, 1)
            ]
            left.append((i, j, tuple(twisted)))
        right: list = []
        shared: dict[int, int] = {}
        for blocks, inversions in partition_table(n):
            star = max(range(len(blocks)), key=lambda b: len(blocks[b]))
            inside = blocks[star]
            outside = [k for k in range(n) if k not in inside]
            block_of = {k: b for b, block in enumerate(blocks) for k in block}
            constant = math.prod([parity_sign(len(b) - 1) * math.factorial(len(b) - 1) for b in blocks])
            # No inversion lies inside B*.  Bit r of twists[m] marks that an
            # inversion joins m to B*'s r-th argument; bit k of joined[m] that
            # one joins m to the outside argument k.
            twists = [0] * n
            joined = [0] * n
            for a, b in inversions:
                if a in inside or b in inside:
                    k, m = (a, b) if a in inside else (b, a)
                    twists[m] |= 1 << inside.index(k)
                else:
                    joined[a] |= 1 << b
                    joined[b] |= 1 << a
            starred: dict[int, int] = {}
            state = [-1] * len(blocks)

            def walk(pos: int, need: int, ones: int, odd: int, t: int) -> None:
                if pos == len(outside):
                    w = starred.get(t)
                    if w is None:
                        w = starred[t] = word(inside, [2 + (t >> r & 1) for r in range(len(inside))])
                    state[star] = w
                    factor = constant if odd else -constant
                    right.append((shared.setdefault(need, need), tuple(state), shared.setdefault(factor, factor)))
                    return
                m = outside[pos]
                b = block_of[m]
                prefix = state[b]
                state[b] = extend(prefix, m, 0)
                walk(pos + 1, need | 1 << 2 * m, ones, odd, t)
                state[b] = extend(prefix, m, 1)
                odd ^= (ones & joined[m]).bit_count() & 1
                walk(pos + 1, need | 2 << 2 * m, ones | 1 << m, odd, t ^ twists[m])
                state[b] = prefix

            walk(0, 0, 0, 0, 0)
        table = _PATTERN_TABLES[n] = (tuple(words), tuple(left), tuple(right))
    return table


def _word(pair: LieRinehartPair, built: list, words: tuple, units: list, w: int) -> Multivector:
    """Word ``w`` of :func:`_pattern_table` on the units, one wedge onto its cached prefix."""
    word = built[w]
    if word is None:
        k, u, prefix = words[w]
        word = units[k][u]
        if prefix >= 0:
            word = wedge(pair, word, _word(pair, built, words, units, prefix))
        built[w] = word
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
    term per pair ``i < j`` and choice of ``d_i``, ``d_j``.

    The inner bracket.  On parts of degree ``<= 1``, ``embed`` carries the
    bracket ``[(a, x), (b, y)] = (D_x(b) + D_y(a), [x, y])`` of ``A (+) g``
    to ``sn_sym``, ``{u, v} = e(u) [v, u]`` (signs of :mod:`.schouten`):
    ``{x, y} = -[y, x] = [x, y]`` on vectors, ``{a, y} = [y, a] = D_y(a)``
    and ``{x, b} = -[b, x] = D_x(b)`` on a scalar and a vector, ``{a, b} =
    [b, a] = 0`` on scalars.  So a left term is ``(-1)**n (n-2)! W(R) ^
    {u_i, u_j}``, ``u`` the embedded parts, ``W(R)`` the twisted rest's word
    and ``sn_sym`` the source pair's; the constructor rebuilds a bracket of
    another source pair in the target, refusing one that leaves it.

    One table per arity.  Everything above that depends on ``n`` alone,
    ``B*``, the twists, the signs ``e'(d)``, the constants ``(-1)**(m-1)
    (m-1)!`` of the images ``i_m`` and the words each term takes, is read
    from :func:`_pattern_table`, one row per partition and pattern of
    outside degrees; a row whose pattern asks for a zero part is skipped.
    Each argument is embedded and cleared once, over its own ``D_k``, into
    four int-form units: its scalar part, its vector part, and their sum and
    difference.  A word ``u_(b_m) ^ W(b_1, ..., b_(m-1))`` is one
    :func:`wedge` onto its cached prefix, over ``D_(b_1) ... D_(b_m)``,
    built once per call for both sides, so :func:`n_bracket` takes the words.
    A row is skipped at a zero word (the bracket is multilinear) and, on a
    trivial-scalar target, when fewer than two of its words are
    non-constant, counted as the words are built: a constant is central
    there, so every inner bracket meets one and the n-bracket is zero
    without a call.  On one pair every term lies over ``D_pair D_1 ...
    D_n``; the residual is one ``int`` sum, ``exterior._IntSum``.
    """
    from .schouten import sn_sym

    n = len(args)
    words, left, right = _pattern_table(n)
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
    # Bit 2k + d is set when argument k has no part of degree d.
    missing = sum([1 << 2 * k + d for k, parts in enumerate(degrees) for d in (0, 1) if d not in parts])
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

    # Fewer than two non-constant words make a zero bracket when constants are central.
    needed = 2 if target_pair.is_trivial_scalars else 0
    for need, ids, factor in right:
        if need & missing:
            continue
        block_words = []
        live = 0
        for w in ids:
            word = built[w]
            if word is None:
                word = _word(target_pair, built, words, units, w)
            rows = word._form[1]
            if not rows:
                break
            if len(rows) > 1 or rows[0][0]:
                live += 1
            block_words.append(word)
        else:
            if live >= needed:
                residual.add(n_bracket(target_pair, block_words), factor)
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
