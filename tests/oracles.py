"""Independent evaluators of the Schouten-Nijenhuis bracket and the n-bracket.

Test-only oracles for :func:`schoutencalc.schouten.sn_antisym`, none of
which reads the pair's monomial-bracket table.  :func:`sn_term_pair`
expands one pair of coefficiented monomials as the double sum over slot
pairs, with each coefficient absorbed into its first slot, through the
vector bracket and the anchor.  :func:`sn_antisym_poisson` recurses through the graded Leibniz rule
``[x, y^z] = [x,y]^z + (-1)**(deg(x)(deg(y)-1)) y^[x,z]`` and graded
antisymmetry down to the vector bracket and the anchor, so it shares no
code path with the table-driven kernel; :func:`sn_antisym_shuffle` is the
symmetric shuffle form on lists of vector slots.  :func:`n_bracket_shuffle`
is the oracle for :func:`schoutencalc.linfty.n_bracket`: its defining
shuffle sum, with no signed-shuffle table and no skipped shuffle.  Unlike
the ``sn_antisym`` oracles it deliberately reuses the kernel ``sn_antisym``
(and so the table) for its binary brackets; it is independent only of
:func:`schoutencalc.graded.signed_shuffles` and of the n-bracket's skips.
:func:`weak_jacobi_shuffle` nests it into the weak-Jacobi shuffle sum of
:func:`schoutencalc.linfty.weak_jacobi_residual`, with no degree bound.
:func:`n_bracket_hom_parts` is the oracle for the n-bracket's per-pair table
on trivial-scalar pairs: it expands each argument into its homogeneous parts
and sums the kernel's shuffle sum on every choice of parts, reading no
``n_brackets`` entry and no sort sign.  :func:`structure_equation_by_parts`
is the oracle for the natural injection's structure equation
(:func:`schoutencalc.linfty.injection_morphism_residual`): one term per
choice of homogeneous part of every argument and per set partition, with no
block summed out and no twisted argument; :func:`source_parts` splits an
argument into those parts, and :func:`associated_bracket`, the bracket of
``A (+) g`` through the vector bracket and the anchor, brackets them.
:func:`structure_equation_twisted` is the library's evaluator before its
per-arity pattern table: the same largest block summed out with twisted
arguments, but each term's twisted choices, word keys and sign computed
afresh from the outside degrees.  :func:`merge_by_swaps` is the oracle for
the memoized :func:`schoutencalc.exterior._merge_monomials`: the
concatenation bubble-sorted, one sign flip per adjacent swap.
:func:`decalage_relation` checks the dictionary between the two Schouten
brackets, ``{x, y} = e(x) [y, x]``, with both graded symmetries.
:func:`wedge_by_scalars` is the oracle for
:func:`schoutencalc.exterior.wedge`: the term-pair product in ``Scalar``
arithmetic, wrapped by the public constructor.  :func:`sn_term_pair`,
:func:`sn_antisym_poisson` and :func:`sn_antisym_shuffle` wedge through it,
so none of them runs the library's cleared-denominator kernels.
:func:`_accumulate` adds multivectors in ``Scalar`` arithmetic: it is the
reference sum of :func:`structure_equation_by_parts` and of the int-form
tests.
"""

from __future__ import annotations

import itertools
import math

from schoutencalc.exterior import INHOMOGENEOUS, Multivector, _IntSum, _merge_monomials, _of_form, embed
from schoutencalc.exterior import tensor_degree, wedge
from schoutencalc.graded import koszul_sign, parity_sign, partition_table, shuffles, signed_shuffles
from schoutencalc.linfty import _n_bracket_hom, n_bracket, natural_injection
from schoutencalc.pairs import GradedPairElement, LieRinehartPair, Vector, anchor, bracket_vectors
from schoutencalc.report import BracketReport
from schoutencalc.scalars import Scalar
from schoutencalc.schouten import sn_antisym, sn_sym


def _accumulate(terms: dict[tuple[int, ...], Scalar], x: Multivector, sign: int) -> None:
    """Add ``sign * x``, ``sign`` being 1 or -1, into ``terms`` in place.

    ``terms`` must be a normal-form map that the caller built itself, never
    the ``.terms`` of a value: only its entries are replaced, and the
    coefficients it held are left as they were.  Zero sums are dropped.
    """
    for mono, coeff in x.terms.items():
        prev = terms.get(mono)
        if prev is None:
            terms[mono] = coeff if sign > 0 else -coeff
            continue
        total = prev + coeff if sign > 0 else prev - coeff
        if total.is_zero():
            del terms[mono]
        else:
            terms[mono] = total


def wedge_by_scalars(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """The exterior product summed term pair by term pair in ``Scalar`` arithmetic."""
    x._check(y)
    out: dict[tuple[int, ...], Scalar] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            merged = _merge_monomials(mx, my)
            if merged is None:
                continue
            sign, mono = merged
            coeff = cx * cy if sign > 0 else -(cx * cy)
            if mono in out:
                total = out[mono] + coeff
                if total.is_zero():
                    del out[mono]
                else:
                    out[mono] = total
            else:
                out[mono] = coeff
    return Multivector(pair, out)


def _absorbed_slots(pair: LieRinehartPair, mono: tuple[int, ...], coeff: Scalar) -> list[Vector]:
    """Slot vectors of a coefficiented monomial, coefficient in slot one."""
    slots = [Vector({mono[0]: coeff})]
    slots.extend(Vector({g: pair.scalar_one()}) for g in mono[1:])
    return slots


def _wedge_vectors(pair: LieRinehartPair, head: Multivector, slots: list[Vector]) -> Multivector:
    out = head
    for v in slots:
        out = wedge_by_scalars(pair, out, Multivector.from_vector(pair, v))
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


def sn_term_pair(
    pair: LieRinehartPair,
    mx: tuple[int, ...],
    a: Scalar,
    my: tuple[int, ...],
    b: Scalar,
) -> Multivector:
    """``[a e_mx, b e_my]`` by the double sum over slot pairs."""
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
        left = wedge_by_scalars(pair, left, Multivector.monomial(pair, (last,)))
        right = _poisson_pair(pair, mx, a, (last,), pair.scalar_one())
        right = wedge_by_scalars(pair, Multivector.monomial(pair, head_mono, b), right)
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


def n_bracket_shuffle(pair: LieRinehartPair, args: list[Multivector]) -> Multivector:
    """The n-bracket summed from its definition, multilinearly in each argument.

    ``sum_{Sh(2, n-2)} e(s) e(x_{s(1)}) x_{s(n)} ^ ... ^ x_{s(3)} ^
    [x_{s(2)}, x_{s(1)}]`` on every choice of homogeneous components, each
    term built in full (zero inner brackets and degree-0 slots included)
    from :func:`shuffles`, :func:`koszul_sign`, ``sn_antisym`` and
    :func:`wedge`; arity one is zero.
    """
    n = len(args)
    out = Multivector.zero(pair)
    if n < 2:
        return out
    parts = (2, n - 2) if n > 2 else (2,)
    for combo in itertools.product(*(x.homogeneous_components().items() for x in args)):
        degrees = [degree for degree, _ in combo]
        xs = [component for _, component in combo]
        for s in shuffles(parts):
            left = Multivector.from_scalar(pair, pair.scalar_one())
            for k in range(n, 2, -1):
                left = wedge(pair, left, xs[s(k) - 1])
            term = wedge(pair, left, sn_antisym(pair, xs[s(2) - 1], xs[s(1) - 1]))
            sign = koszul_sign(s, degrees) * parity_sign(degrees[s(1) - 1])
            out = out + term.scaled(sign)
    return out


def weak_jacobi_shuffle(pair: LieRinehartPair, p: int, q: int, args: list[Multivector]) -> Multivector:
    """``sum_{Sh(q, p-1)} e(s) {{x_s(1..q)}_q, x_s(q+1..n)}_p`` from :func:`n_bracket_shuffle`.

    Every shuffle's term is built, with no degree bound and no skip of a
    zero inner bracket; the arguments must be homogeneous.
    """
    degrees = [tensor_degree(x) for x in args]
    out = Multivector.zero(pair)
    for s in shuffles((q, p - 1)):
        xs = [args[s(k) - 1] for k in range(1, len(args) + 1)]
        inner = n_bracket_shuffle(pair, xs[:q])
        out = out + n_bracket_shuffle(pair, [inner] + xs[q:]).scaled(koszul_sign(s, degrees))
    return out


def n_bracket_hom_parts(pair: LieRinehartPair, args: list[Multivector]) -> Multivector:
    """The n-bracket summed over every choice of homogeneous parts of ``args``.

    Each choice is one shuffle sum of ``_n_bracket_hom`` on whole
    homogeneous parts, coefficients included, so no monomial-tuple table is
    read; arity one is zero.
    """
    out = Multivector.zero(pair)
    if len(args) < 2:
        return out
    for combo in itertools.product(*(x.homogeneous_components().items() for x in args)):
        out = out + _n_bracket_hom(pair, [part for _, part in combo], [d for d, _ in combo])
    return out


def source_parts(pair: LieRinehartPair, x: GradedPairElement) -> list[tuple[GradedPairElement, int]]:
    """``x``'s nonzero degree-0 scalar and degree-1 vector parts with their degrees."""
    out: list[tuple[GradedPairElement, int]] = []
    if not x.scalar.is_zero():
        out.append((GradedPairElement(x.scalar, Vector.zero()), 0))
    if not x.vector.is_zero():
        out.append((GradedPairElement(pair.scalar_zero(), x.vector), 1))
    return out


def associated_bracket(
    pair: LieRinehartPair, u: GradedPairElement, v: GradedPairElement
) -> GradedPairElement:
    """Graded bracket on ``A (+) g``: ``((a,x),(b,y)) -> (D_x(b) + D_y(a), [x,y])``."""
    scalar = anchor(pair, u.vector, v.scalar) + anchor(pair, v.vector, u.scalar)
    return GradedPairElement(scalar, bracket_vectors(pair, u.vector, v.vector))


def structure_equation_by_parts(
    source_pair: LieRinehartPair, target_pair: LieRinehartPair, args: list[GradedPairElement]
) -> Multivector:
    """LHS minus RHS of the natural injection's structure equation, one term at a time.

    Left side: ``sum_{Sh(2,n-2)} e(s) i_{n-1}([x_s(1), x_s(2)], x_s(3), ...)``
    from the :func:`signed_shuffles` table, terms whose bracket is zero
    skipped.  Right side: ``sum_{B_1 | ... | B_p} e(s) {i_|B_1|(x_B_1), ...,
    i_|B_p|(x_B_p)}_p`` over the :func:`partition_table` rows.  The
    arguments are expanded into their homogeneous parts and each choice of
    parts is one term of that expansion; each source bracket is computed once
    per pair of positions and degrees, and each block image once per block and
    degrees of its arguments.
    """
    n = len(args)
    brackets: dict = {}
    images: dict = {}
    residual: dict = {}
    for combo in itertools.product(*(source_parts(source_pair, a) for a in args)):
        elems = [c[0] for c in combo]
        degrees = [c[1] for c in combo]
        if n > 1:
            for order, sign in signed_shuffles((2,) if n == 2 else (2, n - 2), degrees):
                i, j = order[0], order[1]
                key = (i, degrees[i], j, degrees[j])
                inner = brackets.get(key)
                if inner is None:
                    inner = brackets[key] = associated_bracket(source_pair, elems[i], elems[j])
                if inner.is_zero():
                    continue
                rest = [elems[k] for k in order[2:]]
                _accumulate(residual, natural_injection(target_pair, [inner] + rest), sign)
        for blocks, inversions in partition_table(n):
            block_images = []
            for block in blocks:
                key = (block, tuple([degrees[i] for i in block]))
                image = images.get(key)
                if image is None:
                    image = images[key] = natural_injection(target_pair, [elems[i] for i in block])
                if image.is_zero():
                    break
                block_images.append(image)
            else:
                odd = sum(degrees[a] * degrees[b] for a, b in inversions) % 2
                _accumulate(residual, n_bracket(target_pair, block_images), 1 if odd else -1)
    return Multivector(target_pair, residual)


def twist_table(n: int) -> list[tuple]:
    """The rows of ``partition_table(n)`` with their first largest block ``B*`` summed out.

    One ``(blocks, star, outside, partners, inversions, factor)`` row per
    partition: ``blocks[star]`` is ``B*``, ``outside`` the arguments not in
    it, ``partners[r]`` the outside arguments that an inversion joins to
    ``B*``'s ``r``-th argument, ``inversions`` those that touch no argument
    of ``B*``, and ``factor`` the product of ``(-1)**(|B|-1) (|B|-1)!`` over
    the blocks.
    """
    rows = []
    for blocks, inversions in partition_table(n):
        star = max(range(len(blocks)), key=lambda b: len(blocks[b]))
        inside = blocks[star]
        outside = tuple(k for k in range(n) if k not in inside)
        # No inversion lies inside B*, so a + b - k is k's outside partner.
        partners = [tuple(sorted(a + b - k for a, b in inversions if k in (a, b))) for k in inside]
        rest = tuple(ab for ab in inversions if ab[0] not in inside and ab[1] not in inside)
        factor = math.prod([parity_sign(len(b) - 1) * math.factorial(len(b) - 1) for b in blocks])
        rows.append((blocks, star, outside, partners, rest, factor))
    return rows


def _twisted_word(pair: LieRinehartPair, words: dict, units: list, block: tuple[int, ...], choice: tuple[int, ...]):
    """``x_{b_m} ^ ... ^ x_{b_1}`` on the chosen units, one wedge onto the cached shorter word."""
    key = (block, choice)
    word = words.get(key)
    if word is None:
        head = units[block[-1]][choice[-1]]
        word = words[key] = (
            head if len(block) == 1 else wedge(pair, head, _twisted_word(pair, words, units, block[:-1], choice[:-1]))
        )
    return word


def structure_equation_twisted(
    source_pair: LieRinehartPair, target_pair: LieRinehartPair, args: list[GradedPairElement]
) -> Multivector:
    """LHS minus RHS of the natural injection's structure equation, ``B*`` summed out per term.

    The proof of the twist is in
    ``schoutencalc.linfty._structure_equation_residual``.  Here every
    partition of :func:`twist_table` enumerates the available degrees of its
    outside arguments and builds, for each choice, the twisted units of
    ``B*`` (unit ``2 + t_k``, ``t_k`` the parity of the partners' degrees),
    the word keys of the other blocks and the sign of the inversions that
    miss ``B*``; the left side twists the rest of each pair ``i < j`` the
    same way.  Words are cached per call by ``(block, choice)``.  Unlike the
    library, it brackets every pair of nonzero parts and every partition of
    nonzero words, including those zero by degree or by central constants.
    """
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
    constant = parity_sign(n) * math.factorial(max(n - 2, 0))
    for i, j in itertools.combinations(range(n), 2):
        rest = tuple(k for k in range(n) if k != i and k != j)
        for di in degrees[i]:
            for dj in degrees[j]:
                term = sn_sym(source_pair, bracketed[i][di], bracketed[j][dj])
                if term.is_zero():
                    continue
                if term.pair is not target_pair:
                    term = Multivector(target_pair, term.terms)
                if rest:
                    choice = tuple([2 + (di * (k < i) + dj * (k < j)) % 2 for k in rest])
                    term = wedge(target_pair, _twisted_word(target_pair, words, units, rest, choice), term)
                residual.add(term, constant)
    d = [0] * n
    for blocks, star, outside, partners, inversions, factor in twist_table(n):
        for choice in itertools.product(*[degrees[m] for m in outside]):
            for m, dm in zip(outside, choice):
                d[m] = dm
            block_words = []
            for b, block in enumerate(blocks):
                if b == star:
                    chosen = tuple([2 + sum([d[m] for m in p]) % 2 for p in partners])
                else:
                    chosen = tuple([d[k] for k in block])
                word = _twisted_word(target_pair, words, units, block, chosen)
                if word.is_zero():
                    break
                block_words.append(word)
            else:
                odd = sum([d[a] & d[b] for a, b in inversions]) % 2
                residual.add(n_bracket(target_pair, block_words), factor if odd else -factor)
    return residual.value(target_pair)


def merge_by_swaps(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """``(sign, merged)`` of ``e_left ^ e_right`` by bubble sort, or None on a repeated index."""
    word = list(left + right)
    if len(set(word)) < len(word):
        return None
    sign = 1
    for top in range(len(word) - 1, 0, -1):
        for k in range(top):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                sign = -sign
    return sign, tuple(word)


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
