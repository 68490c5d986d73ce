"""The exterior algebra of a pair: canonical multivectors and the wedge.

Multivectors are stored in normal form: a map from strictly increasing
generator-index tuples to nonzero coefficients, with the empty tuple holding
the scalar component.  Coefficients absorb into the map, so rewriting
``a (x ^ y)`` as ``(a x) ^ y`` or ``x ^ (a y)`` lands on the same value and
equality is plain map comparison.

The public constructor and classmethods validate their input;
``Multivector.zero`` has none and wraps an empty map, and :func:`embed`
makes the constructor's checks itself.  Arithmetic results on ``Scalar``
maps (sums, negation, scaling) are built by ``Multivector._trusted``, which
wraps a map that is already in normal form without checking it.  A sum of
``Scalar``-map multivectors adds into a fresh map through ``_accumulate``.

A value may also hold its int form ``(D, [(mono, [(exps, n)])])``, that is
``x = sum n/D x^exps e_mono`` with ``D`` a positive common denominator (not
necessarily the lcm) and nonzero ``int`` numerators ``n``; ``_cleared``
computes it on first use and keeps it.  The bilinear kernels (:func:`wedge`,
``schouten.sn_antisym``) sum ``int`` products of their arguments' int forms,
and their results (``_IntForm``) hold only the int form: ``terms``, the
``Fraction`` view, is filled on its first read and then fixed.  ``is_zero``,
``+``, ``-``, negation and ``scaled`` by a rational work on the int form
when an operand holds one; sums add ``int`` numerators through ``_IntSum``.
``homogeneous_components`` splits the int form.  Values are immutable:
mutate neither ``terms`` nor the form.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import lcm
from operator import add

from .errors import DegreeUndefinedError, MorphismValidationError
from .pairs import GradedPairElement, LieRinehartPair, PairMorphism, Vector
from .scalars import Scalar

__all__ = [
    "INHOMOGENEOUS",
    "Multivector",
    "antisym_degree",
    "associated_exterior_morphism",
    "embed",
    "tensor_degree",
    "wedge",
]

INHOMOGENEOUS = "inhomogeneous"


def _merge_monomials(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sort the concatenation; returns (sign, merged) or None on a repeat."""
    if not set(left).isdisjoint(right):
        return None
    inversions = sum([a > b for a in left for b in right])
    return (-1 if inversions % 2 else 1), tuple(sorted(left + right))


def _cleared(x: Multivector) -> tuple[int, list]:
    """``x``'s int form ``(D, [(mono, [(exps, n)])])``: nonzero ``int`` numerators over a positive common
    denominator ``D``, not necessarily the lcm.  Computed on first use, with ``D`` the lcm, and kept."""
    form = x._form
    if form is None:
        d = lcm(*(c.denominator for coeff in x.terms.values() for c in coeff.terms.values()))
        form = x._form = d, [
            (mono, [(e, c.numerator * (d // c.denominator)) for e, c in coeff.terms.items()])
            for mono, coeff in x.terms.items()
        ]
    return form


def _from_cleared(pair: LieRinehartPair, sums: dict, denominator: int) -> Multivector:
    """The multivector ``sum sums[mono, exps]/denominator x^exps e_mono``, zero sums dropped.

    It holds only the int form when every sum is an ``int``; a fractional
    sum (a fractional table entry) gives the ``Scalar`` map, as ``terms``.
    """
    rows: dict[tuple[int, ...], list] = {}
    for (mono, e), c in sums.items():
        if c:
            rows.setdefault(mono, []).append((e, c))
    if {int}.issuperset(map(type, sums.values())):
        return _of_form(pair, (denominator, list(rows.items())))
    return Multivector._trusted(
        pair, {m: Scalar._trusted(pair.nvars, {e: Fraction(c, denominator) for e, c in row}) for m, row in rows.items()}
    )


class _IntSum:
    """A running sum ``sums[mono, exps] / d`` of int forms; a term over another ``D`` first
    rescales it to ``lcm(d, D)``, and zero sums are kept until :meth:`value` drops them."""

    __slots__ = ("d", "sums")

    def __init__(self):
        self.d = 1
        self.sums: dict = {}

    def add(self, x: Multivector, factor: int = 1) -> None:
        """Add ``factor * x``, ``factor`` an ``int``."""
        if x.is_zero():
            return
        dx, rows = _cleared(x)
        d, sums = self.d, self.sums
        if dx != d:
            m = lcm(d, dx)
            if m != d:
                for key in sums:
                    sums[key] *= m // d
                self.d = m
            factor *= m // dx
        for mono, row in rows:
            for e, n in row:
                key = (mono, e)
                sums[key] = sums.get(key, 0) + n * factor

    def value(self, pair: LieRinehartPair, denominator: int = 1) -> Multivector:
        """The sum divided by ``denominator``, as a value holding only its int form."""
        return _from_cleared(pair, self.sums, self.d * denominator)


def _check_args(pair: LieRinehartPair, x: Multivector, y: Multivector) -> None:
    x._check(y)
    if x.pair is not pair and not x.pair.compatible(pair):
        raise ValueError("multivector does not belong to the given pair")


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


class Multivector:
    """An element of the exterior algebra over a fixed pair."""

    __slots__ = ("pair", "terms", "_form")

    def __init__(
        self,
        pair: LieRinehartPair,
        terms: Mapping[tuple[int, ...], Scalar] | None = None,
    ):
        self.pair = pair
        clean: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                key = tuple(int(i) for i in mono)
                if any(not 1 <= i <= pair.dim for i in key):
                    raise ValueError(f"monomial {key!r} has indices outside 1..{pair.dim}")
                if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                    raise ValueError(f"monomial {key!r} is not strictly increasing")
                if coeff.nvars != pair.nvars:
                    raise ValueError("coefficient does not belong to this pair")
                if not coeff.is_zero():
                    clean[key] = coeff
        self.terms = clean
        self._form = None

    @classmethod
    def _trusted(cls, pair: LieRinehartPair, terms: dict[tuple[int, ...], Scalar]) -> Multivector:
        """Wrap ``terms`` unchecked; it must already be in normal form."""
        out = object.__new__(cls)
        out.pair = pair
        out.terms = terms
        out._form = None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, pair: LieRinehartPair) -> Multivector:
        return cls._trusted(pair, {})

    @classmethod
    def unit(cls, pair: LieRinehartPair) -> Multivector:
        return cls(pair, {(): pair.scalar_one()})

    @classmethod
    def from_scalar(cls, pair: LieRinehartPair, a: Scalar) -> Multivector:
        return cls(pair, {(): a})

    @classmethod
    def from_vector(cls, pair: LieRinehartPair, x: Vector) -> Multivector:
        return cls(pair, {(gen,): coeff for gen, coeff in x.terms.items()})

    @classmethod
    def monomial(
        cls,
        pair: LieRinehartPair,
        indices: Sequence[int],
        coeff: Scalar | Fraction | int = 1,
    ) -> Multivector:
        if not isinstance(coeff, Scalar):
            coeff = pair.scalar_const(coeff)
        return cls(pair, {tuple(indices): coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        """Read from the int form when the value holds one, else from ``terms``."""
        if self._form is not None:
            return not self._form[1]
        return not self.terms

    def scalar_part(self) -> Scalar:
        return self.terms.get((), self.pair.scalar_zero())

    def vector_part(self) -> Vector:
        return Vector({mono[0]: c for mono, c in self.terms.items() if len(mono) == 1})

    def homogeneous_components(self) -> dict[int, Multivector]:
        """Split the int form by tensor degree; zero contributes no components."""
        d, rows = _cleared(self)
        buckets: dict[int, list] = {}
        for row in rows:
            buckets.setdefault(len(row[0]), []).append(row)
        return {deg: _of_form(self.pair, (d, part)) for deg, part in sorted(buckets.items())}

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: Multivector) -> None:
        if self.pair is not other.pair and not self.pair.compatible(other.pair):
            raise ValueError("multivectors belong to different pairs")

    def __add__(self, other: Multivector, sign: int = 1) -> Multivector:
        self._check(other)
        if self._form is not None or other._form is not None:
            out = _IntSum()
            out.add(self)
            out.add(other, sign)
            return out.value(self.pair)
        out = dict(self.terms)
        _accumulate(out, other, sign)
        return Multivector._trusted(self.pair, out)

    def __neg__(self) -> Multivector:
        if self._form is not None:
            d, rows = self._form
            return _of_form(self.pair, (d, [(m, [(e, -n) for e, n in row]) for m, row in rows]))
        return Multivector._trusted(self.pair, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Multivector) -> Multivector:
        return self.__add__(other, -1)

    def scaled(self, factor: Scalar | Fraction | int) -> Multivector:
        """``factor * self``; a rational factor on an int-form value scales its numerators and ``D``."""
        # A unit factor needs no coefficient products.
        if factor == 1:
            return self
        if factor == -1:
            return -self
        if self._form is not None and isinstance(factor, (int, Fraction)):
            if not factor:
                return Multivector.zero(self.pair)
            d, rows = self._form
            p = factor.numerator
            return _of_form(
                self.pair, (d * factor.denominator, [(m, [(e, n * p) for e, n in row]) for m, row in rows])
            )
        # Scaling never merges monomials, so dropping zero products (all of
        # them when the factor is zero) keeps the normal form.
        return Multivector._trusted(
            self.pair, {m: p for m, c in self.terms.items() if (p := c * factor).terms}
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Multivector)
            and self.pair.compatible(other.pair)
            and self.terms == other.terms
        )

    __hash__ = None

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self.sorted_terms():
            if not mono:
                # Scalar component comes first; it carries its own signs.
                chunks.append(str(coeff))
                continue
            sign, body = coeff.signed_render()
            monostr = "^".join(self.pair.generator_name(i) for i in mono)
            piece = monostr if body == "1" else f"{body}*{monostr}"
            if not chunks:
                chunks.append(f"-{piece}" if sign < 0 else piece)
            else:
                chunks.append(f" - {piece}" if sign < 0 else f" + {piece}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Multivector({self})"


class _IntForm(Multivector):
    """A multivector built from its int form alone; ``terms`` is filled on its first read.
    Only these values define ``__getattr__``, which slows every attribute read."""

    __slots__ = ()

    def __getattr__(self, name: str):
        # Reached only while a slot is unset; later reads of ``terms`` find it.
        if name != "terms":
            raise AttributeError(name)
        d, rows = self._form
        nvars = self.pair.nvars
        self.terms = {mono: Scalar._trusted(nvars, {e: Fraction(n, d) for e, n in row}) for mono, row in rows}
        return self.terms


def _of_form(pair: LieRinehartPair, form: tuple[int, list]) -> Multivector:
    """Wrap an int form (see ``_cleared``) unchecked; ``terms`` stays unset until read."""
    out = object.__new__(_IntForm)
    out.pair = pair
    out._form = form
    return out


def wedge(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """Exterior product: bilinear over ``A``, graded symmetric in tensor degree.

    Sums ``int`` products of the arguments' int forms; the result holds only its int form.
    """
    _check_args(pair, x, y)
    dx, xs = _cleared(x)
    dy, ys = _cleared(y)
    sums: dict = {}
    for mx, a in xs:
        for my, b in ys:
            merged = _merge_monomials(mx, my)
            if merged is None:
                continue
            sign, mono = merged
            for ea, ca in a:
                for eb, cb in b:
                    key = (mono, tuple(map(add, ea, eb)))
                    sums[key] = sums.get(key, 0) + sign * ca * cb
    return _from_cleared(pair, sums, dx * dy)


def tensor_degree(x: Multivector) -> int | str:
    """Common monomial length of a nonzero multivector, or ``INHOMOGENEOUS``."""
    if x.is_zero():
        raise DegreeUndefinedError("the zero multivector has no degree")
    # Read from the int form when there is one, so no Fraction view is built.
    lengths = {len(m) for m in x.terms} if x._form is None else {len(m) for m, _ in x._form[1]}
    if len(lengths) == 1:
        return lengths.pop()
    return INHOMOGENEOUS


def antisym_degree(x: Multivector) -> int | str:
    """Tensor degree shifted down by one; scalars sit in degree -1."""
    degree = tensor_degree(x)
    if degree == INHOMOGENEOUS:
        return INHOMOGENEOUS
    return degree - 1


def embed(pair: LieRinehartPair, u: GradedPairElement) -> Multivector:
    """Natural inclusion of ``A (+) g`` as the degree <= 1 part.

    Checks what the constructor would (generators in ``1..dim``, each
    coefficient in the pair's scalars, zeros dropped) with its messages.
    """
    parts = [] if u.scalar.is_zero() else [((), u.scalar)]
    parts += [((gen,), coeff) for gen, coeff in u.vector.terms.items()]
    terms: dict[tuple[int, ...], Scalar] = {}
    for mono, coeff in parts:
        if mono and not 1 <= mono[0] <= pair.dim:
            raise ValueError(f"monomial {mono!r} has indices outside 1..{pair.dim}")
        if coeff.nvars != pair.nvars:
            raise ValueError("coefficient does not belong to this pair")
        if not coeff.is_zero():
            terms[mono] = coeff
    return Multivector._trusted(pair, terms)


def associated_exterior_morphism(m: PairMorphism, x: Multivector) -> Multivector:
    """Prolong a validated pair morphism factor-wise over wedge monomials."""
    if not m.validated:
        raise MorphismValidationError(
            "morphism must pass check_pair_morphism before prolongation"
        )
    out = Multivector.zero(m.target)
    for mono, coeff in x.terms.items():
        term = Multivector.from_scalar(m.target, m.apply_scalar(coeff))
        for index in mono:
            image = Multivector.from_vector(m.target, m.apply_vector(m.source.generator(index)))
            term = wedge(m.target, term, image)
        out = out + term
    return out
