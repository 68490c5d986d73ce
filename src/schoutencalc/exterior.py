"""The exterior algebra of a pair: canonical multivectors and the wedge.

A multivector holds one form, its int form ``(D, [(mono, [(exps, n)])])``,
that is ``x = sum n/D x^exps e_mono``: ``mono`` a strictly increasing
generator-index tuple (the empty tuple for the scalar component), each
``(mono, exps)`` met once, ``n`` a nonzero ``int`` and ``D`` a positive
common denominator, not necessarily the lcm.  ``terms``, the normal-form map
from monomials to nonzero ``Scalar`` coefficients, is a read-only view of
it, built on its first read and then kept.  The form is not canonical (``D``
and the row order vary), so equality compares the views; coefficients
absorb into the map, so ``a (x ^ y)``, ``(a x) ^ y`` and ``x ^ (a y)`` are
equal.

The public constructor and classmethods validate their input, clear the map
once into the int form and keep the map as the view; :func:`embed` makes the
constructor's checks itself and clears the same way.  Every other value
(``zero``, sums, negation, ``scaled`` and the kernels' results) is wrapped
unchecked from a form by ``_of_form``.  The bilinear kernels (:func:`wedge`,
``schouten.sn_antisym``) sum ``int`` products of their arguments' forms, and
sums add ``int`` numerators through ``_IntSum``, so no ``Fraction`` is built
before ``terms`` is read.  Values are immutable: ``terms`` cannot be
assigned, the view is a ``MappingProxyType`` and the form is never mutated.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import lcm
from operator import add, index
from types import MappingProxyType

from .errors import DegreeUndefinedError, MorphismValidationError
from .pairs import GradedPairElement, LieRinehartPair, PairMorphism, Vector
from .scalars import Scalar

__all__ = [
    "INHOMOGENEOUS",
    "Multivector",
    "associated_exterior_morphism",
    "embed",
    "tensor_degree",
    "wedge",
]

INHOMOGENEOUS = "inhomogeneous"


# Keyed by the monomial pair; see _merge_monomials.
_MERGES: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, tuple[int, ...]] | None] = {}


def _merge_monomials(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sort the concatenation; returns (sign, merged) or None on a repeat.

    Memoized in the module-level ``_MERGES``.  Like
    ``graded._SIGNED_SHUFFLES``, the result is a pure function of its key,
    so an entry never goes stale and is never evicted; the monomials of
    ``dim`` generators make at most ``4**dim`` pairs, so the table is
    bounded by the largest dimension met.
    """
    try:
        return _MERGES[left, right]
    except KeyError:
        pass
    merged = None
    if set(left).isdisjoint(right):
        inversions = sum([a > b for a in left for b in right])
        merged = (-1 if inversions % 2 else 1), tuple(sorted(left + right))
    _MERGES[left, right] = merged
    return merged


def _clear(terms: dict[tuple[int, ...], Scalar]) -> tuple[int, list]:
    """The int form of a normal-form map, over the lcm of its denominators."""
    d = lcm(*(c.denominator for coeff in terms.values() for c in coeff.terms.values()))
    return d, [
        (mono, [(e, c.numerator * (d // c.denominator)) for e, c in coeff.terms.items()])
        for mono, coeff in terms.items()
    ]


def _from_cleared(pair: LieRinehartPair, sums: dict, denominator: int) -> Multivector:
    """The multivector ``sum sums[mono, exps]/denominator x^exps e_mono``, zero sums dropped.

    Every sum is an ``int``: the kernels sum ``int`` numerators, and their
    table entries are ``int``s over the pair's ``bracket_denominator``.
    """
    rows: dict[tuple[int, ...], list] = {}
    for (mono, e), c in sums.items():
        if c:
            rows.setdefault(mono, []).append((e, c))
    return _of_form(pair, (denominator, list(rows.items())))


class _IntSum:
    """A running sum ``sums[mono, exps] / d`` of int forms; a term over another ``D`` first
    rescales it to ``lcm(d, D)``, and zero sums are kept until :meth:`value` drops them."""

    __slots__ = ("d", "sums")

    def __init__(self):
        self.d = 1
        self.sums: dict = {}

    def add(self, x: Multivector, factor: int = 1) -> None:
        """Add ``factor * x``, ``factor`` an ``int``."""
        dx, rows = x._form
        if not rows:
            return
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
        """The sum divided by ``denominator``."""
        return _from_cleared(pair, self.sums, self.d * denominator)


def _check_args(pair: LieRinehartPair, x: Multivector, y: Multivector) -> None:
    x._check(y)
    if x.pair is not pair and not x.pair.compatible(pair):
        raise ValueError("multivector does not belong to the given pair")


class Multivector:
    """An element of the exterior algebra over a fixed pair, held as its int form."""

    __slots__ = ("pair", "_form", "_terms")

    def __init__(
        self,
        pair: LieRinehartPair,
        terms: Mapping[tuple[int, ...], Scalar] | None = None,
    ):
        self.pair = pair
        clean: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                # operator.index refuses a float index instead of truncating it.
                key = tuple(map(index, mono))
                if key and (min(key) < 1 or max(key) > pair.dim):
                    raise ValueError(f"monomial {key!r} has indices outside 1..{pair.dim}")
                if any(a >= b for a, b in zip(key, key[1:])):
                    raise ValueError(f"monomial {key!r} is not strictly increasing")
                if not isinstance(coeff, Scalar):
                    raise TypeError("multivector coefficients must be Scalar values")
                if coeff.nvars != pair.nvars:
                    raise ValueError("coefficient does not belong to this pair")
                if not coeff.is_zero():
                    clean[key] = coeff
        self._terms = MappingProxyType(clean)
        self._form = _clear(clean)

    @property
    def terms(self) -> Mapping[tuple[int, ...], Scalar]:
        """The read-only ``Fraction`` view ``{mono: Scalar}``, built from the int form on first read."""
        terms = self._terms
        if terms is None:
            d, rows = self._form
            nvars = self.pair.nvars
            terms = self._terms = MappingProxyType(
                {mono: Scalar._trusted(nvars, {e: Fraction(n, d) for e, n in row}) for mono, row in rows}
            )
        return terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, pair: LieRinehartPair) -> Multivector:
        return _of_form(pair, (1, []))

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
        return not self._form[1]

    def scalar_part(self) -> Scalar:
        return self.terms.get((), self.pair.scalar_zero())

    def vector_part(self) -> Vector:
        return Vector({mono[0]: c for mono, c in self.terms.items() if len(mono) == 1})

    def homogeneous_components(self) -> dict[int, Multivector]:
        """Split the int form by tensor degree; zero contributes no components."""
        d, rows = self._form
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
        # A zero operand leaves the other's form; a fresh wrapper keeps the sum free of a Fraction view.
        if not other._form[1]:
            return _of_form(self.pair, self._form)
        if not self._form[1] and sign == 1:
            return _of_form(self.pair, other._form)
        out = _IntSum()
        out.add(self)
        out.add(other, sign)
        return out.value(self.pair)

    def __neg__(self) -> Multivector:
        d, rows = self._form
        return _of_form(self.pair, (d, [(m, [(e, -n) for e, n in row]) for m, row in rows]))

    def __sub__(self, other: Multivector) -> Multivector:
        return self.__add__(other, -1)

    def scaled(self, factor: Scalar | Fraction | int) -> Multivector:
        """``factor * self``: a rational factor scales the numerators and ``D``, a ``Scalar`` one is wedged on."""
        # A unit factor needs no coefficient products.
        if factor == 1:
            return self
        if factor == -1:
            return -self
        if isinstance(factor, Scalar):
            return wedge(self.pair, Multivector.from_scalar(self.pair, factor), self)
        if not factor:
            return Multivector.zero(self.pair)
        d, rows = self._form
        p = factor.numerator
        return _of_form(self.pair, (d * factor.denominator, [(m, [(e, n * p) for e, n in row]) for m, row in rows]))

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


def _of_form(pair: LieRinehartPair, form: tuple[int, list]) -> Multivector:
    """Wrap an int form unchecked; ``terms`` is built on its first read."""
    out = object.__new__(Multivector)
    out.pair = pair
    out._form = form
    out._terms = None
    return out


def wedge(pair: LieRinehartPair, x: Multivector, y: Multivector) -> Multivector:
    """Exterior product: bilinear over ``A``, graded symmetric in tensor degree.

    Sums ``int`` products of the arguments' int forms, over ``D_x D_y``.
    """
    _check_args(pair, x, y)
    dx, xs = x._form
    dy, ys = y._form
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
    lengths = {len(m) for m, _ in x._form[1]}
    if len(lengths) == 1:
        return lengths.pop()
    return INHOMOGENEOUS


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
    out = _of_form(pair, _clear(terms))
    out._terms = MappingProxyType(terms)
    return out


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
