"""Exact coefficient arithmetic over the rationals.

A :class:`Scalar` is a sparse multivariate polynomial with ``Fraction``
coefficients in a fixed number of variables; ``nvars == 0`` recovers plain
rationals.  Terms are keyed by exponent tuples, zero coefficients are never
stored, and the zero element is the empty map, so equality is decidable by
map comparison.

The public constructor and classmethods validate and normalize their input;
``Scalar.zero`` checks its variable count and wraps an empty map.
Arithmetic results are built by ``Scalar._trusted``, which wraps a map that
is already in normal form without checking it; each operation keeps the form
itself (sums drop zero totals, products by zero are zero).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from operator import add

__all__ = ["Scalar", "parse_fraction"]

RationalLike = Fraction | int


def parse_fraction(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into an exact rational."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    if len(parts) == 2:
        denominator = int(parts[1])
        if denominator == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(parts[0]), denominator)
    raise ValueError(f"malformed rational literal: {text!r}")


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    # Descending graded-lex: higher total degree first, then lexicographically
    # larger exponent vectors first.
    return (-sum(exps), tuple(-e for e in exps))


class Scalar:
    """Element of the coefficient algebra ``Q[x_1, ..., x_nvars]``."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], RationalLike] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                key = tuple(int(e) for e in exps)
                if len(key) != nvars:
                    raise ValueError(f"exponent tuple {key!r} has wrong length for {nvars} variables")
                if any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in {key!r}")
                c = Fraction(coeff)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[tuple[int, ...], Fraction]) -> Scalar:
        """Wrap ``terms`` unchecked; it must already be in normal form."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Scalar:
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        return cls._trusted(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> Scalar:
        return cls.const(1, nvars)

    @classmethod
    def const(cls, value: RationalLike, nvars: int) -> Scalar:
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, index: int, nvars: int) -> Scalar:
        """The variable ``x_index`` (1-based)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: RationalLike, nvars: int) -> Scalar:
        return cls(nvars, {tuple(exps): Fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: Scalar) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: Scalar) -> Scalar:
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in out:
                total = out[exps] + coeff
                if total:
                    out[exps] = total
                else:
                    del out[exps]
            else:
                out[exps] = coeff
        return Scalar._trusted(self.nvars, out)

    def __neg__(self) -> Scalar:
        return Scalar._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __mul__(self, other: Scalar | RationalLike) -> Scalar:
        if isinstance(other, (int, Fraction)):
            if not other:
                return Scalar._trusted(self.nvars, {})
            return Scalar._trusted(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Scalar._trusted(self.nvars, {e: c for e, c in out.items() if c})

    def __rmul__(self, other: RationalLike) -> Scalar:
        return self * other

    def __pow__(self, exponent: int) -> Scalar:
        if exponent < 0:
            raise ValueError("negative polynomial power")
        # Square-and-multiply: O(log exponent) products.
        out = Scalar.one(self.nvars)
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            exponent >>= 1
            if exponent:
                base = base * base
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scalar) and self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable mapping inside; compare by value only

    def derivative(self, index: int) -> Scalar:
        """Partial derivative with respect to ``x_index`` (1-based)."""
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        i = index - 1
        # Lowering a positive exponent is injective, so no two terms merge.
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            if exps[i]:
                out[exps[:i] + (exps[i] - 1,) + exps[i + 1 :]] = coeff * exps[i]
        return Scalar._trusted(self.nvars, out)

    def substitute(self, images: Sequence[Scalar], nvars_out: int) -> Scalar:
        """Evaluate at ``x_i = images[i-1]``; images live in ``nvars_out`` variables."""
        if len(images) != self.nvars:
            raise ValueError("one image per variable required")
        out = Scalar.zero(nvars_out)
        for exps, coeff in self.terms.items():
            term = Scalar.const(coeff, nvars_out)
            for img, e in zip(images, exps):
                if e:
                    term = term * (img**e)
            out = out + term
        return out

    # -- rendering ---------------------------------------------------------

    def _term_body(self, exps: tuple[int, ...], coeff: Fraction) -> str:
        """Render one term with a nonnegative coefficient."""
        factors = [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(exps)
            if e > 0
        ]
        if not factors:
            return str(coeff)
        if coeff != 1:
            factors.insert(0, str(coeff))
        return "*".join(factors)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for exps, coeff in self.sorted_terms():
            body = self._term_body(exps, abs(coeff))
            if not chunks:
                chunks.append(f"-{body}" if coeff < 0 else body)
            else:
                chunks.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Scalar({self.nvars}, {self})"

    def signed_render(self) -> tuple[int, str]:
        """Split into a sign and a body string suitable for a coefficient slot.

        Single-term scalars yield their sign and unsigned body; anything with
        several terms renders parenthesized with sign ``+1``.
        """
        if len(self.terms) == 1:
            (exps, coeff), = self.terms.items()
            return (1 if coeff > 0 else -1), self._term_body(exps, abs(coeff))
        return 1, f"({self})"
