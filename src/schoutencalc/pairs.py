"""Lie-Rinehart pairs: coefficient algebras acted on by a Lie algebra.

Two instance families are supported.  A ``lie_algebra`` pair is a rational
Lie algebra given by structure constants, acting trivially on its scalars
``Q``.  A ``cartan`` pair has scalars ``Q[x_1, ..., x_m]`` and generators the
coordinate derivations ``d_1, ..., d_m`` with zero structure bracket; the
anchor of ``d_i`` is the partial derivative by ``x_i``.

Structure tables are validated at construction: antisymmetry is enforced by
the (i, j), i < j keying, and the Jacobi identity is checked by brute force
over generator triples.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

from .errors import PairDocumentError
from .scalars import Scalar, parse_fraction

__all__ = [
    "GradedPairElement",
    "LieRinehartPair",
    "PairMorphism",
    "Vector",
    "anchor",
    "associated_bracket",
    "bracket_vectors",
    "check_leibniz",
    "check_pair_morphism",
    "load_morphism",
    "load_pair",
    "read_document",
]


class Vector:
    """A free-module element: map from generator index (1-based) to coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Scalar] | None = None):
        clean: dict[int, Scalar] = {}
        if terms:
            for gen, coeff in terms.items():
                if not isinstance(coeff, Scalar):
                    raise TypeError("vector coefficients must be Scalar values")
                if not coeff.is_zero():
                    clean[int(gen)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> Vector:
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: Vector) -> Vector:
        out = dict(self.terms)
        for gen, coeff in other.terms.items():
            if gen in out:
                total = out[gen] + coeff
                if total.is_zero():
                    del out[gen]
                else:
                    out[gen] = total
            else:
                out[gen] = coeff
        return Vector(out)

    def __neg__(self) -> Vector:
        return Vector({g: -c for g, c in self.terms.items()})

    def __sub__(self, other: Vector) -> Vector:
        return self + (-other)

    def scaled(self, factor: Scalar | Fraction | int) -> Vector:
        return Vector({g: c * factor for g, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vector) and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "Vector(0)"
        parts = ", ".join(f"{g}: {c}" for g, c in sorted(self.terms.items()))
        return f"Vector({{{parts}}})"


@dataclass
class GradedPairElement:
    """An element of the degree-0/degree-1 sum ``A (+) g``."""

    scalar: Scalar
    vector: Vector

    def is_zero(self) -> bool:
        return self.scalar.is_zero() and self.vector.is_zero()


class LieRinehartPair:
    """Instance descriptor: generators, structure bracket and anchor.

    ``brackets`` is a read-only view.  ``monomial_brackets`` starts empty and
    is filled by :func:`schoutencalc.schouten.sn_antisym` on trivial-scalar
    pairs: it maps a pair of generator monomials to the bracket of the
    unit-coefficient monomials, as ``(monomial, rational)`` pairs.  Each entry
    is a pure function of the pair, so a fill is idempotent.
    """

    __slots__ = ("kind", "dim", "nvars", "brackets", "name", "monomial_brackets")

    def __init__(
        self,
        kind: str,
        dim: int,
        brackets: Mapping[tuple[int, int], Vector] | None = None,
        *,
        name: str = "",
        validate: bool = True,
    ):
        if kind not in ("lie_algebra", "cartan"):
            raise ValueError(f"unknown pair kind: {kind!r}")
        if dim < 1:
            raise ValueError("generator count must be positive")
        self.kind = kind
        self.dim = dim
        self.nvars = dim if kind == "cartan" else 0
        table: dict[tuple[int, int], Vector] = {}
        for (i, j), value in (brackets or {}).items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
            if not value.is_zero():
                table[(i, j)] = value
        if kind == "cartan" and table:
            raise ValueError("cartan pairs have zero structure bracket on generators")
        self.brackets = MappingProxyType(table)
        self.name = name or kind
        self.monomial_brackets: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple] = {}
        if validate:
            self.validate_structure()

    # -- elements ----------------------------------------------------------

    @classmethod
    def lie_algebra(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, Fraction | int]],
        *,
        name: str = "",
        validate: bool = True,
    ) -> LieRinehartPair:
        """Build a trivial-scalar pair from rational structure constants."""
        table = {
            key: Vector({g: Scalar.const(c, 0) for g, c in value.items()})
            for key, value in brackets.items()
        }
        return cls("lie_algebra", dim, table, name=name, validate=validate)

    @classmethod
    def cartan(cls, m: int, *, name: str = "") -> LieRinehartPair:
        """Polynomial scalars in ``m`` variables with coordinate derivations."""
        return cls("cartan", m, {}, name=name or f"cartan{m}")

    @property
    def is_trivial_scalars(self) -> bool:
        return self.nvars == 0

    def compatible(self, other: LieRinehartPair) -> bool:
        return (
            self.kind == other.kind
            and self.dim == other.dim
            and self.brackets == other.brackets
        )

    def scalar_zero(self) -> Scalar:
        return Scalar.zero(self.nvars)

    def scalar_one(self) -> Scalar:
        return Scalar.one(self.nvars)

    def scalar_const(self, value: Fraction | int) -> Scalar:
        return Scalar.const(value, self.nvars)

    def scalar_variable(self, index: int) -> Scalar:
        return Scalar.variable(index, self.nvars)

    def generator(self, index: int) -> Vector:
        if not 1 <= index <= self.dim:
            raise ValueError(f"generator index {index} out of range 1..{self.dim}")
        return Vector({index: self.scalar_one()})

    def generator_name(self, index: int) -> str:
        prefix = "d" if self.kind == "cartan" else "e"
        return f"{prefix}{index}"

    def generator_bracket(self, i: int, j: int) -> Vector:
        """Structure bracket ``[e_i, e_j]`` with antisymmetry built in."""
        for index in (i, j):
            if not 1 <= index <= self.dim:
                raise ValueError(f"generator index {index} out of range 1..{self.dim}")
        if i == j:
            return Vector.zero()
        if i < j:
            return self.brackets.get((i, j), Vector.zero())
        return -self.brackets.get((j, i), Vector.zero())

    def anchor_generator(self, index: int, a: Scalar) -> Scalar:
        """Anchor of the generator ``e_index`` applied to a scalar."""
        if a.nvars != self.nvars:
            raise ValueError("scalar does not belong to this pair")
        if self.kind == "cartan":
            return a.derivative(index)
        return self.scalar_zero()

    def validate_structure(self) -> None:
        """Brute-force Jacobi on all generator triples; coefficient sanity."""
        for value in self.brackets.values():
            for gen, coeff in value.terms.items():
                if not 1 <= gen <= self.dim:
                    raise ValueError(f"bracket value refers to unknown generator {gen}")
                if coeff.nvars != self.nvars:
                    raise ValueError("bracket coefficient has wrong variable count")
        for i in range(1, self.dim + 1):
            for j in range(i + 1, self.dim + 1):
                for k in range(j + 1, self.dim + 1):
                    residual = (
                        bracket_vectors(self, self.generator(i), self.generator_bracket(j, k))
                        + bracket_vectors(self, self.generator(j), self.generator_bracket(k, i))
                        + bracket_vectors(self, self.generator(k), self.generator_bracket(i, j))
                    )
                    if not residual.is_zero():
                        raise ValueError(
                            f"Jacobi identity fails on generators ({i}, {j}, {k}): {residual!r}"
                        )

    def __repr__(self) -> str:
        return f"LieRinehartPair({self.name!r}, kind={self.kind}, dim={self.dim})"


# -- core operations ---------------------------------------------------------


def anchor(pair: LieRinehartPair, x: Vector, a: Scalar) -> Scalar:
    """Action ``D_x(a)`` of a vector on a scalar; a derivation of ``A``."""
    if a.nvars != pair.nvars:
        raise ValueError("scalar does not belong to this pair")
    out = pair.scalar_zero()
    for gen, coeff in x.terms.items():
        if not 1 <= gen <= pair.dim:
            raise ValueError(f"vector refers to unknown generator {gen}")
        out = out + coeff * pair.anchor_generator(gen, a)
    return out


def bracket_vectors(pair: LieRinehartPair, x: Vector, y: Vector) -> Vector:
    """Lie bracket on vectors, extended from generators by the Leibniz rule.

    ``[a e_i, b e_j] = a D_i(b) e_j + a b [e_i, e_j] - b D_j(a) e_i``, summed
    bilinearly over the terms of both arguments.
    """
    out = Vector.zero()
    for gi, a in x.terms.items():
        for gj, b in y.terms.items():
            out = out + Vector({gj: a * pair.anchor_generator(gi, b)})
            out = out + pair.generator_bracket(gi, gj).scaled(a * b)
            out = out - Vector({gi: b * pair.anchor_generator(gj, a)})
    return out


def associated_bracket(
    pair: LieRinehartPair, u: GradedPairElement, v: GradedPairElement
) -> GradedPairElement:
    """Graded bracket on ``A (+) g``: ``((a,x),(b,y)) -> (D_x(b) + D_y(a), [x,y])``."""
    scalar = anchor(pair, u.vector, v.scalar) + anchor(pair, v.vector, u.scalar)
    return GradedPairElement(scalar, bracket_vectors(pair, u.vector, v.vector))


# -- morphisms ---------------------------------------------------------------


class PairMorphism:
    """A pair of maps between Lie-Rinehart pairs.

    ``scalar_images`` gives the image of each source variable (empty for
    trivial scalars, where the rational unit map is forced); ``vector_images``
    gives the image of each source generator.  The morphism must be confirmed
    by :func:`check_pair_morphism` before it may be prolonged to exterior
    algebras.
    """

    __slots__ = ("source", "target", "scalar_images", "vector_images", "validated")

    def __init__(
        self,
        source: LieRinehartPair,
        target: LieRinehartPair,
        scalar_images: Sequence[Scalar] = (),
        vector_images: Sequence[Vector] = (),
    ):
        if len(scalar_images) != source.nvars:
            raise ValueError("one scalar image per source variable required")
        if len(vector_images) != source.dim:
            raise ValueError("one vector image per source generator required")
        for img in scalar_images:
            if img.nvars != target.nvars:
                raise ValueError("scalar image does not live in the target algebra")
        self.source = source
        self.target = target
        self.scalar_images = tuple(scalar_images)
        self.vector_images = tuple(vector_images)
        self.validated = False

    @classmethod
    def identity(cls, pair: LieRinehartPair) -> PairMorphism:
        return cls(
            pair,
            pair,
            tuple(pair.scalar_variable(i) for i in range(1, pair.nvars + 1)),
            tuple(pair.generator(i) for i in range(1, pair.dim + 1)),
        )

    def apply_scalar(self, a: Scalar) -> Scalar:
        if a.nvars != self.source.nvars:
            raise ValueError("scalar does not belong to the source pair")
        return a.substitute(self.scalar_images, self.target.nvars)

    def apply_vector(self, x: Vector) -> Vector:
        out = Vector.zero()
        for gen, coeff in x.terms.items():
            out = out + self.vector_images[gen - 1].scaled(self.apply_scalar(coeff))
        return out

    def __repr__(self) -> str:
        return f"PairMorphism({self.source.name!r} -> {self.target.name!r})"


# -- randomized identity checks ---------------------------------------------


def check_leibniz(pair: LieRinehartPair, trials: int = 200, seed: int = 0):
    """Sample ``a, x, y`` and assert ``[x, a y] - D_x(a) y - a [x, y] = 0``."""
    from . import sampling
    from .report import BracketReport

    rng = sampling.rng_for(seed)
    for _ in range(trials):
        a = sampling.random_scalar(pair, rng)
        x = sampling.random_vector(pair, rng)
        y = sampling.random_vector(pair, rng)
        residual = (
            bracket_vectors(pair, x, y.scaled(a))
            - y.scaled(anchor(pair, x, a))
            - bracket_vectors(pair, x, y).scaled(a)
        )
        if not residual.is_zero():
            return BracketReport.failure(
                "leibniz", repr(residual), witness=[repr(a), repr(x), repr(y)], seed=seed
            )
    return BracketReport.success("leibniz", seed=seed)


def check_pair_morphism(
    m: PairMorphism,
    source: LieRinehartPair | None = None,
    target: LieRinehartPair | None = None,
    trials: int = 50,
    seed: int = 0,
):
    """Verify the morphism equations; marks the morphism validated on success.

    Bracket compatibility is checked exhaustively on generator pairs, the
    anchor and multiplicativity conditions on seeded random samples.
    """
    from . import sampling
    from .report import BracketReport

    source = source or m.source
    target = target or m.target
    rng = sampling.rng_for(seed)

    def fail(msg: str, witness: list[str]):
        return BracketReport.failure("pair-morphism", msg, witness=witness, seed=seed)

    one = m.apply_scalar(source.scalar_one())
    if one != target.scalar_one():
        return fail(f"unit maps to {one}", [])
    for i in range(1, source.dim + 1):
        for j in range(i + 1, source.dim + 1):
            lhs = m.apply_vector(source.generator_bracket(i, j))
            rhs = bracket_vectors(target, m.apply_vector(source.generator(i)), m.apply_vector(source.generator(j)))
            if lhs != rhs:
                return fail(f"g([e{i}, e{j}]) != [g(e{i}), g(e{j})]", [repr(lhs - rhs)])
    for _ in range(trials):
        a = sampling.random_scalar(source, rng)
        b = sampling.random_scalar(source, rng)
        x = sampling.random_vector(source, rng)
        if m.apply_scalar(a * b) != m.apply_scalar(a) * m.apply_scalar(b):
            return fail("f is not multiplicative", [repr(a), repr(b)])
        lhs_scalar = m.apply_scalar(anchor(source, x, a))
        rhs_scalar = anchor(target, m.apply_vector(x), m.apply_scalar(a))
        if lhs_scalar != rhs_scalar:
            return fail("f(D_x(a)) != D_g(x)(f(a))", [repr(x), repr(a)])
        if m.apply_vector(x.scaled(a)) != m.apply_vector(x).scaled(m.apply_scalar(a)):
            return fail("g(a x) != f(a) g(x)", [repr(x), repr(a)])
    m.validated = True
    return BracketReport.success("pair-morphism", seed=seed)


# -- documents ---------------------------------------------------------------


def _coeff_from_json(value, nvars: int) -> Scalar:
    if isinstance(value, str):
        return Scalar.const(parse_fraction(value), nvars)
    if isinstance(value, list):
        out = Scalar.zero(nvars)
        for term in value:
            exps = term["exponents"]
            if len(exps) != nvars:
                raise PairDocumentError(f"exponent vector {exps!r} has wrong length")
            out = out + Scalar.monomial(exps, parse_fraction(term["coeff"]), nvars)
        return out
    raise PairDocumentError(f"malformed coefficient: {value!r}")


def _vector_from_json(entries, pair_dim: int, nvars: int) -> Vector:
    out = Vector.zero()
    for entry in entries:
        gen = int(entry["gen"])
        if not 1 <= gen <= pair_dim:
            raise PairDocumentError(f"generator index {gen} out of range")
        out = out + Vector({gen: _coeff_from_json(entry["coeff"], nvars)})
    return out


def read_document(document: str | Path | dict) -> dict:
    """Parse a document given as a path, JSON text, or an already parsed dict.

    A string whose first non-blank character is ``{`` is JSON text; any other
    string or path names a file, and a missing file is reported as such.
    """
    if isinstance(document, dict):
        return document
    text = str(document)
    if isinstance(document, Path) or not text.lstrip().startswith("{"):
        path = Path(document)
        if not path.exists():
            raise PairDocumentError(f"no such file: {text}")
        text = path.read_text()
    return json.loads(text)


def load_pair(document: str | Path | dict, *, validate: bool = True) -> LieRinehartPair:
    """Load a pair from a JSON document (path, JSON text, or parsed dict)."""
    try:
        doc = read_document(document)
        kind = doc["kind"]
        dim = int(doc["dimension"])
        nvars = dim if kind == "cartan" else 0
        table: dict[tuple[int, int], Vector] = {}
        for entry in doc.get("brackets", []):
            i, j = int(entry["i"]), int(entry["j"])
            table[(i, j)] = _vector_from_json(entry["value"], dim, nvars)
        return LieRinehartPair(kind, dim, table, name=doc.get("name", ""), validate=validate)
    except PairDocumentError:
        raise
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise PairDocumentError(f"invalid pair document: {exc}") from exc


def load_morphism(
    document: str | Path | dict,
    source: LieRinehartPair,
    target: LieRinehartPair,
) -> PairMorphism:
    """Load a morphism document: scalar images per variable, vector images per generator."""
    try:
        doc = read_document(document)
        scalar_images = [
            _coeff_from_json(value, target.nvars) for value in doc.get("scalar_map", [])
        ]
        vector_images = [
            _vector_from_json(entries, target.dim, target.nvars)
            for entries in doc["vector_map"]
        ]
        return PairMorphism(source, target, scalar_images, vector_images)
    except PairDocumentError:
        raise
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise PairDocumentError(f"invalid morphism document: {exc}") from exc
