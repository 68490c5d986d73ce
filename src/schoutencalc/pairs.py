"""Lie-Rinehart pairs: coefficient algebras acted on by a Lie algebra.

Two instance families are supported.  A ``lie_algebra`` pair is a rational
Lie algebra given by structure constants, acting trivially on its scalars
``Q``.  A ``cartan`` pair has scalars ``Q[x_1, ..., x_m]`` and generators the
coordinate derivations ``d_1, ..., d_m`` with zero structure bracket; the
anchor of ``d_i`` is the partial derivative by ``x_i``.

Structure tables are validated at construction: antisymmetry is enforced by
the (i, j), i < j keying, and the Jacobi identity is checked by brute force
over the generator triples that hold a nonzero bracket.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import index
from pathlib import Path
from types import MappingProxyType

from .errors import PairDocumentError
from .report import BracketReport, run_identity
from .scalars import Scalar, parse_fraction

__all__ = [
    "GradedPairElement",
    "LieRinehartPair",
    "PairMorphism",
    "Vector",
    "anchor",
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
                # operator.index refuses a float generator instead of truncating it.
                gen = index(gen)
                if not isinstance(coeff, Scalar):
                    raise TypeError("vector coefficients must be Scalar values")
                if not coeff.is_zero():
                    clean[gen] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, terms: dict[int, Scalar]) -> Vector:
        """Wrap ``terms`` unchecked: int keys, nonzero ``Scalar`` coefficients."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> Vector:
        return cls._trusted({})

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
        return Vector._trusted(out)

    def __neg__(self) -> Vector:
        return Vector._trusted({g: -c for g, c in self.terms.items()})

    def __sub__(self, other: Vector) -> Vector:
        return self + (-other)

    def scaled(self, factor: Scalar | Fraction | int) -> Vector:
        return Vector._trusted({g: p for g, c in self.terms.items() if (p := c * factor).terms})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vector) and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "Vector(0)"
        parts = ", ".join(f"{g}: {c}" for g, c in sorted(self.terms.items()))
        return f"Vector({{{parts}}})"


@dataclass(frozen=True)
class GradedPairElement:
    """An element of the degree-0/degree-1 sum ``A (+) g``."""

    scalar: Scalar
    vector: Vector

    def is_zero(self) -> bool:
        return self.scalar.is_zero() and self.vector.is_zero()

    def __str__(self) -> str:
        return f"({self.scalar}, {self.vector!r})"


class LieRinehartPair:
    """Instance descriptor: generators, structure bracket and anchor.

    ``brackets`` is a read-only view.  ``monomial_brackets`` starts empty and
    is filled by :func:`schoutencalc.schouten.sn_antisym` on first use: it
    maps a pair ``(I, J)`` of generator monomials to three tuples,
    ``products`` of ``(monomial, q)`` (the bracket of the unit-coefficient
    monomials) and ``left`` and ``right`` of ``(k, monomial, q)``, so that
    ``bracket_denominator [a e_I, b e_J]`` is ``sum q ab e_mono + sum q a
    d_k(b) e_mono + sum q b d_k(a) e_mono``.  An entry is filled in closed
    form from :meth:`generator_bracket` and the anchor coefficients
    ``rho_ik = D_(e_i)(x_k)`` read through :meth:`anchor_generator`, which
    must be constants (both pair kinds satisfy this).  Every ``q`` is an
    ``int``: a ``products`` term sums structure constants, each a multiple
    of ``1/bracket_denominator``, and a ``left`` or ``right`` term is a
    signed ``rho``: Cartan pairs have ``rho = delta`` and
    ``bracket_denominator = 1``, and Lie algebras have a zero anchor, so
    they have no such terms.  Each entry is a pure
    function of the pair, so a fill is idempotent; there are at most
    ``4**dim``.  ``n_brackets``, filled by ``linfty.n_bracket`` on trivial
    scalars, has one entry per sorted tuple of monomials met of total length
    at most ``dim + 1``: the ``(monomial, int)`` terms of their unit
    n-bracket over ``bracket_denominator``, the lcm of the structure
    constants' denominators (each term holds one binary bracket, so one
    structure constant).  Another order reads it times ``(-1)**(pairs of
    odd-length monomials the sort swaps)``, by graded symmetry (any
    antisymmetric table).  ``n_bracket_sorts``, empty at construction and
    filled beside it, maps each ordered tuple of monomials met to its sorted
    tuple, the key of ``n_brackets``, and that sign; it is a pure function
    of the tuple, with one entry per order met of each multiset.
    """

    __slots__ = ("kind", "dim", "nvars", "brackets", "name", "monomial_brackets", "n_brackets", "n_bracket_sorts", "bracket_denominator")

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
        self.n_brackets: dict[tuple[tuple[int, ...], ...], tuple] = {}
        self.n_bracket_sorts: dict[tuple[tuple[int, ...], ...], tuple] = {}
        self.bracket_denominator = lcm(
            *(q.denominator for value in table.values() for c in value.terms.values() for q in c.terms.values())
        )
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
        """Jacobi on generator triples, by brute force; coefficient sanity.

        A triple ``i < j < k`` whose brackets ``[e_j, e_k]``, ``[e_k, e_i]``
        and ``[e_i, e_j]`` are all zero satisfies Jacobi trivially, so only
        triples holding a key of the bracket table are visited, in
        lexicographic order: the first failure is the least failing triple.
        """
        for value in self.brackets.values():
            for gen, coeff in value.terms.items():
                if not 1 <= gen <= self.dim:
                    raise ValueError(f"bracket value refers to unknown generator {gen}")
                if coeff.nvars != self.nvars:
                    raise ValueError("bracket coefficient has wrong variable count")
        triples = {
            tuple(sorted((i, j, k)))
            for i, j in self.brackets
            for k in range(1, self.dim + 1)
            if k != i and k != j
        }
        for i, j, k in sorted(triples):
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
    """Action ``D_x(a)`` of a vector on a scalar; a derivation of ``A``, zero on trivial scalars."""
    if a.nvars != pair.nvars:
        raise ValueError("scalar does not belong to this pair")
    out = pair.scalar_zero()
    for gen, coeff in x.terms.items():
        if not 1 <= gen <= pair.dim:
            raise ValueError(f"vector refers to unknown generator {gen}")
        if not pair.is_trivial_scalars:
            out = out + coeff * pair.anchor_generator(gen, a)
    return out


def bracket_vectors(pair: LieRinehartPair, x: Vector, y: Vector) -> Vector:
    """Lie bracket on vectors, extended from generators by the Leibniz rule.

    ``[a e_i, b e_j] = a D_i(b) e_j + a b [e_i, e_j] - b D_j(a) e_i``, summed
    bilinearly over the terms of both arguments; the anchor terms are zero
    on trivial scalars and skipped there.
    """
    out = Vector.zero()
    anchored = not pair.is_trivial_scalars
    for gi, a in x.terms.items():
        for gj, b in y.terms.items():
            if anchored:
                out = out + Vector({gj: a * pair.anchor_generator(gi, b)})
            out = out + pair.generator_bracket(gi, gj).scaled(a * b)
            if anchored:
                out = out - Vector({gi: b * pair.anchor_generator(gj, a)})
    return out


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


def check_leibniz(pair: LieRinehartPair, trials: int = 200, seed: int = 0) -> BracketReport:
    """Sample ``a, x, y`` and assert ``[x, a y] - D_x(a) y - a [x, y] = 0``."""
    from . import sampling

    def residual(case):
        a, x, y = case
        return (
            bracket_vectors(pair, x, y.scaled(a))
            - y.scaled(anchor(pair, x, a))
            - bracket_vectors(pair, x, y).scaled(a)
        )

    rng = sampling.rng_for(seed)
    cases = (
        (
            sampling.random_scalar(pair, rng),
            sampling.random_vector(pair, rng),
            sampling.random_vector(pair, rng),
        )
        for _ in range(trials)
    )
    return run_identity("leibniz", cases, residual, show=repr, seed=seed)


def check_pair_morphism(m: PairMorphism, trials: int = 50, seed: int = 0) -> BracketReport:
    """Verify the morphism equations; marks the morphism validated on success.

    Bracket compatibility is checked exhaustively on generator pairs, the
    anchor and multiplicativity conditions on seeded random samples.
    """
    from . import sampling

    source, target = m.source, m.target
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


def _int_from_json(value, field: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not truncated."""
    if type(value) is not int:
        raise PairDocumentError(f"{field} must be an integer, not {value!r}")
    return value


def _fraction_from_json(value) -> Fraction:
    if not isinstance(value, str):
        raise PairDocumentError(f"malformed coefficient: {value!r}")
    return parse_fraction(value)


def _coeff_from_json(value, nvars: int) -> Scalar:
    if isinstance(value, list):
        out = Scalar.zero(nvars)
        for term in value:
            exps = [_int_from_json(e, "exponent") for e in term["exponents"]]
            if len(exps) != nvars:
                raise PairDocumentError(f"exponent vector {exps!r} has wrong length")
            out = out + Scalar.monomial(exps, _fraction_from_json(term["coeff"]), nvars)
        return out
    return Scalar.const(_fraction_from_json(value), nvars)


def _vector_from_json(entries, pair_dim: int, nvars: int) -> Vector:
    out = Vector.zero()
    for entry in entries:
        gen = _int_from_json(entry["gen"], "gen")
        if not 1 <= gen <= pair_dim:
            raise PairDocumentError(f"generator index {gen} out of range")
        out = out + Vector({gen: _coeff_from_json(entry["coeff"], nvars)})
    return out


def read_document(document: str | Path | dict) -> dict:
    """Parse a document given as a path, JSON text, or an already parsed dict.

    A string whose first non-blank character is ``{`` is JSON text; any other
    string or path names a file, and a missing file is reported as such.
    Valid JSON that is not an object is a :class:`PairDocumentError`.
    """
    if isinstance(document, dict):
        return document
    text = str(document)
    if isinstance(document, Path) or not text.lstrip().startswith("{"):
        path = Path(document)
        if not path.exists():
            raise PairDocumentError(f"no such file: {text}")
        text = path.read_text()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise PairDocumentError(f"document must be a JSON object, not {type(doc).__name__}")
    return doc


def load_pair(document: str | Path | dict, *, validate: bool = True) -> LieRinehartPair:
    """Load a pair from a JSON document (path, JSON text, or parsed dict)."""
    try:
        doc = read_document(document)
        kind = doc["kind"]
        dim = _int_from_json(doc["dimension"], "dimension")
        nvars = dim if kind == "cartan" else 0
        table: dict[tuple[int, int], Vector] = {}
        for entry in doc.get("brackets", []):
            i, j = _int_from_json(entry["i"], "i"), _int_from_json(entry["j"], "j")
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
