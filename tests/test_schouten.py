"""Schouten-Nijenhuis brackets: golden values, gradings and identity checks."""

import itertools
from fractions import Fraction

import pytest

from schoutencalc import sampling, schouten
from schoutencalc.exterior import Multivector, tensor_degree, wedge
from schoutencalc.graded import parity_sign
from schoutencalc.instances import (
    abelian,
    cartan,
    gl2,
    perturbed_sl2,
    sl2,
    solvable4,
)
from schoutencalc.linfty import weak_jacobi_residual
from schoutencalc.pairs import LieRinehartPair, PairMorphism, Vector, bracket_vectors, check_pair_morphism, load_pair
from schoutencalc.scalars import Scalar
from schoutencalc.schouten import (
    antisym_jacobi_residual,
    morphism_sn_residual,
    poisson_residual,
    sn_antisym,
    sn_sym,
)

from fixtures import run_suite, sl2_to_gl2
from oracles import decalage_relation, sn_antisym_poisson, sn_antisym_shuffle, sn_term_pair, wedge_by_scalars


class TestAntisymBase:
    def test_scalars_bracket_to_zero(self):
        pair = cartan(2)
        a = Multivector.from_scalar(pair, pair.scalar_variable(1))
        b = Multivector.from_scalar(pair, pair.scalar_variable(2))
        assert sn_antisym(pair, a, b).is_zero()

    def test_vector_scalar_is_anchor(self):
        pair = cartan(1)
        d1 = Multivector.monomial(pair, (1,))
        sq = Multivector.from_scalar(pair, pair.scalar_variable(1) ** 2)
        result = sn_antisym(pair, d1, sq)
        assert result == Multivector.from_scalar(pair, 2 * pair.scalar_variable(1))
        # Both evaluation routes agree.
        assert result == sn_antisym_poisson(pair, d1, sq)

    def test_scalar_vector_is_minus_anchor(self):
        # Forced by graded antisymmetry; the flipped order changes sign.
        pair = cartan(1)
        d1 = Multivector.monomial(pair, (1,))
        sq = Multivector.from_scalar(pair, pair.scalar_variable(1) ** 2)
        assert sn_antisym(pair, sq, d1) == -sn_antisym(pair, d1, sq)

    def test_bivector_scalar(self):
        # Value frozen from the Poisson-recursion oracle; the antisymmetric
        # extension to the scalar sector makes this -d2, not +d2.
        pair = cartan(2)
        dd = Multivector.monomial(pair, (1, 2))
        x1 = Multivector.from_scalar(pair, pair.scalar_variable(1))
        expected = -Multivector.monomial(pair, (2,))
        assert sn_antisym_poisson(pair, dd, x1) == expected
        assert sn_antisym(pair, dd, x1) == expected

    def test_vectors_reduce_to_lie_bracket(self):
        pair = sl2()
        rng = sampling.rng_for(61)
        for _ in range(100):
            x = sampling.random_vector(pair, rng)
            y = sampling.random_vector(pair, rng)
            expected = Multivector.from_vector(pair, bracket_vectors(pair, x, y))
            got = sn_antisym(
                pair,
                Multivector.from_vector(pair, x),
                Multivector.from_vector(pair, y),
            )
            assert got == expected


class TestOracleEquivalence:
    @pytest.mark.parametrize("factory", [sl2, gl2, lambda: cartan(2), lambda: cartan(3)])
    def test_absorption_vs_poisson(self, factory):
        pair = factory()
        rng = sampling.rng_for(67)
        top = min(3, pair.dim)
        for _ in range(100):
            x = sampling.random_multivector(pair, rng, max_degree=top)
            y = sampling.random_multivector(pair, rng, max_degree=top)
            assert sn_antisym(pair, x, y) == sn_antisym_poisson(pair, x, y)

    def test_double_sum_vs_shuffle_form(self):
        pair = cartan(3)
        rng = sampling.rng_for(71)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            xs = [sampling.random_vector(pair, rng, nonzero=True) for _ in range(n)]
            ys = [sampling.random_vector(pair, rng, nonzero=True) for _ in range(m)]
            via_shuffles = sn_antisym_shuffle(pair, xs, ys)
            x_mv = Multivector.from_scalar(pair, pair.scalar_one())
            for v in xs:
                x_mv = wedge(pair, x_mv, Multivector.from_vector(pair, v))
            y_mv = Multivector.from_scalar(pair, pair.scalar_one())
            for v in ys:
                y_mv = wedge(pair, y_mv, Multivector.from_vector(pair, v))
            assert sn_antisym(pair, x_mv, y_mv) == via_shuffles

    def test_representation_independence(self):
        # a (x1 ^ x2) built as (a x1) ^ x2 and as x1 ^ (a x2) is one value.
        pair = cartan(2)
        a = pair.scalar_variable(1)
        d1 = Multivector.monomial(pair, (1,))
        d2 = Multivector.monomial(pair, (2,))
        left = wedge(pair, d1.scaled(a), d2)
        right = wedge(pair, d1, d2.scaled(a))
        assert left == right
        x1 = Multivector.from_scalar(pair, pair.scalar_variable(2))
        assert sn_antisym(pair, left, x1) == sn_antisym(pair, right, x1)

    def test_absorption_slot_independence(self):
        # The double-sum value must not depend on which vector slot carries
        # the monomial coefficient; that is the well-definedness of the
        # A-additive extension.
        from schoutencalc.graded import parity_sign
        from schoutencalc.pairs import bracket_vectors

        pair = cartan(3)

        def double_sum(xs, ys):
            out = Multivector.zero(pair)
            for i in range(1, len(xs) + 1):
                for j in range(1, len(ys) + 1):
                    inner = bracket_vectors(pair, xs[i - 1], ys[j - 1])
                    term = Multivector.from_vector(pair, inner)
                    for v in xs[: i - 1] + xs[i:] + ys[: j - 1] + ys[j:]:
                        term = wedge(pair, term, Multivector.from_vector(pair, v))
                    out = out + term.scaled(parity_sign(i + j))
            return out

        rng = sampling.rng_for(109)
        for _ in range(30):
            nx = rng.randint(1, 3)
            ny = rng.randint(1, 3)
            mono_x = tuple(sorted(rng.sample(range(1, 4), nx)))
            mono_y = tuple(sorted(rng.sample(range(1, 4), ny)))
            a = sampling.random_scalar(pair, rng, nonzero=True)
            b = sampling.random_scalar(pair, rng, nonzero=True)
            results = []
            for slot_x in range(nx):
                for slot_y in range(ny):
                    xs = [Vector({g: pair.scalar_one()}) for g in mono_x]
                    xs[slot_x] = Vector({mono_x[slot_x]: a})
                    ys = [Vector({g: pair.scalar_one()}) for g in mono_y]
                    ys[slot_y] = Vector({mono_y[slot_y]: b})
                    results.append(double_sum(xs, ys))
            for other in results[1:]:
                assert other == results[0]
            x_mv = Multivector.monomial(pair, mono_x, a)
            y_mv = Multivector.monomial(pair, mono_y, b)
            assert sn_antisym(pair, x_mv, y_mv) == results[0]


def term_sum(pair, x, y):
    """The general evaluator summed over term pairs, bypassing the monomial table."""
    out = Multivector.zero(pair)
    for mx, a in x.terms.items():
        for my, b in y.terms.items():
            out = out + sn_term_pair(pair, mx, a, my, b)
    return out


def basis_monomials(pair):
    generators = range(1, pair.dim + 1)
    return [m for d in range(pair.dim + 1) for m in itertools.combinations(generators, d)]


class TestMonomialTable:
    """``sn_antisym`` reads a per-pair table of monomial brackets; on
    trivial-scalar pairs it must agree with the term-pair evaluator and the
    Poisson oracle on every pair of basis monomials."""

    @pytest.mark.parametrize(
        "factory", [sl2, gl2, solvable4, lambda: abelian(3), perturbed_sl2]
    )
    def test_matches_term_sum_and_poisson(self, factory):
        pair = factory()
        rng = sampling.rng_for(113)
        monomials = basis_monomials(pair)
        cases = [
            (
                Multivector.monomial(pair, mx, sampling.random_fraction(rng, nonzero=True)),
                Multivector.monomial(pair, my, sampling.random_fraction(rng, nonzero=True)),
            )
            for mx in monomials
            for my in monomials
        ]
        cases += [
            (sampling.random_multivector(pair, rng), sampling.random_multivector(pair, rng))
            for _ in range(10)
        ]
        nonzero = 0
        for x, y in cases:
            got = sn_antisym(pair, x, y)
            assert got == term_sum(pair, x, y)
            assert got == sn_antisym_poisson(pair, x, y)
            nonzero += not got.is_zero()
        # Only the abelian bracket vanishes identically.
        assert (nonzero > 0) == bool(pair.brackets)

    def test_interleaved_pairs_keep_their_own_tables(self):
        # Same dimension, different structure constants: a table shared
        # between the two would hand one pair the other's brackets.
        true, bent = sl2(), perturbed_sl2()
        differ = 0
        for mx, my in itertools.product(basis_monomials(true), repeat=2):
            x, y = Multivector.monomial(true, mx), Multivector.monomial(true, my)
            u, v = Multivector.monomial(bent, mx), Multivector.monomial(bent, my)
            got_true = sn_antisym(true, x, y)
            got_bent = sn_antisym(bent, u, v)
            assert got_true == term_sum(true, x, y)
            assert got_bent == term_sum(bent, u, v)
            differ += got_true.terms != got_bent.terms
        assert differ

    def test_fresh_pair_starts_empty(self):
        pair = sl2()
        assert pair.monomial_brackets == {}
        e, f = Multivector.monomial(pair, (1,)), Multivector.monomial(pair, (2,))
        sn_antisym(pair, e, f)
        assert set(pair.monomial_brackets) == {((1,), (2,))}
        assert sl2().monomial_brackets == {}

    def test_arguments_of_another_pair_are_refused(self):
        pair = sl2()
        for other in (gl2(), cartan(2)):
            x, y = Multivector.monomial(other, (1,)), Multivector.monomial(other, (2,))
            with pytest.raises(ValueError, match="does not belong to the given pair"):
                sn_antisym(pair, x, y)
        assert pair.monomial_brackets == {}
        twin = sl2()
        e, f = Multivector.monomial(twin, (1,)), Multivector.monomial(twin, (2,))
        assert sn_antisym(pair, e, f) == Multivector.monomial(pair, (3,))

    def test_sym_bracket_refuses_a_zero_of_another_pair(self):
        pair = gl2()
        for other in (sl2(), cartan(2)):
            zero, e1 = Multivector.zero(other), Multivector.monomial(other, (1,))
            for x, y in ((zero, e1), (e1, zero), (zero, zero)):
                with pytest.raises(ValueError, match="does not belong to the given pair"):
                    sn_sym(pair, x, y)
        twin = gl2()
        assert sn_sym(pair, Multivector.zero(twin), Multivector.monomial(twin, (1,))).is_zero()

    def test_cartan_pair_fills_bounded_table(self):
        two = cartan(2)
        assert two.monomial_brackets == {}
        rng = sampling.rng_for(127)
        for _ in range(40):
            x = sampling.random_multivector(two, rng)
            y = sampling.random_multivector(two, rng)
            sn_antisym(two, x, y)
        assert 0 < len(two.monomial_brackets) <= 4**2
        filled = dict(two.monomial_brackets)
        three = cartan(3)
        assert three.monomial_brackets == {}
        for mx, my in itertools.product(basis_monomials(three), repeat=2):
            x, y = Multivector.monomial(three, mx), Multivector.monomial(three, my)
            sn_antisym(three, x, y)
        assert len(three.monomial_brackets) == 4**3
        for _ in range(20):
            x = sampling.random_multivector(three, rng)
            y = sampling.random_multivector(three, rng)
            sn_antisym(three, x, y)
        assert len(three.monomial_brackets) == 4**3
        assert two.monomial_brackets == filled
        assert not any(3 in mx + my for mx, my in two.monomial_brackets)
        assert cartan(2).monomial_brackets == {}


def polynomial(pair, rng, *, free_of=None):
    """Nonzero polynomial of degree <= 3 with <= 3 terms, optionally without ``x_free_of``."""
    while True:
        a = sampling.random_scalar(pair, rng, max_degree=3, max_terms=3, nonzero=True)
        if free_of is not None:
            i = free_of - 1
            a = Scalar(pair.nvars, {e[:i] + (0,) + e[i + 1 :]: c for e, c in a.terms.items()})
        if not a.is_zero():
            return a


class SkewedAnchor(LieRinehartPair):
    """Three variables, zero structure constants, anchor ``D_(e_i) = sum_k R_ik d_k``.

    ``R`` is constant, invertible (determinant 5) and not symmetric, so a
    kernel that reads ``rho_ki`` for ``rho_ik`` disagrees with the oracles;
    constant vector fields commute, so this is a Lie-Rinehart pair.
    """

    __slots__ = ()
    R = ((2, 1, 0), (0, 1, -1), (1, 0, 3))

    def anchor_generator(self, index, a):
        out = self.scalar_zero()
        for k, r in enumerate(self.R[index - 1], 1):
            out = out + r * a.derivative(k)
        return out


class TestCartanTable:
    """On Cartan pairs a table entry splits ``[e_I, e_J]`` into the parts
    multiplying ``ab``, ``a d_k(b)`` and ``b d_k(a)``; the kernel's sum must
    agree with the term-pair evaluator and the Poisson oracle."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_term_sum_and_poisson(self, m):
        pair = cartan(m)
        rng = sampling.rng_for(131 + m)
        monomials = basis_monomials(pair)

        def monomial(mono, **kwargs):
            return Multivector.monomial(pair, mono, polynomial(pair, rng, **kwargs))

        def mixed():
            # A scalar part plus one or two terms of positive degree.
            out = monomial(())
            for _ in range(rng.randint(1, 2)):
                out = out + monomial(rng.choice(monomials[1:]))
            return out

        cases = [(monomial(mx), monomial(my)) for mx in monomials for my in monomials]
        for k in range(1, m + 1):
            for _ in range(10):
                mx, my = rng.choice(monomials), rng.choice(monomials)
                cases.append((monomial(mx, free_of=k), monomial(my)))
                cases.append((monomial(mx), monomial(my, free_of=k)))
        cases += [(mixed(), mixed()) for _ in range(10)]
        cases += [(mixed(), monomial(my)) for my in monomials]
        nonzero = 0
        for x, y in cases:
            got = sn_antisym(pair, x, y)
            assert got == term_sum(pair, x, y)
            assert got == sn_antisym_poisson(pair, x, y)
            nonzero += not got.is_zero()
        assert nonzero

    def test_skewed_constant_anchor(self):
        pair = SkewedAnchor("cartan", 3)
        x1, x2 = pair.scalar_variable(1), pair.scalar_variable(2)
        assert pair.anchor_generator(1, x2) != pair.anchor_generator(2, x1)
        rng = sampling.rng_for(137)
        nonzero = 0
        for mx, my in itertools.product(basis_monomials(pair), repeat=2):
            x = Multivector.monomial(pair, mx, polynomial(pair, rng))
            y = Multivector.monomial(pair, my, polynomial(pair, rng))
            got = sn_antisym(pair, x, y)
            assert got == term_sum(pair, x, y)
            assert got == sn_antisym_poisson(pair, x, y)
            nonzero += not got.is_zero()
        assert nonzero

    def test_non_constant_anchor_is_refused(self):
        class Curved(LieRinehartPair):
            """Anchor ``x_1 d_i``: a derivation, but not with constant coefficients."""

            __slots__ = ()

            def anchor_generator(self, index, a):
                return self.scalar_variable(1) * a.derivative(index)

        pair = Curved("cartan", 2)
        d1 = Multivector.monomial(pair, (1,))
        x2 = Multivector.from_scalar(pair, pair.scalar_variable(2))
        with pytest.raises(ValueError, match="constant-coefficient"):
            sn_antisym(pair, d1, x2)


def sym_by_components(pair, x, y, antisym):
    """``{x, y}`` by its definition ``sum_d (-1)**d [y, x_d]`` over the components ``x_d``."""
    out = Multivector.zero(pair)
    for degree, component in x.homogeneous_components().items():
        out = out + antisym(pair, y, component).scaled(parity_sign(degree))
    return out


# Heisenberg algebra with [e1, e2] = 2/3 e3, so D_pair = 3.
FRACTIONAL_HEISENBERG = {
    "kind": "lie_algebra",
    "dimension": 3,
    "name": "heisenberg-2/3",
    "brackets": [{"i": 1, "j": 2, "value": [{"gen": 3, "coeff": "2/3"}]}],
}

# [e1, e2] = 1/2 e2 and [e1, e3] = 1/3 e3, so D_pair = 6 while a unit
# bracket holding only one of the two constants has denominator 2 or 3.
FRACTIONAL_SOLVABLE = {
    "kind": "lie_algebra",
    "dimension": 3,
    "name": "solvable-1/2-1/3",
    "brackets": [
        {"i": 1, "j": 2, "value": [{"gen": 2, "coeff": "1/2"}]},
        {"i": 1, "j": 3, "value": [{"gen": 3, "coeff": "1/3"}]},
    ],
}

# Coprime denominators, and numerators and denominators beyond 64 bits.
CLEARED_COEFFS = (
    Fraction(1, 3),
    Fraction(2, 7),
    Fraction(-5, 6),
    Fraction(2**65 + 1, 7),
    Fraction(-3, 2**64 + 13),
    Fraction(4),
)


class TestClearedDenominators:
    """``sn_antisym``, ``sn_sym`` and ``wedge`` clear each argument's
    denominators to one lcm, sum ``int`` products and divide once per output
    coefficient; they must agree with the ``Scalar``-arithmetic oracles."""

    FACTORIES = [
        lambda: cartan(1),
        lambda: cartan(2),
        lambda: cartan(3),
        sl2,
        lambda: load_pair(FRACTIONAL_HEISENBERG),
    ]
    IDS = ["cartan1", "cartan2", "cartan3", "sl2", "heisenberg-2/3"]

    @staticmethod
    def coefficient(pair, rng):
        terms = {}
        for _ in range(rng.randint(1, 3) if pair.nvars else 1):
            terms[tuple(rng.randint(0, 2) for _ in range(pair.nvars))] = rng.choice(CLEARED_COEFFS)
        return Scalar(pair.nvars, terms)

    def argument(self, pair, rng):
        """Inhomogeneous, with a scalar part and one to three terms of positive degree."""
        terms = {(): self.coefficient(pair, rng)}
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(1, min(3, pair.dim))
            terms[tuple(sorted(rng.sample(range(1, pair.dim + 1), degree)))] = self.coefficient(pair, rng)
        return Multivector(pair, terms)

    def cases(self, pair, seed, count=25):
        rng = sampling.rng_for(seed)
        out = [(self.argument(pair, rng), self.argument(pair, rng)) for _ in range(count)]
        # Single-term arguments whose denominators differ between the two.
        out += [
            (Multivector.monomial(pair, (1,), self.coefficient(pair, rng)), self.argument(pair, rng))
            for _ in range(5)
        ]
        return out

    @staticmethod
    def assert_fraction_coefficients(x):
        assert all(type(c) is Fraction for s in x.terms.values() for c in s.terms.values())

    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_sn_antisym_matches_oracles(self, factory):
        pair = factory()
        nonzero = 0
        for x, y in self.cases(pair, 151):
            got = sn_antisym(pair, x, y)
            assert got == sn_antisym_poisson(pair, x, y)
            assert got == term_sum(pair, x, y)
            self.assert_fraction_coefficients(got)
            nonzero += not got.is_zero()
        assert nonzero

    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_sn_sym_matches_component_sum_of_oracle(self, factory):
        pair = factory()
        for x, y in self.cases(pair, 157):
            got = sn_sym(pair, x, y)
            assert got == sym_by_components(pair, x, y, sn_antisym_poisson)
            self.assert_fraction_coefficients(got)

    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_wedge_matches_scalar_products(self, factory):
        pair = factory()
        nonzero = 0
        for x, y in self.cases(pair, 163):
            got = wedge(pair, x, y)
            assert got == wedge_by_scalars(pair, x, y)
            self.assert_fraction_coefficients(got)
            nonzero += not got.is_zero()
        assert nonzero

    def test_large_coefficients_stay_exact(self):
        pair = cartan(2)
        big = Fraction(2**70 + 3, 11)
        x = Multivector.monomial(pair, (1,), Scalar(2, {(0, 0): big, (1, 0): Fraction(1, 3)}))
        b = Multivector.from_scalar(pair, Scalar(2, {(2, 1): Fraction(2, 7)}))
        y = b + Multivector.monomial(pair, (2,), Scalar(2, {(1, 1): big}))
        assert wedge(pair, x, y) == wedge_by_scalars(pair, x, y)
        # [a d1, b] = a d_1(b) = (big + x1/3) * 4/7 x1 x2.
        expected = Multivector.from_scalar(
            pair, Scalar(2, {(1, 1): Fraction(4, 7) * big, (2, 1): Fraction(4, 21)})
        )
        assert sn_antisym(pair, x, b) == expected

    def test_table_entries_are_ints_unless_fractional(self):
        # Every entry is an int over the pair's bracket_denominator, fractional structure constants included.
        pairs = (sl2(), cartan(2), load_pair(FRACTIONAL_HEISENBERG), load_pair(FRACTIONAL_SOLVABLE))
        for pair in pairs:
            for mx, my in itertools.product(basis_monomials(pair), repeat=2):
                sn_antisym(pair, Multivector.monomial(pair, mx), Multivector.monomial(pair, my))
            qs = [row[-1] for entry in pair.monomial_brackets.values() for part in entry for row in part]
            assert qs
            assert all(type(q) is int for q in qs)
        assert [pair.bracket_denominator for pair in pairs] == [1, 1, 3, 6]
        fractional = pairs[2]
        e1, e2 = Multivector.monomial(fractional, (1,)), Multivector.monomial(fractional, (2,))
        assert sn_antisym(fractional, e1, e2) == Multivector.monomial(fractional, (3,), Fraction(2, 3))


class TestGradingHomogeneity:
    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(3)])
    def test_tensor_degree_drops_by_one(self, factory):
        pair = factory()
        rng = sampling.rng_for(73)
        seen_nonzero = 0
        for _ in range(200):
            dx = rng.randint(0, min(3, pair.dim))
            dy = rng.randint(0, min(3, pair.dim))
            x = sampling.random_homogeneous(pair, rng, dx)
            y = sampling.random_homogeneous(pair, rng, dy)
            result = sn_antisym(pair, x, y)
            if result.is_zero():
                continue
            seen_nonzero += 1
            assert tensor_degree(result) == dx + dy - 1
            # Antisymmetric degrees add: (d-1) = (dx-1) + (dy-1).
            assert tensor_degree(result) - 1 == (dx - 1) + (dy - 1)
        assert seen_nonzero > 20


class TestSymBracket:
    def test_sl2_vectors(self):
        pair = sl2()
        e = Multivector.monomial(pair, (1,))
        f = Multivector.monomial(pair, (2,))
        h = Multivector.monomial(pair, (3,))
        assert sn_sym(pair, e, f) == h

    def test_scalar_vector_both_orders(self):
        pair = cartan(2)
        a = Multivector.from_scalar(pair, pair.scalar_variable(1))
        d1 = Multivector.monomial(pair, (1,))
        expected = Multivector.from_scalar(pair, pair.scalar_one())  # D_{d1}(x1) = 1
        assert sn_sym(pair, a, d1) == expected
        assert sn_sym(pair, d1, a) == expected

    def test_square_of_vector(self):
        pair = cartan(2)
        d1 = Multivector.monomial(pair, (1,))
        assert sn_sym(pair, d1, d1).is_zero()

    def test_graded_symmetry_tensor_grading(self):
        pair = cartan(2)
        rng = sampling.rng_for(79)
        for _ in range(200):
            x = sampling.random_homogeneous(pair, rng, rng.randint(0, 2))
            y = sampling.random_homogeneous(pair, rng, rng.randint(0, 2))
            sign = parity_sign(tensor_degree(x) * tensor_degree(y))
            assert sn_sym(pair, x, y) == sn_sym(pair, y, x).scaled(sign)

    @pytest.mark.parametrize(
        "factory", [sl2, lambda: cartan(2), lambda: cartan(3)], ids=["sl2", "cartan2", "cartan3"]
    )
    def test_equals_component_sum_on_inhomogeneous_and_zero(self, factory):
        pair = factory()
        rng = sampling.rng_for(89)
        zero = Multivector.zero(pair)
        for _ in range(60):
            x = sampling.random_multivector(pair, rng, max_degree=min(3, pair.dim))
            y = sampling.random_multivector(pair, rng, max_degree=min(3, pair.dim))
            for left in (x, zero):
                assert sn_sym(pair, left, y) == sym_by_components(pair, left, y, sn_antisym)
            assert sn_sym(pair, y, zero).is_zero()

    def test_zero_first_argument_makes_no_antisym_call(self, monkeypatch):
        pair = cartan(2)
        calls = []
        original = schouten.sn_antisym

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(schouten, "sn_antisym", counted)
        y = Multivector.monomial(pair, (1, 2), pair.scalar_variable(1))
        assert sn_sym(pair, Multivector.zero(pair), y).is_zero()
        assert calls == []
        assert sn_sym(pair, y, y) == sym_by_components(pair, y, y, original)
        assert len(calls) == 1

    def test_graded_antisymmetry_antisym_grading(self):
        pair = cartan(2)
        rng = sampling.rng_for(83)
        for _ in range(200):
            x = sampling.random_homogeneous(pair, rng, rng.randint(0, 2))
            y = sampling.random_homogeneous(pair, rng, rng.randint(0, 2))
            sign = parity_sign((tensor_degree(x) - 1) * (tensor_degree(y) - 1))
            assert sn_antisym(pair, x, y) == sn_antisym(pair, y, x).scaled(-sign)


class TestIdentityChecks:
    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    def test_antisym_jacobi(self, factory):
        assert all(r.passed for r in run_suite("jacobi-antisym", factory(), trials=100, seed=7))

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    def test_poisson(self, factory):
        assert all(r.passed for r in run_suite("poisson", factory(), trials=100, seed=11))

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2), lambda: abelian(3)])
    def test_sym_jacobi(self, factory):
        assert all(r.passed for r in run_suite("jacobi-sym", factory(), trials=100, seed=13))

    def test_abelian_trivial_pair_identically_zero(self):
        pair = abelian(3)
        rng = sampling.rng_for(89)
        for _ in range(50):
            x = sampling.random_multivector(pair, rng)
            y = sampling.random_multivector(pair, rng)
            assert sn_antisym(pair, x, y).is_zero()

    def test_corrupted_table_detected(self):
        assert not any(r.passed for r in run_suite("jacobi-antisym", perturbed_sl2(), trials=100, seed=5))


class TestResidualsOnEveryBasisTriple:
    """On a trivial-scalar pair each residual is Q-trilinear in homogeneous
    arguments, so zero on every ordered triple of basis monomials proves the
    law for that pair."""

    RESIDUALS = {
        "jacobi-antisym": antisym_jacobi_residual,
        "jacobi-sym": lambda pair, *xyz: weak_jacobi_residual(pair, 2, 2, xyz),
        "poisson": poisson_residual,
    }

    def failing_triples(self, pair):
        basis = [Multivector.monomial(pair, mono) for mono in basis_monomials(pair)]
        triples = list(itertools.product(basis, repeat=3))
        counts = {
            name: sum(not residual(pair, *triple).is_zero() for triple in triples)
            for name, residual in self.RESIDUALS.items()
        }
        return len(triples), counts

    @pytest.mark.parametrize("factory, triples", [(sl2, 512), (gl2, 4096), (solvable4, 4096)])
    def test_every_law_holds(self, factory, triples):
        assert self.failing_triples(factory()) == (triples, {name: 0 for name in self.RESIDUALS})

    def test_a_jacobi_defect_fails_the_jacobi_laws_only(self):
        # Poisson does not use Jacobi, as in test_cli's
        # test_which_suites_detect_a_jacobi_defect.
        counts = {"jacobi-antisym": 51, "jacobi-sym": 51, "poisson": 0}
        assert self.failing_triples(perturbed_sl2()) == (512, counts)


def respects_bracket(m, *, trials, seed):
    """Whether ``morphism_sn_residual`` vanishes on ``trials`` seeded homogeneous pairs."""
    rng = sampling.rng_for(seed)
    top = min(3, m.source.dim)
    for _ in range(trials):
        x, y = (sampling.random_homogeneous(m.source, rng, rng.randint(0, top)) for _ in range(2))
        if not morphism_sn_residual(m, x, y).is_zero():
            return False
    return True


class TestMorphismRespectsBracket:
    def test_identity(self):
        m = PairMorphism.identity(cartan(2))
        check_pair_morphism(m)
        assert respects_bracket(m, trials=60, seed=17)

    def test_sl2_to_gl2(self):
        assert respects_bracket(sl2_to_gl2(), trials=60, seed=19)

    def test_corrupted_vector_map_detected(self):
        m = sl2_to_gl2()
        # Perturb one generator image after validation.
        broken = list(m.vector_images)
        broken[0] = broken[0] + Vector({1: m.target.scalar_one()})
        m.vector_images = tuple(broken)
        assert not respects_bracket(m, trials=60, seed=23)


class TestDecalage:
    def test_vectors_agree_with_lie_bracket(self):
        pair = sl2()
        e = Multivector.monomial(pair, (1,))
        f = Multivector.monomial(pair, (2,))
        assert sn_sym(pair, e, f) == sn_antisym(pair, e, f)
        assert decalage_relation(pair, e, f).passed

    def test_scalar_vector(self):
        pair = cartan(1)
        a = Multivector.from_scalar(pair, pair.scalar_variable(1))
        d1 = Multivector.monomial(pair, (1,))
        assert decalage_relation(pair, a, d1).passed
        assert decalage_relation(pair, d1, a).passed

    def test_bivectors_cartan3(self):
        pair = cartan(3)
        rng = sampling.rng_for(97)
        for _ in range(40):
            x = sampling.random_homogeneous(pair, rng, 2)
            y = sampling.random_homogeneous(pair, rng, 2)
            assert decalage_relation(pair, x, y).passed

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    def test_random_homogeneous(self, factory):
        pair = factory()
        rng = sampling.rng_for(101)
        top = min(3, pair.dim)
        for _ in range(100):
            x = sampling.random_homogeneous(pair, rng, rng.randint(0, top))
            y = sampling.random_homogeneous(pair, rng, rng.randint(0, top))
            assert decalage_relation(pair, x, y).passed

    def test_rejects_inhomogeneous(self):
        pair = cartan(2)
        mixed = Multivector.monomial(pair, (1,)) + Multivector.from_scalar(pair, pair.scalar_one())
        with pytest.raises(ValueError):
            decalage_relation(pair, mixed, mixed)
