"""Multivector normal form, wedge product, gradings and morphism prolongation."""

import itertools
from fractions import Fraction

import pytest

from schoutencalc import exterior, sampling, schouten
from schoutencalc.errors import DegreeUndefinedError, MorphismValidationError
from schoutencalc.exterior import (
    INHOMOGENEOUS,
    Multivector,
    associated_exterior_morphism,
    embed,
    tensor_degree,
    wedge,
)
from schoutencalc.instances import abelian, cartan, gl2, sl2
from schoutencalc.pairs import GradedPairElement, PairMorphism, Vector, check_pair_morphism, load_pair
from schoutencalc.scalars import Scalar
from schoutencalc.schouten import check_antisym_jacobi, sn_antisym

from fixtures import scaling_morphism, sl2_to_gl2
from oracles import _accumulate, merge_by_swaps, sn_antisym_poisson, wedge_by_scalars
from test_schouten import CLEARED_COEFFS, FRACTIONAL_HEISENBERG


class TestNormalForm:
    def test_zero_coefficients_dropped(self):
        pair = sl2()
        mv = Multivector(pair, {(1,): pair.scalar_zero()})
        assert mv.is_zero()

    def test_monomials_must_increase(self):
        pair = sl2()
        with pytest.raises(ValueError):
            Multivector(pair, {(2, 1): pair.scalar_one()})
        with pytest.raises(ValueError):
            Multivector(pair, {(1, 1): pair.scalar_one()})


    def test_non_integral_indices_are_refused_not_truncated(self):
        pair = sl2()
        for mono in ((1.7,), (1.0,), (1, 2.0), ("1",)):
            with pytest.raises(TypeError):
                Multivector(pair, {mono: pair.scalar_one()})
            with pytest.raises(TypeError):
                Multivector.monomial(pair, mono)
        assert Multivector(pair, {(1, 3): pair.scalar_one()}) == Multivector.monomial(pair, (1, 3))

    def test_coefficients_must_be_scalars(self):
        pair = sl2()
        for coeff in (2, Fraction(1, 2), pair.generator(1)):
            with pytest.raises(TypeError, match="multivector coefficients must be Scalar values"):
                Multivector(pair, {(1,): coeff})

    def test_range_and_order_messages(self):
        pair = sl2()
        for mono in ((0,), (4,), (1, 4), (0, 1)):
            with pytest.raises(ValueError, match=r"has indices outside 1\.\.3"):
                Multivector(pair, {mono: pair.scalar_one()})
        for mono in ((2, 1), (1, 1), (1, 3, 2)):
            with pytest.raises(ValueError, match="is not strictly increasing"):
                Multivector(pair, {mono: pair.scalar_one()})


class TestWedge:
    def test_merge_memo_equals_the_sort_on_every_monomial_pair(self):
        # Every pair of monomials of up to five generators, asked twice: after
        # the first call the memo holds the result, and the second reads it.
        monomials = [m for k in range(6) for m in itertools.combinations(range(1, 6), k)]
        disjoint = 0
        for left, right in itertools.product(monomials, repeat=2):
            expected = merge_by_swaps(left, right)
            assert exterior._merge_monomials(left, right) == expected
            assert exterior._MERGES[left, right] == expected
            assert exterior._merge_monomials(left, right) == expected
            disjoint += expected is not None
        # Each generator lies in the left monomial, the right one or neither.
        assert disjoint == 3**5

    def test_repeated_factor_vanishes(self):
        pair = cartan(2)
        d1 = Multivector.monomial(pair, (1,))
        assert wedge(pair, d1, d1).is_zero()

    def test_transposition_sign(self):
        pair = cartan(2)
        d1 = Multivector.monomial(pair, (1,))
        d2 = Multivector.monomial(pair, (2,))
        assert wedge(pair, d2, d1) == -wedge(pair, d1, d2)

    def test_coefficients_multiply(self):
        pair = cartan(2)
        x1d1 = Multivector.monomial(pair, (1,), pair.scalar_variable(1))
        x2d2 = Multivector.monomial(pair, (2,), pair.scalar_variable(2))
        product = wedge(pair, x1d1, x2d2)
        expected = Multivector.monomial(
            pair, (1, 2), pair.scalar_variable(1) * pair.scalar_variable(2)
        )
        assert product == expected

    def test_graded_symmetry_tensor_grading(self):
        pair = gl2()
        rng = sampling.rng_for(31)
        for _ in range(200):
            x = sampling.random_homogeneous(pair, rng, rng.randint(0, 3))
            y = sampling.random_homogeneous(pair, rng, rng.randint(0, 3))
            sign = (-1) ** (tensor_degree(x) * tensor_degree(y))
            assert wedge(pair, x, y) == wedge(pair, y, x).scaled(sign)

    def test_associativity_and_unit(self):
        pair = gl2()
        rng = sampling.rng_for(37)
        one = Multivector.from_scalar(pair, pair.scalar_one())
        for _ in range(100):
            x = sampling.random_multivector(pair, rng, max_degree=2)
            y = sampling.random_multivector(pair, rng, max_degree=2)
            z = sampling.random_multivector(pair, rng, max_degree=2)
            assert wedge(pair, wedge(pair, x, y), z) == wedge(pair, x, wedge(pair, y, z))
            assert wedge(pair, one, x) == x == wedge(pair, x, one)

    def test_a_bilinearity(self):
        pair = cartan(2)
        rng = sampling.rng_for(41)
        for _ in range(100):
            a = sampling.random_scalar(pair, rng)
            x = sampling.random_multivector(pair, rng)
            y = sampling.random_multivector(pair, rng)
            assert wedge(pair, x.scaled(a), y) == wedge(pair, x, y).scaled(a)
            assert wedge(pair, x, y.scaled(a)) == wedge(pair, x, y).scaled(a)

    def test_construction_order_canonicity(self):
        pair = gl2()
        rng = sampling.rng_for(43)
        factors = [Multivector.monomial(pair, (i,)) for i in (1, 2, 3, 4)]
        reference = factors[0]
        for f in factors[1:]:
            reference = wedge(pair, reference, f)
        for images in itertools.permutations(range(4)):
            built = factors[images[0]]
            for k in images[1:]:
                built = wedge(pair, built, factors[k])
            # Permutation parity of the build order only flips the sign.
            inversions = sum(
                1 for i in range(4) for j in range(i + 1, 4) if images[i] > images[j]
            )
            expected = reference if inversions % 2 == 0 else -reference
            assert built == expected
            assert built.terms.keys() == expected.terms.keys()


class TestScaled:
    def test_unit_factors_negate_or_keep(self):
        pair = cartan(2)
        rng = sampling.rng_for(47)
        x = sampling.random_multivector(pair, rng, max_degree=2)
        for one in (1, Fraction(1)):
            assert x.scaled(one) is x
        for minus_one in (-1, Fraction(-1)):
            assert x.scaled(minus_one) == -x
        assert x.scaled(pair.scalar_one()) == x
        assert x.scaled(-pair.scalar_one()) == -x
        assert x.scaled(0).is_zero()


def fraction_view_built(x):
    """Whether ``x``'s ``Fraction`` view is built, asked without building it."""
    return x._terms is not None


def scalar_copy(x):
    """``x`` rebuilt by the public constructor from its ``Fraction`` view."""
    return Multivector(x.pair, x.terms)


def scalar_sum(pair, *signed):
    """``sum sign * x`` over ``(sign, x)`` pairs, added in ``Scalar`` arithmetic by the oracles' reference sum."""
    out = {}
    for sign, x in signed:
        _accumulate(out, x, sign)
    return Multivector(pair, out)


class TestIntegerForm:
    """Every value holds its int form ``(D, rows)``.  Kernel results, and what
    ``+``, ``-``, negation and ``scaled`` make of them, hold nothing else
    until ``terms`` is read, and must agree with the same operations done in
    ``Scalar`` arithmetic."""

    FACTORIES = [
        lambda: cartan(1),
        lambda: cartan(2),
        lambda: cartan(3),
        sl2,
        lambda: load_pair(FRACTIONAL_HEISENBERG),
    ]
    IDS = ["cartan1", "cartan2", "cartan3", "sl2", "heisenberg-2/3"]
    FACTORS = (0, 1, -1, 6, -15, Fraction(1), Fraction(-7, 10), Fraction(9, 4))

    @staticmethod
    def argument(pair, rng):
        """Inhomogeneous, with coefficients of coprime denominators."""
        terms = {}
        for degree in range(min(3, pair.dim) + 1):
            mono = tuple(sorted(rng.sample(range(1, pair.dim + 1), degree)))
            exps = [tuple(rng.randint(0, 2) for _ in range(pair.nvars)) for _ in range(2 if pair.nvars else 1)]
            terms[mono] = Scalar(pair.nvars, {e: rng.choice(CLEARED_COEFFS) for e in exps})
        return Multivector(pair, terms)

    @staticmethod
    def assert_int_form(x):
        d, rows = x._form
        assert type(d) is int and d > 0
        assert not fraction_view_built(x)
        assert all(type(n) is int and n for _, row in rows for _, n in row)

    def kernel_results(self, pair, seed, count=15):
        """``(result, oracle value, constructed argument)`` for ``wedge`` and ``sn_antisym``."""
        rng = sampling.rng_for(seed)
        out = []
        for _ in range(count):
            x, y, z = (self.argument(pair, rng) for _ in range(3))
            out.append((wedge(pair, x, y), wedge_by_scalars(pair, x, y), z))
            out.append((sn_antisym(pair, x, y), sn_antisym_poisson(pair, x, y), z))
        return out

    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_kernel_results_hold_only_the_int_form(self, factory):
        pair = factory()
        for got, expected, _ in self.kernel_results(pair, 211):
            self.assert_int_form(got)
            form = got._form
            assert got.is_zero() == expected.is_zero()
            assert not fraction_view_built(got)
            assert got == expected
            terms = got.terms
            assert got.terms is terms
            assert got._form is form

    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_sums_and_negation_on_mixed_operands(self, factory):
        pair = factory()
        results = self.kernel_results(pair, 223)
        for (got, expected, z), (other, other_expected, _) in zip(results, results[1:] + results[:1]):
            cases = [
                (lambda: got + scalar_copy(z), [(1, expected), (1, z)]),
                (lambda: scalar_copy(z) + got, [(1, z), (1, expected)]),
                (lambda: got - scalar_copy(z), [(1, expected), (-1, z)]),
                (lambda: scalar_copy(z) - got, [(1, z), (-1, expected)]),
                (lambda: got + other, [(1, expected), (1, other_expected)]),
                (lambda: got - other, [(1, expected), (-1, other_expected)]),
                (lambda: -got, [(-1, expected)]),
            ]
            for compute, signed in cases:
                want = scalar_sum(pair, *signed)
                value = compute()
                self.assert_int_form(value)
                assert value.is_zero() == want.is_zero()
                assert value == want
            for zero in (got - scalar_copy(expected), got + (-got), -got + got, scalar_copy(expected) - got):
                self.assert_int_form(zero)
                assert zero.is_zero()
                assert zero._form[1] == []

    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_a_zero_operand_leaves_the_other_form(self, factory):
        # No int sum is made, yet the sum is a new value with no Fraction view.
        pair = factory()
        zero = Multivector.zero(pair)
        for got, _, z in self.kernel_results(pair, 227, count=4):
            for x in (got, z):
                if x.is_zero():
                    continue
                for value in (zero + x, x + zero, x - zero):
                    assert value is not x
                    assert value._form is x._form
                    self.assert_int_form(value)
                    assert value == x
                assert zero - x == -x

    @pytest.mark.parametrize("factory", FACTORIES, ids=IDS)
    def test_scaled_by_rationals(self, factory):
        pair = factory()
        for got, expected, _ in self.kernel_results(pair, 227, count=8):
            for factor in self.FACTORS:
                value = got.scaled(factor)
                want = Multivector(pair, {m: c * factor for m, c in expected.terms.items()})
                if value is not got:
                    self.assert_int_form(value)
                assert value.is_zero() == want.is_zero() == (not factor or expected.is_zero())
                assert value == want
            assert got.scaled(1) is got

    def test_jacobi_residual_clears_each_argument_once(self, monkeypatch):
        # Only the public constructors and embed clear a map into its int
        # form; kernels, sums and scaling build on int forms, so a residual
        # clears nothing.
        pair = cartan(3)
        cleared = []
        original = exterior._clear

        def counted(terms):
            cleared.append(dict(terms))
            return original(terms)

        monkeypatch.setattr(exterior, "_clear", counted)
        triple = next(schouten._sample_triples(pair, 1, 7))
        sampled = len(cleared)
        assert sampled >= 3
        assert all(not v.is_zero() for v in triple)
        assert check_antisym_jacobi(pair, trials=1, seed=7).passed
        # The check draws the same triple, clearing the same maps, and clears nothing more.
        assert cleared[sampled:] == cleared[:sampled]


class TestImmutable:
    """``terms`` is a read-only view: assigning it would leave ``str`` and
    ``is_zero`` reading different values."""

    def test_terms_cannot_be_assigned(self):
        pair = cartan(2)
        x = Multivector.monomial(pair, (1,), pair.scalar_variable(2))
        e2 = Multivector.monomial(pair, (2,))
        values = [x, wedge(pair, x, e2), sn_antisym(pair, x, e2), Multivector.zero(pair)]
        for value in values:
            before = (str(value), value.is_zero())
            with pytest.raises(AttributeError):
                value.terms = {}
            with pytest.raises(AttributeError):
                value.terms = {(1, 2): pair.scalar_one()}
            assert (str(value), value.is_zero()) == before

    def test_view_cannot_be_changed_in_place(self):
        # A dict view could be cleared: str(x) would read '0' while is_zero() stays False.
        # A mappingproxy has no clear() at all, and refuses item assignment and deletion.
        pair = cartan(2)
        e1, e2 = Multivector.monomial(pair, (1,)), Multivector.monomial(pair, (2,))
        u = GradedPairElement(pair.scalar_variable(1), Vector({2: pair.scalar_one()}))
        values = [
            Multivector.monomial(pair, (1,), pair.scalar_variable(2)),
            embed(pair, u),
            wedge(pair, e1, e2),
            sn_antisym(pair, Multivector.monomial(pair, (1,), pair.scalar_variable(2)), e2),
            Multivector.zero(pair),
        ]
        for value in values:
            before = (str(value), value.is_zero())
            with pytest.raises(AttributeError):
                value.terms.clear()
            with pytest.raises(TypeError):
                value.terms[(1, 2)] = pair.scalar_one()
            with pytest.raises(TypeError):
                del value.terms[(1,)]
            assert (str(value), value.is_zero()) == before


class TestDegrees:
    def setup_method(self):
        self.pair = cartan(3)

    def test_scalar_degrees(self):
        a = Multivector.from_scalar(self.pair, self.pair.scalar_const(5))
        assert tensor_degree(a) == 0

    def test_monomial_degrees(self):
        mv = Multivector.monomial(self.pair, (1, 2))
        assert tensor_degree(mv) == 2

    def test_vector_degree(self):
        v = Multivector.monomial(self.pair, (1,))
        assert tensor_degree(v) == 1

    def test_inhomogeneous(self):
        mixed = Multivector.monomial(self.pair, (1,)) + Multivector.monomial(self.pair, (1, 2))
        assert tensor_degree(mixed) == INHOMOGENEOUS

    def test_zero_raises(self):
        with pytest.raises(DegreeUndefinedError):
            tensor_degree(Multivector.zero(self.pair))


class TestEmbed:
    def test_unit(self):
        pair = sl2()
        u = GradedPairElement(pair.scalar_one(), Vector.zero())
        assert embed(pair, u) == Multivector.from_scalar(pair, pair.scalar_one())

    def test_vector(self):
        pair = cartan(2)
        u = GradedPairElement(pair.scalar_zero(), pair.generator(1))
        assert embed(pair, u) == Multivector.monomial(pair, (1,))

    def test_mixed(self):
        pair = cartan(2)
        u = GradedPairElement(
            pair.scalar_const(3), pair.generator(2).scaled(pair.scalar_const(2))
        )
        expected = Multivector.from_scalar(pair, pair.scalar_const(3)) + Multivector.monomial(
            pair, (2,), pair.scalar_const(2)
        )
        assert embed(pair, u) == expected


class TestAssociatedMorphism:
    def test_requires_validation(self):
        m = sl2_to_gl2(validate=False)
        with pytest.raises(MorphismValidationError):
            associated_exterior_morphism(m, Multivector.from_scalar(m.source, m.source.scalar_one()))

    def test_identity(self):
        pair = cartan(2)
        m = PairMorphism.identity(pair)
        check_pair_morphism(m)
        rng = sampling.rng_for(47)
        for _ in range(50):
            x = sampling.random_multivector(pair, rng)
            assert associated_exterior_morphism(m, x) == x

    def test_scaling_on_abelian(self):
        pair = abelian(3)
        m = scaling_morphism(pair, 2)
        assert check_pair_morphism(m, trials=20, seed=7).passed
        for length in (0, 1, 2, 3):
            mono = Multivector.monomial(pair, tuple(range(1, length + 1)))
            image = associated_exterior_morphism(m, mono)
            assert image == mono.scaled(Fraction(2**length))

    def test_sl2_to_gl2_wedge_factorwise(self):
        m = sl2_to_gl2()
        e_wedge_f = Multivector.monomial(m.source, (1, 2))
        image = associated_exterior_morphism(m, e_wedge_f)
        # Oracle: wedge the generator images in the target algebra.
        e_img = Multivector.from_vector(m.target, m.apply_vector(m.source.generator(1)))
        f_img = Multivector.from_vector(m.target, m.apply_vector(m.source.generator(2)))
        assert image == wedge(m.target, e_img, f_img)

    def test_multiplicative_for_wedge(self):
        m = sl2_to_gl2()
        rng = sampling.rng_for(53)
        for _ in range(100):
            x = sampling.random_multivector(m.source, rng, max_degree=2)
            y = sampling.random_multivector(m.source, rng, max_degree=2)
            lhs = associated_exterior_morphism(m, wedge(m.source, x, y))
            rhs = wedge(
                m.target,
                associated_exterior_morphism(m, x),
                associated_exterior_morphism(m, y),
            )
            assert lhs == rhs

    def test_functorial_under_composition(self):
        m = sl2_to_gl2()
        post = PairMorphism.identity(m.target)
        check_pair_morphism(post)
        rng = sampling.rng_for(59)
        for _ in range(50):
            x = sampling.random_multivector(m.source, rng, max_degree=2)
            once = associated_exterior_morphism(m, x)
            assert associated_exterior_morphism(post, once) == once


class TestRendering:
    def test_spec_format(self):
        pair = cartan(3)
        x1 = pair.scalar_variable(1)
        x2 = pair.scalar_variable(2)
        mv = Multivector.monomial(pair, (1, 3), x1) + Multivector.monomial(pair, (2, 3), -x2)
        assert str(mv) == "x1*d1^d3 - x2*d2^d3"

    def test_scalar_first_then_length_then_lex(self):
        pair = sl2()
        mv = (
            Multivector.monomial(pair, (1, 2))
            + Multivector.monomial(pair, (3,))
            + Multivector.from_scalar(pair, pair.scalar_const(Fraction(1, 2)))
        )
        assert str(mv) == "1/2 + e3 + e1^e2"

    def test_unit_coefficient_omitted(self):
        pair = cartan(2)
        assert str(Multivector.monomial(pair, (1, 2))) == "d1^d2"
        assert str(-Multivector.monomial(pair, (1,))) == "-d1"

    def test_parenthesized_polynomial_coefficient(self):
        pair = cartan(2)
        coeff = pair.scalar_variable(1) + pair.scalar_const(2)
        assert str(Multivector.monomial(pair, (1,), coeff)) == "(x1 + 2)*d1"

    def test_zero(self):
        assert str(Multivector.zero(sl2())) == "0"
