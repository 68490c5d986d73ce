"""Every arithmetic result is in normal form.

Internal arithmetic builds its values without re-validation, so each
operation must keep the normal form itself: exponent tuples of the right
length, nonzero ``Fraction`` coefficients, strictly increasing monomials and
nonzero ``Scalar`` coefficients.  A value in normal form equals its
re-validated copy, which drops any stored zero.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schoutencalc.exterior import Multivector, wedge
from schoutencalc.instances import builtin_pair
from schoutencalc.pairs import Vector
from schoutencalc.scalars import Scalar
from schoutencalc.schouten import sn_antisym

# Pairs are built per example, so a broken sum fails a test rather than the
# import of this module (pair validation does arithmetic too).
PAIRS = st.sampled_from(["cartan2", "gl2"]).map(builtin_pair)

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
factors = st.one_of(st.integers(min_value=-2, max_value=2), fractions)


def assert_normal_scalar(a: Scalar) -> None:
    assert a == Scalar(a.nvars, a.terms)
    for exps, coeff in a.terms.items():
        assert type(exps) is tuple and len(exps) == a.nvars
        assert type(coeff) is Fraction and coeff != 0


def assert_normal_multivector(m: Multivector) -> None:
    assert m == Multivector(m.pair, m.terms)
    for mono, coeff in m.terms.items():
        assert type(mono) is tuple
        assert not coeff.is_zero()
        assert_normal_scalar(coeff)


@st.composite
def scalars(draw, nvars=2):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        exps = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(nvars))
        terms[exps] = draw(fractions)
    return Scalar(nvars, terms)


@st.composite
def multivectors(draw, pair):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        gens = draw(st.sets(st.integers(min_value=1, max_value=pair.dim), max_size=pair.dim))
        terms[tuple(sorted(gens))] = draw(scalars(pair.nvars))
    return Multivector(pair, terms)


@st.composite
def pair_and_multivectors(draw, count):
    pair = draw(PAIRS)
    return pair, [draw(multivectors(pair)) for _ in range(count)]


@st.composite
def multivector_and_scalar(draw):
    pair = draw(PAIRS)
    return draw(multivectors(pair)), draw(scalars(pair.nvars))


class TestScalar:
    @given(scalars(), scalars())
    def test_ring_operations(self, a, b):
        for result in (a + b, a - b, -a, a * b, a + (-a), a - a):
            assert_normal_scalar(result)
        assert (a + (-a)).terms == {}

    @given(scalars(), factors)
    def test_rational_factor(self, a, q):
        assert_normal_scalar(a * q)
        assert_normal_scalar(q * a)

    def test_zero_factor(self):
        a = Scalar.variable(1, 2)
        for q in (0, Fraction(0)):
            assert (a * q).terms == {}

    @pytest.mark.parametrize("nvars", [0, 1, 3])
    def test_zero(self, nvars):
        assert_normal_scalar(Scalar.zero(nvars))
        assert Scalar.zero(nvars).terms == {}

    def test_zero_refuses_a_negative_variable_count(self):
        with pytest.raises(ValueError):
            Scalar.zero(-1)

    @given(scalars(), st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=3))
    def test_derivative_and_power(self, a, index, k):
        assert_normal_scalar(a.derivative(index))
        assert_normal_scalar(a**k)


class TestVector:
    def test_zero(self):
        zero = Vector.zero()
        assert zero == Vector(zero.terms)
        assert zero.terms == {}


class TestMultivector:
    @pytest.mark.parametrize("name", ["cartan2", "gl2", "sl2"])
    def test_zero(self, name):
        zero = Multivector.zero(builtin_pair(name))
        assert_normal_multivector(zero)
        assert zero.terms == {} and zero.is_zero()

    @given(pair_and_multivectors(2))
    def test_sum_and_negation(self, case):
        _, (x, y) = case
        for result in (x + y, x - y, -x, x + (-x)):
            assert_normal_multivector(result)
        assert (x + (-x)).terms == {}

    @given(multivector_and_scalar(), factors)
    def test_scaled(self, case, q):
        x, a = case
        zeros = (0, Fraction(0), Scalar.zero(x.pair.nvars))
        for factor in (q, a) + zeros:
            assert_normal_multivector(x.scaled(factor))
        for factor in zeros:
            assert x.scaled(factor).terms == {}

    def test_scaled_by_a_foreign_zero_raises(self):
        x = Multivector.monomial(builtin_pair("cartan2"), (1,))
        with pytest.raises(ValueError):
            x.scaled(Scalar.zero(3))

    @given(pair_and_multivectors(2))
    def test_wedge(self, case):
        pair, (x, y) = case
        assert_normal_multivector(wedge(pair, x, y))
        assert_normal_multivector(wedge(pair, x, x))

    def test_wedge_with_repeated_generator(self):
        pair = builtin_pair("cartan2")
        d1 = Multivector.monomial(pair, (1,), Scalar.variable(1, 2))
        d12 = Multivector.monomial(pair, (1, 2))
        assert wedge(pair, d1, d1).terms == {}
        assert wedge(pair, d1, d12).terms == {}
        assert_normal_multivector(wedge(pair, d1 + d12, d1 - d12))

    @given(pair_and_multivectors(2))
    def test_sn_antisym(self, case):
        pair, (x, y) = case
        assert_normal_multivector(sn_antisym(pair, x, y))
        assert_normal_multivector(sn_antisym(pair, x, x))

    @given(pair_and_multivectors(1))
    def test_homogeneous_components(self, case):
        _, (x,) = case
        parts = x.homogeneous_components()
        for degree, part in parts.items():
            assert_normal_multivector(part)
            assert {len(mono) for mono in part.terms} == {degree}
        total = Multivector.zero(x.pair)
        for part in parts.values():
            total = total + part
        assert total == x
