"""Rational and sparse-polynomial coefficient arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schoutencalc.scalars import Scalar, parse_fraction

fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def polynomials(draw, nvars=2, max_degree=3, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_degree)) for _ in range(nvars)
        )
        terms[exps] = draw(fractions)
    return Scalar(nvars, terms)


class TestConstruction:
    def test_zero_is_empty_map(self):
        assert Scalar.zero(2).terms == {}
        assert Scalar(2, {(1, 0): 0}).is_zero()

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            Scalar(2, {(1,): 1})
        with pytest.raises(ValueError):
            Scalar(1, {(-1,): 1})

    def test_non_integral_exponents_are_refused_not_truncated(self):
        for exps in ((1.5,), (1.0,), ("1",)):
            with pytest.raises(TypeError):
                Scalar(1, {exps: 1})
            with pytest.raises(TypeError):
                Scalar.monomial(exps, 1, 1)
        assert Scalar.monomial((2,), Fraction(1, 2), 1) == Scalar(1, {(2,): Fraction(1, 2)})

    def test_coefficients_become_fractions_once(self):
        # A Fraction is kept as given; anything else is converted.
        q = Fraction(3, 7)
        assert Scalar(0, {(): q}).terms[()] is q
        for value in (2, "5/3", 0.5):
            (coeff,) = Scalar.monomial((1,), value, 1).terms.values()
            assert type(coeff) is Fraction and coeff == Fraction(value)

    def test_nvars_zero_is_a_rational(self):
        q = Scalar.const(Fraction(3, 4), 0)
        assert q.is_constant()
        assert q.constant_value() == Fraction(3, 4)

    def test_variable(self):
        x2 = Scalar.variable(2, 3)
        assert x2.terms == {(0, 1, 0): Fraction(1)}
        with pytest.raises(ValueError):
            Scalar.variable(4, 3)
        # 1.5 is in range, but no variable has that index: it was the constant 1.
        for index in (1.5, 2.0):
            with pytest.raises(TypeError):
                Scalar.variable(index, 3)


class TestArithmetic:
    @given(polynomials(), polynomials())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(polynomials(), polynomials(), polynomials())
    def test_multiplication_associates_and_distributes(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polynomials())
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero()

    @given(polynomials())
    def test_unit(self, a):
        assert a * Scalar.one(2) == a

    def test_mismatched_nvars(self):
        with pytest.raises(ValueError):
            Scalar.one(1) + Scalar.one(2)

    def test_power(self):
        x = Scalar.variable(1, 1)
        assert (x + Scalar.one(1)) ** 2 == x * x + 2 * x + Scalar.one(1)

    @given(polynomials(max_degree=2, max_terms=2), st.integers(min_value=0, max_value=6))
    def test_power_is_repeated_multiplication(self, a, k):
        product = Scalar.one(2)
        for _ in range(k):
            product = product * a
        assert a**k == product


class TestDerivative:
    def test_monomial(self):
        x1 = Scalar.variable(1, 2)
        assert (x1 * x1).derivative(1) == 2 * x1
        assert (x1 * x1).derivative(2).is_zero()

    @given(polynomials(), polynomials())
    def test_product_rule(self, a, b):
        lhs = (a * b).derivative(1)
        rhs = a.derivative(1) * b + a * b.derivative(1)
        assert lhs == rhs

    @given(polynomials())
    def test_partials_commute(self, a):
        assert a.derivative(1).derivative(2) == a.derivative(2).derivative(1)


class TestSubstitution:
    def test_identity_substitution(self):
        p = Scalar(2, {(2, 1): Fraction(3), (0, 0): Fraction(-1)})
        images = [Scalar.variable(1, 2), Scalar.variable(2, 2)]
        assert p.substitute(images, 2) == p

    def test_into_fewer_variables(self):
        p = Scalar(2, {(1, 1): Fraction(1)})
        one_var = [Scalar.variable(1, 1), Scalar.variable(1, 1)]
        assert p.substitute(one_var, 1) == Scalar(1, {(2,): Fraction(1)})


class TestRendering:
    def test_rational_strings(self):
        assert str(Scalar.const(Fraction(5, 3), 0)) == "5/3"
        assert str(Scalar.const(-2, 0)) == "-2"
        assert str(Scalar.zero(0)) == "0"

    def test_graded_lex_descending(self):
        p = (
            Scalar.variable(1, 2) * Scalar.variable(1, 2)
            + Scalar.variable(1, 2) * Scalar.variable(2, 2)
            + Scalar.variable(2, 2)
            + Scalar.const(3, 2)
        )
        assert str(p) == "x1^2 + x1*x2 + x2 + 3"

    def test_signs_and_coefficients(self):
        p = Scalar(2, {(1, 0): Fraction(-2), (0, 1): Fraction(1, 2)})
        assert str(p) == "-2*x1 + 1/2*x2"

    def test_signed_render(self):
        single = Scalar(1, {(1,): Fraction(-3)})
        assert single.signed_render() == (-1, "3*x1")
        multi = Scalar(1, {(1,): Fraction(1), (0,): Fraction(2)})
        assert multi.signed_render() == (1, "(x1 + 2)")


class TestParseFraction:
    @pytest.mark.parametrize(
        "text, expected",
        [("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), (" 7/2 ", Fraction(7, 2))],
    )
    def test_values(self, text, expected):
        assert parse_fraction(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fraction("1/2/3")

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_fraction("1/0")
