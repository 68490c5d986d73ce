"""Expression parsing, evaluation and the render/parse round trip."""

import pytest

from schoutencalc import sampling
from schoutencalc.errors import ParseError, UnsupportedPairError
from schoutencalc.expr import evaluate
from schoutencalc.exterior import Multivector
from schoutencalc.instances import cartan, sl2
from schoutencalc.linfty import n_bracket
from schoutencalc.schouten import sn_antisym


class TestParsing:
    def test_bracket_node(self):
        pair = cartan(1)
        assert evaluate("[d1, x1^2]", pair) == sn_antisym(
            pair,
            Multivector.monomial(pair, (1,)),
            Multivector.from_scalar(pair, pair.scalar_variable(1) ** 2),
        )

    def test_n_bracket_node(self):
        pair = cartan(3)
        expected = n_bracket(
            pair,
            [
                Multivector.monomial(pair, (1,)),
                Multivector.monomial(pair, (2,)),
                Multivector.monomial(
                    pair, (3,), pair.scalar_variable(1) * pair.scalar_variable(2)
                ),
            ],
        )
        assert evaluate("{d1, d2, x1*x2*d3}_3", pair) == expected

    def test_missing_comma_reports_position(self):
        pair = cartan(2)
        with pytest.raises(ParseError) as excinfo:
            evaluate("[d1 d2]", pair)
        assert excinfo.value.position == 4

    def test_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown"):
            evaluate("q7", cartan(2))
        with pytest.raises(ParseError, match="unknown generator"):
            evaluate("d3", cartan(2))
        with pytest.raises(ParseError, match="unknown symbol"):
            evaluate("d1", sl2())  # lie_algebra pairs use e-names

    def test_variables_only_on_polynomial_pairs(self):
        with pytest.raises(ParseError, match="polynomial"):
            evaluate("x1", sl2())

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity"):
            evaluate("{d1, d2}_3", cartan(2))
        with pytest.raises(ParseError, match="arity suffix"):
            evaluate("{d1, d2, d1}", cartan(2))
        with pytest.raises(ParseError, match="i_3"):
            evaluate("i_3(d1, d2)", cartan(2))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            evaluate("d1 + d2 )", cartan(2))


class TestEvaluation:
    def test_spec_bivector_scalar(self):
        # Both bracket routes give -d2 with the antisymmetric scalar extension.
        pair = cartan(2)
        assert str(evaluate("[d1^d2, x1]", pair)) == "-d2"

    def test_spec_three_bracket(self):
        pair = cartan(3)
        assert str(evaluate("{d1, d2, x1*x2*d3}_3", pair)) == "x1*d1^d3 - x2*d2^d3"

    def test_spec_injection(self):
        pair = cartan(2)
        assert str(evaluate("i_2(d1, d2)", pair)) == "d1^d2"

    def test_rationals_and_precedence(self):
        pair = cartan(2)
        assert str(evaluate("1/2 * d1 + 1/2 * d1", pair)) == "d1"
        assert str(evaluate("-d1 ^ d2", pair)) == "-d1^d2"
        assert evaluate("2 * 3", pair) == Multivector.from_scalar(pair, pair.scalar_const(6))

    def test_variable_power(self):
        pair = cartan(1)
        assert evaluate("x1^2", pair) == Multivector.from_scalar(
            pair, pair.scalar_variable(1) ** 2
        )
        # A variable wedged with a non-literal stays a wedge (scalar product).
        assert evaluate("x1^d1", pair) == Multivector.monomial(pair, (1,), pair.scalar_variable(1))

    def test_star_requires_scalar_side(self):
        pair = cartan(2)
        with pytest.raises(ValueError, match="scalar"):
            evaluate("d1 * d2", pair)

    def test_differential(self):
        pair = sl2()
        assert str(evaluate("d(e1^e2)", pair)) == "e3"
        with pytest.raises(UnsupportedPairError):
            evaluate("d(d1)", cartan(1))

    def test_symmetric_bracket(self):
        pair = sl2()
        assert str(evaluate("{e1, e2}", pair)) == "e3"
        assert evaluate("{e1, e2}_2", pair) == evaluate("{e1, e2}", pair)

    def test_injection_rejects_higher_degree(self):
        pair = cartan(2)
        with pytest.raises(ValueError, match="degree"):
            evaluate("i_1(d1^d2)", pair)


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2), lambda: cartan(3)])
    def test_render_parse_fixed_point(self, factory):
        pair = factory()
        rng = sampling.rng_for(167)
        for _ in range(150):
            mv = sampling.random_multivector(pair, rng, max_degree=min(3, pair.dim))
            assert evaluate(str(mv), pair) == mv

    def test_zero_round_trips(self):
        pair = sl2()
        assert evaluate("0", pair).is_zero()
