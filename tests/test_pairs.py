"""Pair instances, the anchor, vector brackets and pair morphisms."""

import dataclasses
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from schoutencalc import sampling
from schoutencalc.errors import PairDocumentError
from schoutencalc.instances import abelian, cartan, gl2, perturbed_sl2, sl2
from schoutencalc.pairs import (
    GradedPairElement,
    LieRinehartPair,
    PairMorphism,
    Vector,
    anchor,
    bracket_vectors,
    check_pair_morphism,
    load_morphism,
    load_pair,
)
from schoutencalc.scalars import Scalar

from fixtures import run_suite, sl2_to_gl2, zero_vector_morphism
from oracles import associated_bracket

def taylor_derivative(pair, index, a):
    """Independent differentiation oracle: the h-linear part of a(x + h e_i).

    Substitutes into one extra variable and extracts the coefficient of h.
    """
    m = pair.nvars
    images = []
    for i in range(1, m + 1):
        img = Scalar.variable(i, m + 1)
        if i == index:
            img = img + Scalar.variable(m + 1, m + 1)
        images.append(img)
    expanded = a.substitute(images, m + 1)
    out = Scalar.zero(m)
    for exps, coeff in expanded.terms.items():
        if exps[-1] == 1:
            out = out + Scalar.monomial(exps[:-1], coeff, m)
    return out


def operator_apply(pair, x, a):
    """First-order differential operator attached to a vector, via the anchor."""
    return anchor(pair, x, a)


class TestAnchor:
    def test_trivial_pair_acts_by_zero(self):
        pair = sl2()
        x = pair.generator(1)
        assert anchor(pair, x, pair.scalar_const(Fraction(5, 2))).is_zero()

    def test_cartan_m1_square(self):
        pair = cartan(1)
        a = pair.scalar_variable(1) ** 2
        result = anchor(pair, pair.generator(1), a)
        assert result == taylor_derivative(pair, 1, a)
        assert result == 2 * pair.scalar_variable(1)

    def test_cartan_m2_coefficiented(self):
        pair = cartan(2)
        x = Vector({2: pair.scalar_variable(1)})  # x1 d2
        a = pair.scalar_variable(2)
        result = anchor(pair, x, a)
        expected = pair.scalar_variable(1) * taylor_derivative(pair, 2, a)
        assert result == expected == pair.scalar_variable(1)

    def test_derivation_rule(self):
        pair = cartan(2)
        rng = sampling.rng_for(21)
        for _ in range(200):
            x = sampling.random_vector(pair, rng)
            a = sampling.random_scalar(pair, rng)
            b = sampling.random_scalar(pair, rng)
            lhs = anchor(pair, x, a * b)
            assert lhs == anchor(pair, x, a) * b + a * anchor(pair, x, b)

    def test_dimension_mismatch(self):
        pair = cartan(2)
        with pytest.raises(ValueError):
            anchor(pair, pair.generator(1), Scalar.one(1))


class TestBracketVectors:
    def test_sl2_table(self):
        pair = sl2()
        e, f, h = (pair.generator(i) for i in (1, 2, 3))
        assert bracket_vectors(pair, e, f) == h
        assert bracket_vectors(pair, h, e) == e.scaled(pair.scalar_const(2))
        assert bracket_vectors(pair, h, f) == f.scaled(pair.scalar_const(-2))

    def test_cartan_leibniz_example(self):
        pair = cartan(1)
        d1 = pair.generator(1)
        x1d1 = Vector({1: pair.scalar_variable(1)})
        assert bracket_vectors(pair, d1, x1d1) == d1

    def test_cartan_commutator_oracle(self):
        # [x1 d2, x2 d1] recovered by applying the commutator to coordinates.
        pair = cartan(2)
        x = Vector({2: pair.scalar_variable(1)})
        y = Vector({1: pair.scalar_variable(2)})
        result = bracket_vectors(pair, x, y)
        for j in (1, 2):
            coordinate = pair.scalar_variable(j)
            commutator = operator_apply(pair, x, operator_apply(pair, y, coordinate))
            commutator = commutator - operator_apply(pair, y, operator_apply(pair, x, coordinate))
            assert operator_apply(pair, result, coordinate) == commutator
        expected = Vector({1: pair.scalar_variable(1), 2: -pair.scalar_variable(2)})
        assert result == expected

    @pytest.mark.parametrize("factory", [sl2, gl2, lambda: cartan(2)])
    def test_antisymmetry_and_jacobi_on_samples(self, factory):
        pair = factory()
        rng = sampling.rng_for(17)
        for _ in range(200):
            x = sampling.random_vector(pair, rng)
            y = sampling.random_vector(pair, rng)
            z = sampling.random_vector(pair, rng)
            assert bracket_vectors(pair, x, y) == -bracket_vectors(pair, y, x)
            jacobi = (
                bracket_vectors(pair, x, bracket_vectors(pair, y, z))
                + bracket_vectors(pair, y, bracket_vectors(pair, z, x))
                + bracket_vectors(pair, z, bracket_vectors(pair, x, y))
            )
            assert jacobi.is_zero()

    def test_anchor_is_lie_morphism(self):
        pair = cartan(2)
        rng = sampling.rng_for(19)
        for _ in range(200):
            x = sampling.random_vector(pair, rng)
            y = sampling.random_vector(pair, rng)
            a = sampling.random_scalar(pair, rng)
            lhs = anchor(pair, bracket_vectors(pair, x, y), a)
            rhs = anchor(pair, x, anchor(pair, y, a)) - anchor(pair, y, anchor(pair, x, a))
            assert lhs == rhs


class TestGradedPairElement:
    def test_fields_cannot_be_assigned(self):
        pair = cartan(2)
        u = GradedPairElement(pair.scalar_variable(1), pair.generator(2))
        for field, value in (("scalar", pair.scalar_one()), ("vector", Vector.zero())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(u, field, value)
        assert u == GradedPairElement(pair.scalar_variable(1), pair.generator(2))


class TestVector:
    def test_non_integral_generators_are_refused_not_truncated(self):
        pair = sl2()
        for gen in (1.9, 1.0, "1"):
            for coeff in (pair.scalar_one(), pair.scalar_zero()):
                with pytest.raises(TypeError):
                    Vector({gen: coeff})
        with pytest.raises(TypeError, match="vector coefficients must be Scalar values"):
            Vector({1: 2})
        assert Vector({1: pair.scalar_one()}) == pair.generator(1)


class TestAssociatedBracket:
    def setup_method(self):
        self.pair = cartan(2)

    def element(self, scalar=None, vector=None):
        return GradedPairElement(
            scalar if scalar is not None else self.pair.scalar_zero(),
            vector if vector is not None else Vector.zero(),
        )

    def test_two_scalars_vanish(self):
        u = self.element(scalar=self.pair.scalar_variable(1))
        v = self.element(scalar=self.pair.scalar_variable(2))
        assert associated_bracket(self.pair, u, v).is_zero()

    def test_mixed_gives_anchor(self):
        a = self.pair.scalar_variable(1) * self.pair.scalar_variable(1)
        u = self.element(scalar=a)
        v = self.element(vector=self.pair.generator(1))
        result = associated_bracket(self.pair, u, v)
        assert result.vector.is_zero()
        assert result.scalar == 2 * self.pair.scalar_variable(1)
        # Symmetric in this degree combination.
        assert associated_bracket(self.pair, v, u) == result

    def test_pure_vectors_reduce_to_bracket(self):
        rng = sampling.rng_for(23)
        for _ in range(50):
            x = sampling.random_vector(self.pair, rng)
            y = sampling.random_vector(self.pair, rng)
            u, v = self.element(vector=x), self.element(vector=y)
            result = associated_bracket(self.pair, u, v)
            assert result.scalar.is_zero()
            assert result.vector == bracket_vectors(self.pair, x, y)


class TestValidation:
    def test_jacobi_enforced_at_load(self):
        with pytest.raises(ValueError, match="Jacobi"):
            LieRinehartPair.lie_algebra(
                3, {(1, 2): {3: 1, 1: 1}, (1, 3): {1: -2}, (2, 3): {2: 2}}
            )

    def test_validate_false_lets_fixture_through(self):
        assert perturbed_sl2().dim == 3

    def test_cartan_requires_zero_table(self):
        with pytest.raises(ValueError, match="zero structure bracket"):
            LieRinehartPair(
                "cartan", 2, {(1, 2): Vector({1: Scalar.one(2)})}
            )

    def test_bad_bracket_key(self):
        with pytest.raises(ValueError):
            LieRinehartPair.lie_algebra(2, {(2, 1): {1: 1}})

    def test_bracket_table_is_read_only(self):
        pair = sl2()
        with pytest.raises(TypeError):
            pair.brackets[(1, 2)] = Vector.zero()
        # A rebuild from the read-only table (as the CLI's --no-validate
        # does) compares equal to the original.
        rebuilt = LieRinehartPair(pair.kind, pair.dim, pair.brackets, validate=False)
        assert rebuilt.compatible(pair)
        assert not rebuilt.compatible(perturbed_sl2())


def least_jacobi_failure(pair):
    """Oracle: the message for the least generator triple failing Jacobi, or None."""
    for i, j, k in itertools.combinations(range(1, pair.dim + 1), 3):
        residual = (
            bracket_vectors(pair, pair.generator(i), pair.generator_bracket(j, k))
            + bracket_vectors(pair, pair.generator(j), pair.generator_bracket(k, i))
            + bracket_vectors(pair, pair.generator(k), pair.generator_bracket(i, j))
        )
        if not residual.is_zero():
            return f"Jacobi identity fails on generators ({i}, {j}, {k}): {residual!r}"
    return None


class TestJacobiValidation:
    def test_reports_the_least_failing_triple(self):
        rng = random.Random(191)
        failures = 0
        for _ in range(80):
            dim = rng.randint(3, 6)
            keys = list(itertools.combinations(range(1, dim + 1), 2))
            table = {
                key: {rng.randint(1, dim): rng.choice((-2, -1, 1, 2))}
                for key in rng.sample(keys, rng.randint(0, min(4, len(keys))))
            }
            pair = LieRinehartPair.lie_algebra(dim, table, validate=False)
            expected = least_jacobi_failure(pair)
            if expected is None:
                pair.validate_structure()
                continue
            failures += 1
            with pytest.raises(ValueError) as excinfo:
                pair.validate_structure()
            assert str(excinfo.value) == expected
        assert 10 < failures < 70

    def test_large_abelian_document_loads_quickly(self):
        start = time.perf_counter()
        pair = load_pair({"kind": "lie_algebra", "dimension": 400})
        assert time.perf_counter() - start < 1.0
        assert pair.dim == 400

    def test_one_bracket_in_a_large_pair_is_still_checked(self):
        # [e1, e2] = e3 alone is a Lie algebra; [e1, e2] = e1 + e3 with
        # [e1, e3] = e1 is not, and the failure involves generator 3 only
        # through the table.
        assert LieRinehartPair.lie_algebra(200, {(1, 2): {3: 1}}).dim == 200
        with pytest.raises(ValueError, match=r"Jacobi identity fails on generators \(1, 2, 3\)"):
            LieRinehartPair.lie_algebra(200, {(1, 2): {1: 1, 3: 1}, (1, 3): {1: 1}})


class TestCheckLeibniz:
    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    def test_passes(self, factory):
        assert all(r.passed for r in run_suite("leibniz", factory(), trials=100, seed=3))

    def test_corrupted_table_is_a_jacobi_defect_not_a_leibniz_one(self):
        # The bracket evaluator extends the table by the Leibniz rule, so the
        # rule holds for any table; a corrupted constant surfaces in the
        # Jacobi checks instead.
        bad = perturbed_sl2()
        assert all(r.passed for r in run_suite("leibniz", bad, trials=100, seed=3))
        assert not any(r.passed for r in run_suite("jacobi-antisym", bad, trials=100, seed=3))


class TestPairMorphism:
    def test_identity_passes(self):
        for pair in (sl2(), cartan(2)):
            m = PairMorphism.identity(pair)
            assert check_pair_morphism(m, trials=30, seed=1).passed
            assert m.validated

    def test_sl2_into_gl2(self):
        m = sl2_to_gl2(validate=False)
        report = check_pair_morphism(m, trials=30, seed=2)
        assert report.passed
        # Brackets are preserved exhaustively on generators; spot-check [e, f] = h.
        e_img = m.apply_vector(m.source.generator(1))
        f_img = m.apply_vector(m.source.generator(2))
        h_img = m.apply_vector(m.source.generator(3))
        assert bracket_vectors(m.target, e_img, f_img) == h_img

    def test_zero_vector_map_fails_on_cartan(self):
        report = check_pair_morphism(zero_vector_morphism(cartan(2)), trials=30, seed=3)
        assert not report.passed
        assert "D_x" in report.residual or "g(" in report.residual

    def test_zero_vector_map_passes_on_trivial_abelian(self):
        # With a trivial anchor and abelian bracket nothing constrains g.
        report = check_pair_morphism(zero_vector_morphism(abelian(2)), trials=30, seed=4)
        assert report.passed


class TestDocuments:
    def sl2_doc(self):
        return {
            "kind": "lie_algebra",
            "dimension": 3,
            "name": "sl2",
            "brackets": [
                {"i": 1, "j": 2, "value": [{"gen": 3, "coeff": "1"}]},
                {"i": 1, "j": 3, "value": [{"gen": 1, "coeff": "-2"}]},
                {"i": 2, "j": 3, "value": [{"gen": 2, "coeff": "2"}]},
            ],
        }

    def test_load_matches_builtin(self):
        loaded = load_pair(self.sl2_doc())
        assert loaded.compatible(sl2())

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(self.sl2_doc()))
        assert load_pair(path).compatible(sl2())

    def test_polynomial_coefficients(self):
        doc = {
            "kind": "lie_algebra",
            "dimension": 2,
            "brackets": [],
        }
        pair = load_pair(doc)
        assert pair.is_trivial_scalars

    def test_invalid_document(self):
        with pytest.raises(PairDocumentError):
            load_pair({"kind": "nonsense", "dimension": 2})
        with pytest.raises(PairDocumentError):
            load_pair('{"kind": "lie_algebra"}')

    def test_missing_file_is_named(self, tmp_path):
        missing = tmp_path / "sl2.jsn"
        for document in (str(missing), missing):
            with pytest.raises(PairDocumentError, match="^no such file: "):
                load_pair(document)
            with pytest.raises(PairDocumentError, match="^no such file: "):
                load_morphism(document, sl2(), gl2())

    @pytest.mark.parametrize("text", ["[1]", '"x"', "3"])
    def test_non_object_document_is_refused(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        for document in (str(path), path):
            with pytest.raises(PairDocumentError, match="must be a JSON object"):
                load_pair(document)
            with pytest.raises(PairDocumentError, match="must be a JSON object"):
                load_morphism(document, sl2(), gl2())

    def test_json_text_is_not_a_path(self):
        text = json.dumps(self.sl2_doc())
        assert load_pair("  " + text).compatible(sl2())
        with pytest.raises(PairDocumentError, match="invalid pair document"):
            load_pair("{not json")

    def test_repeated_bracket_key_is_refused(self):
        # The last entry used to overwrite the first: this loaded as [e1, e2] = 5 e3.
        doc = self.sl2_doc()
        doc["brackets"].append({"i": 1, "j": 2, "value": [{"gen": 3, "coeff": "5"}]})
        for validate in (True, False):
            with pytest.raises(PairDocumentError, match=r"^bracket key \(1, 2\) is given twice$"):
                load_pair(doc, validate=validate)

    def test_corrupted_document_fails_validation(self):
        doc = self.sl2_doc()
        doc["brackets"][0]["value"].append({"gen": 1, "coeff": "1"})
        with pytest.raises(PairDocumentError, match="Jacobi"):
            load_pair(doc)
        assert load_pair(doc, validate=False).dim == 3

    def test_load_morphism(self):
        source, target = sl2(), gl2()
        doc = {
            "vector_map": [
                [{"gen": 2, "coeff": "1"}],
                [{"gen": 3, "coeff": "1"}],
                [{"gen": 1, "coeff": "1"}, {"gen": 4, "coeff": "-1"}],
            ]
        }
        m = load_morphism(doc, source, target)
        assert check_pair_morphism(m, trials=20, seed=5).passed

    @pytest.mark.parametrize("value", [3.9, 3.0, "3", True, None])
    def test_dimension_must_be_an_integer(self, value):
        doc = dict(self.sl2_doc(), dimension=value)
        with pytest.raises(PairDocumentError, match="dimension must be an integer"):
            load_pair(doc)
        with pytest.raises(PairDocumentError, match="dimension must be an integer"):
            load_pair({"kind": "cartan", "dimension": value})

    @pytest.mark.parametrize("field", ["i", "j", "gen"])
    @pytest.mark.parametrize("value", [1.2, 2.0, "2", True])
    def test_bracket_indices_must_be_integers(self, field, value):
        doc = self.sl2_doc()
        entry = doc["brackets"][0]
        if field == "gen":
            entry = entry["value"][0]
        entry[field] = value
        with pytest.raises(PairDocumentError, match=f"{field} must be an integer"):
            load_pair(doc, validate=False)

    def test_truncating_document_is_refused(self):
        # Every number here used to be truncated by int(), loading [e1, e2] = e3.
        doc = {
            "kind": "lie_algebra",
            "dimension": 3.9,
            "brackets": [{"i": 1.2, "j": 2.7, "value": [{"gen": 3.5, "coeff": "1"}]}],
        }
        with pytest.raises(PairDocumentError):
            load_pair(doc)

    @pytest.mark.parametrize("value", [1.0, 1.5, "1", True])
    def test_exponents_must_be_integers(self, value):
        morphism = {
            "scalar_map": [
                [{"exponents": [value, 0], "coeff": "1"}],
                [{"exponents": [0, 1], "coeff": "1"}],
            ],
            "vector_map": [[{"gen": 1, "coeff": "1"}], [{"gen": 2, "coeff": "1"}]],
        }
        with pytest.raises(PairDocumentError, match="exponent must be an integer"):
            load_morphism(morphism, cartan(2), cartan(2))
        morphism["scalar_map"][0][0]["exponents"][0] = 1
        load_morphism(morphism, cartan(2), cartan(2))

    @pytest.mark.parametrize("value", [1, 1.5, None, ["1"]], ids=["int", "float", "null", "list"])
    def test_term_coefficient_must_be_a_string(self, value):
        morphism = {
            "scalar_map": [
                [{"exponents": [1, 0], "coeff": value}],
                [{"exponents": [0, 1], "coeff": "1"}],
            ],
            "vector_map": [[{"gen": 1, "coeff": "1"}], [{"gen": 2, "coeff": "1"}]],
        }
        with pytest.raises(PairDocumentError, match="malformed coefficient"):
            load_morphism(morphism, cartan(2), cartan(2))

    @pytest.mark.parametrize("value", [2.0, "2", False])
    def test_morphism_gen_must_be_an_integer(self, value):
        doc = {"vector_map": [[{"gen": value, "coeff": "1"}], [], []]}
        with pytest.raises(PairDocumentError, match="gen must be an integer"):
            load_morphism(doc, sl2(), gl2())
