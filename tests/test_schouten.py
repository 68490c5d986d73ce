"""Schouten-Nijenhuis brackets: golden values, gradings and identity checks."""

import itertools

import pytest

from schoutencalc import sampling
from schoutencalc.exterior import Multivector, tensor_degree, wedge
from schoutencalc.graded import parity_sign
from schoutencalc.instances import (
    abelian,
    cartan,
    gl2,
    perturbed_sl2,
    sl2,
    sl2_to_gl2,
    solvable4,
)
from schoutencalc.pairs import Vector, bracket_vectors
from schoutencalc.schouten import (
    _sn_term_pair,
    check_antisym_jacobi,
    check_morphism_respects_sn,
    check_poisson,
    check_sym_jacobi,
    decalage_relation,
    sn_antisym,
    sn_antisym_poisson,
    sn_antisym_shuffle,
    sn_sym,
)


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
            x_mv = Multivector.unit(pair)
            for v in xs:
                x_mv = wedge(pair, x_mv, Multivector.from_vector(pair, v))
            y_mv = Multivector.unit(pair)
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
            out = out + _sn_term_pair(pair, mx, a, my, b)
    return out


def basis_monomials(pair):
    generators = range(1, pair.dim + 1)
    return [m for d in range(pair.dim + 1) for m in itertools.combinations(generators, d)]


class TestMonomialTable:
    """Trivial-scalar pairs read ``sn_antisym`` from a per-pair table of
    monomial brackets; it must agree with the term-pair evaluator and the
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

    def test_cartan_pair_never_fills_table(self):
        pair = cartan(2)
        rng = sampling.rng_for(127)
        for _ in range(20):
            x = sampling.random_multivector(pair, rng)
            y = sampling.random_multivector(pair, rng)
            sn_antisym(pair, x, y)
        assert pair.monomial_brackets == {}


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
        expected = Multivector.unit(pair)  # D_{d1}(x1) = 1
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
        assert check_antisym_jacobi(factory(), trials=100, seed=7).passed

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    def test_poisson(self, factory):
        assert check_poisson(factory(), trials=100, seed=11).passed

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2), lambda: abelian(3)])
    def test_sym_jacobi(self, factory):
        assert check_sym_jacobi(factory(), trials=100, seed=13).passed

    def test_abelian_trivial_pair_identically_zero(self):
        pair = abelian(3)
        rng = sampling.rng_for(89)
        for _ in range(50):
            x = sampling.random_multivector(pair, rng)
            y = sampling.random_multivector(pair, rng)
            assert sn_antisym(pair, x, y).is_zero()

    def test_corrupted_table_detected(self):
        assert not check_antisym_jacobi(perturbed_sl2(), trials=100, seed=5).passed


class TestMorphismRespectsBracket:
    def test_identity(self):
        from schoutencalc.instances import identity_morphism

        m = identity_morphism(cartan(2))
        assert check_morphism_respects_sn(m, trials=60, seed=17).passed

    def test_sl2_to_gl2(self):
        assert check_morphism_respects_sn(sl2_to_gl2(), trials=60, seed=19).passed

    def test_corrupted_vector_map_detected(self):
        m = sl2_to_gl2()
        # Perturb one generator image after validation.
        broken = list(m.vector_images)
        broken[0] = broken[0] + Vector({1: m.target.scalar_one()})
        m.vector_images = tuple(broken)
        assert not check_morphism_respects_sn(m, trials=60, seed=23).passed


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
        mixed = Multivector.monomial(pair, (1,)) + Multivector.unit(pair)
        with pytest.raises(ValueError):
            decalage_relation(pair, mixed, mixed)
