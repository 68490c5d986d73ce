"""Higher brackets, weak Jacobi sums, the differential and the injection."""

import itertools
import math
from fractions import Fraction

import pytest

from schoutencalc import sampling
from schoutencalc.errors import UnsupportedPairError
from schoutencalc.exterior import (
    Multivector,
    associated_exterior_morphism,
    embed,
    tensor_degree,
    wedge,
)
from schoutencalc.graded import Permutation, koszul_sign, shuffles
from schoutencalc.instances import abelian, cartan, perturbed_sl2, sl2, sl2_to_gl2, solvable4
from schoutencalc.linfty import (
    BracketFamily,
    _compositions,
    _ExteriorSource,
    _PairSource,
    aggregated_weak_jacobi_residual,
    ce_differential,
    check_linfty_morphism,
    check_weak_jacobi,
    composition_identity_lhs,
    composition_identity_terms,
    injection_family,
    injection_morphism_residual,
    n_bracket,
    natural_injection,
    strict_family,
    weak_jacobi_residual,
)
from schoutencalc.pairs import GradedPairElement, Vector
from schoutencalc.schouten import sn_antisym, sn_sym


def all_monomials(pair):
    for length in range(pair.dim + 1):
        for combo in itertools.combinations(range(1, pair.dim + 1), length):
            yield Multivector.monomial(pair, combo)


def ordered_structure_equation_residual(source, f, target_pair, args):
    """Oracle: the structure equation with its right side over ordered compositions.

    ``sum_p (1/p!) sum_{k_1+...+k_p=n} sum_{Sh(k_1..k_p)} e(s)
    {f_{k_1}(...), ..., f_{k_p}(...)}_p``, every block image evaluated afresh
    and every left-side term built, zero source brackets included.
    """
    n = len(args)
    residual = Multivector.zero(target_pair)
    for combo in itertools.product(*(source.components(a) for a in args)):
        elems = [c[0] for c in combo]
        degrees = [c[1] for c in combo]

        for q in range(1, n + 1):
            p = n + 1 - q
            f_p = f.component(p)
            if f_p is None:
                continue
            parts = (q,) if p == 1 else (q, p - 1)
            for s in shuffles(parts):
                inner = source.bracket(q, [elems[s(k) - 1] for k in range(1, q + 1)])
                rest = [elems[s(k) - 1] for k in range(q + 1, n + 1)]
                term = f_p([inner] + rest)
                residual = residual + term.scaled(koszul_sign(s, degrees))

        for p in range(1, n + 1):
            factor = Fraction(1, math.factorial(p))
            for ks in _compositions(n, p):
                fs = [f.component(k) for k in ks]
                if any(fk is None for fk in fs):
                    continue
                for s in shuffles(ks):
                    images = []
                    offset = 0
                    for fk, k in zip(fs, ks):
                        block = [elems[s(offset + t) - 1] for t in range(1, k + 1)]
                        images.append(fk(block))
                        offset += k
                    term = n_bracket(target_pair, images)
                    residual = residual - term.scaled(koszul_sign(s, degrees)).scaled(factor)
    return residual


class TestNBracket:
    def test_arity_one_is_zero(self):
        pair = cartan(2)
        x = Multivector.monomial(pair, (1, 2), pair.scalar_variable(1))
        assert n_bracket(pair, [x]).is_zero()

    def test_empty_args_rejected(self):
        with pytest.raises(ValueError):
            n_bracket(sl2(), [])

    def test_arity_two_is_symmetric_bracket(self):
        pair = cartan(2)
        rng = sampling.rng_for(103)
        for _ in range(100):
            x = sampling.random_multivector(pair, rng)
            y = sampling.random_multivector(pair, rng)
            assert n_bracket(pair, [x, y]) == sn_sym(pair, x, y)

    def test_sl2_pair_bracket(self):
        pair = sl2()
        e = Multivector.monomial(pair, (1,))
        f = Multivector.monomial(pair, (2,))
        assert n_bracket(pair, [e, f]) == Multivector.monomial(pair, (3,))

    def test_cartan3_golden_value(self):
        # Oracle for vector arguments: {x,y,z}_3 = z^[x,y] - y^[x,z] + x^[y,z].
        pair = cartan(3)
        x = Multivector.monomial(pair, (1,))
        y = Multivector.monomial(pair, (2,))
        z = Multivector.monomial(pair, (3,), pair.scalar_variable(1) * pair.scalar_variable(2))
        by_identity = (
            wedge(pair, z, sn_antisym(pair, x, y))
            - wedge(pair, y, sn_antisym(pair, x, z))
            + wedge(pair, x, sn_antisym(pair, y, z))
        )
        result = n_bracket(pair, [x, y, z])
        assert result == by_identity
        expected = Multivector.monomial(
            pair, (1, 3), pair.scalar_variable(1)
        ) + Multivector.monomial(pair, (2, 3), -pair.scalar_variable(2))
        assert result == expected
        assert str(result) == "x1*d1^d3 - x2*d2^d3"

    def test_abelian_triple_bracket_vanishes(self):
        pair = abelian(3)
        args = [Multivector.monomial(pair, (i,)) for i in (1, 2, 3)]
        assert n_bracket(pair, args).is_zero()

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    def test_graded_symmetry_all_of_s3(self, factory):
        pair = factory()
        rng = sampling.rng_for(107)
        for _ in range(25):
            args = [
                sampling.random_homogeneous(pair, rng, rng.randint(0, 2)) for _ in range(3)
            ]
            degrees = [tensor_degree(a) for a in args]
            reference = n_bracket(pair, args)
            for images in itertools.permutations((1, 2, 3)):
                s = Permutation(images)
                permuted = [args[s(i) - 1] for i in (1, 2, 3)]
                assert n_bracket(pair, permuted) == reference.scaled(koszul_sign(s, degrees))

    @pytest.mark.parametrize("n", [4, 5])
    def test_graded_symmetry_random_transpositions(self, n):
        pair = cartan(2)
        rng = sampling.rng_for(108 + n)
        for _ in range(10):
            args = [
                sampling.random_homogeneous(pair, rng, rng.randint(0, 2)) for _ in range(n)
            ]
            degrees = [tensor_degree(a) for a in args]
            j = rng.randint(1, n - 1)
            images = list(range(1, n + 1))
            images[j - 1], images[j] = images[j], images[j - 1]
            s = Permutation(images)
            permuted = [args[s(i) - 1] for i in range(1, n + 1)]
            assert n_bracket(pair, permuted) == n_bracket(pair, args).scaled(
                koszul_sign(s, degrees)
            )

    def test_tensor_degree_minus_one(self):
        pair = cartan(3)
        rng = sampling.rng_for(113)
        seen = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            degrees = [rng.randint(0, 2) for _ in range(n)]
            args = [sampling.random_homogeneous(pair, rng, d) for d in degrees]
            result = n_bracket(pair, args)
            if result.is_zero():
                continue
            seen += 1
            assert tensor_degree(result) == sum(degrees) - 1
        assert seen > 10


class TestWeakJacobi:
    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    @pytest.mark.parametrize(
        "n, p, q", [(3, 2, 2), (4, 2, 3), (4, 3, 2), (5, 2, 4), (5, 3, 3), (5, 4, 2)]
    )
    def test_vanishes_per_split(self, factory, n, p, q):
        pair = factory()
        rng = sampling.rng_for(100 * n + 10 * p + q)
        for _ in range(10):
            args = [
                sampling.random_homogeneous(pair, rng, rng.randint(0, 2)) for _ in range(n)
            ]
            report = check_weak_jacobi(pair, n, p, q, args)
            assert report.passed, report.render_text()

    def test_n3_split_is_sym_jacobi(self):
        pair = cartan(2)
        rng = sampling.rng_for(127)
        for _ in range(20):
            args = [
                sampling.random_homogeneous(pair, rng, rng.randint(0, 2)) for _ in range(3)
            ]
            degrees = [tensor_degree(a) for a in args]
            by_hand = Multivector.zero(pair)
            for s in shuffles((2, 1)):
                inner = sn_sym(pair, args[s(1) - 1], args[s(2) - 1])
                by_hand = by_hand + sn_sym(pair, inner, args[s(3) - 1]).scaled(
                    koszul_sign(s, degrees)
                )
            assert weak_jacobi_residual(pair, 2, 2, args) == by_hand
            assert by_hand.is_zero()

    def test_invalid_split_rejected(self):
        pair = sl2()
        args = [Multivector.monomial(pair, (1,))] * 3
        with pytest.raises(ValueError):
            weak_jacobi_residual(pair, 1, 3, args)
        with pytest.raises(ValueError):
            weak_jacobi_residual(pair, 2, 3, args)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_aggregated_sum_vanishes(self, n):
        for pair in (sl2(), cartan(2)):
            rng = sampling.rng_for(131 + n)
            for _ in range(8):
                args = [
                    sampling.random_homogeneous(pair, rng, rng.randint(0, 2))
                    for _ in range(n)
                ]
                assert aggregated_weak_jacobi_residual(pair, args).is_zero()


class TestCEDifferential:
    def test_rejects_cartan(self):
        pair = cartan(2)
        with pytest.raises(UnsupportedPairError):
            ce_differential(pair, Multivector.unit(pair))

    def test_golden_values_sl2(self):
        pair = sl2()
        e = Multivector.monomial(pair, (1,))
        f = Multivector.monomial(pair, (2,))
        h = Multivector.monomial(pair, (3,))
        assert ce_differential(pair, wedge(pair, e, f)) == h
        assert ce_differential(pair, wedge(pair, wedge(pair, e, f), h)).is_zero()

    def test_zero_on_scalars_and_vectors(self):
        pair = sl2()
        assert ce_differential(pair, Multivector.unit(pair)).is_zero()
        assert ce_differential(pair, Multivector.monomial(pair, (2,))).is_zero()

    @pytest.mark.parametrize("factory", [sl2, solvable4])
    def test_squares_to_zero_exhaustively(self, factory):
        pair = factory()
        for mono in all_monomials(pair):
            assert ce_differential(pair, ce_differential(pair, mono)).is_zero()

    @pytest.mark.parametrize("factory", [sl2, solvable4])
    def test_squares_to_zero_on_random_multivectors(self, factory):
        pair = factory()
        rng = sampling.rng_for(137)
        for _ in range(50):
            x = sampling.random_multivector(pair, rng)
            assert ce_differential(pair, ce_differential(pair, x)).is_zero()


class TestNaturalInjection:
    def setup_method(self):
        self.pair = cartan(2)

    def element(self, scalar=None, gen=None):
        return GradedPairElement(
            scalar if scalar is not None else self.pair.scalar_zero(),
            self.pair.generator(gen) if gen else Vector.zero(),
        )

    def test_arity_one_is_inclusion(self):
        u = self.element(scalar=self.pair.scalar_const(3), gen=1)
        assert natural_injection(self.pair, [u]) == embed(self.pair, u)

    def test_arity_two_sign(self):
        x = self.element(gen=1)
        y = self.element(gen=2)
        expected = -wedge(self.pair, embed(self.pair, y), embed(self.pair, x))
        assert natural_injection(self.pair, [x, y]) == expected
        # Normalizes to +d1^d2.
        assert natural_injection(self.pair, [x, y]) == Multivector.monomial(self.pair, (1, 2))

    def test_arity_three_factor(self):
        pair = cartan(3)
        elems = [
            GradedPairElement(pair.scalar_zero(), pair.generator(i)) for i in (1, 2, 3)
        ]
        zyx = wedge(
            pair,
            wedge(pair, embed(pair, elems[2]), embed(pair, elems[1])),
            embed(pair, elems[0]),
        )
        assert natural_injection(pair, elems) == zyx.scaled(Fraction(2))

    def test_empty_args_rejected(self):
        with pytest.raises(ValueError):
            natural_injection(self.pair, [])

    def test_graded_symmetry_with_koszul_signs(self):
        rng = sampling.rng_for(139)
        for _ in range(15):
            elems = []
            degrees = []
            for _ in range(3):
                if rng.random() < 0.5:
                    elems.append(
                        self.element(scalar=sampling.random_scalar(self.pair, rng, nonzero=True))
                    )
                    degrees.append(0)
                else:
                    elems.append(
                        GradedPairElement(
                            self.pair.scalar_zero(),
                            sampling.random_vector(self.pair, rng, nonzero=True),
                        )
                    )
                    degrees.append(1)
            reference = natural_injection(self.pair, elems)
            for images in itertools.permutations((1, 2, 3)):
                s = Permutation(images)
                permuted = [elems[s(i) - 1] for i in (1, 2, 3)]
                assert natural_injection(self.pair, permuted) == reference.scaled(
                    koszul_sign(s, degrees)
                )


class TestInjectionMorphismEquation:
    def test_n2_vectors_reduce_to_brackets(self):
        pair = sl2()
        x = GradedPairElement(pair.scalar_zero(), pair.generator(1))
        y = GradedPairElement(pair.scalar_zero(), pair.generator(2))
        assert injection_morphism_residual(pair, [x, y]).is_zero()

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_structure_equation_holds(self, factory, n):
        pair = factory()
        rng = sampling.rng_for(149 + n)
        for _ in range(5):
            args = [
                sampling.random_pair_element(pair, rng, ensure_mixed=(rng.random() < 0.5))
                for _ in range(n)
            ]
            residual = injection_morphism_residual(pair, args)
            assert residual.is_zero(), str(residual)

    def test_check_wrapper(self):
        pair = sl2()
        rng = sampling.rng_for(151)
        args = [sampling.random_pair_element(pair, rng) for _ in range(3)]
        report = check_linfty_morphism(
            pair, injection_family(pair), BracketFamily(pair), 3, args
        )
        assert report.passed

    def test_holds_at_the_default_arity_cap(self):
        pair = sl2()
        elems = [
            GradedPairElement(pair.scalar_const(2), Vector.zero()),
            GradedPairElement(pair.scalar_zero(), pair.generator(1)),
            GradedPairElement(pair.scalar_zero(), pair.generator(2)),
            GradedPairElement(pair.scalar_zero(), pair.generator(3)),
            GradedPairElement(pair.scalar_const(1), pair.generator(1)),
        ]
        assert injection_morphism_residual(pair, elems).is_zero()

    def test_arity_cap_rejects_beyond_limit(self):
        pair = sl2()
        args = [
            GradedPairElement(pair.scalar_zero(), pair.generator(1)) for _ in range(6)
        ]
        with pytest.raises(ValueError, match="cap"):
            check_linfty_morphism(
                pair, injection_family(pair), BracketFamily(pair), 6, args
            )


class TestStrictMorphism:
    def test_structure_equation_for_prolonged_morphism(self):
        m = sl2_to_gl2()
        family = strict_family(lambda mv: associated_exterior_morphism(m, mv))
        target = BracketFamily(m.target)
        rng = sampling.rng_for(157)
        for n in (2, 3, 4):
            for _ in range(5):
                args = [
                    sampling.random_homogeneous(m.source, rng, rng.randint(0, 2))
                    for _ in range(n)
                ]
                report = check_linfty_morphism(
                    m.source, family, target, n, args, source_kind="exterior"
                )
                assert report.passed, report.render_text()

    def test_commutes_with_n_brackets(self):
        m = sl2_to_gl2()
        rng = sampling.rng_for(163)
        for n in (2, 3, 4):
            for _ in range(10):
                args = [
                    sampling.random_homogeneous(m.source, rng, rng.randint(0, 2))
                    for _ in range(n)
                ]
                lhs = associated_exterior_morphism(m, n_bracket(m.source, args))
                rhs = n_bracket(
                    m.target, [associated_exterior_morphism(m, a) for a in args]
                )
                assert lhs == rhs


class TestPartitionFormMatchesOrderedOracle:
    """The set-partition evaluator equals the ordered-composition sum exactly."""

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_injection(self, factory, n):
        pair = factory()
        rng = sampling.rng_for(167 + n)
        for trial in range(3):
            args = [
                sampling.random_pair_element(pair, rng, ensure_mixed=(trial % 2 == 0))
                for _ in range(n)
            ]
            expected = ordered_structure_equation_residual(
                _PairSource(pair), injection_family(pair), pair, args
            )
            assert injection_morphism_residual(pair, args) == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_strict_exterior_source(self, n):
        m = sl2_to_gl2()
        family = strict_family(lambda mv: associated_exterior_morphism(m, mv))
        rng = sampling.rng_for(173 + n)
        for _ in range(3):
            args = [
                sampling.random_homogeneous(m.source, rng, rng.randint(0, 2))
                for _ in range(n)
            ]
            expected = ordered_structure_equation_residual(
                _ExteriorSource(m.source), family, m.target, args
            )
            report = check_linfty_morphism(
                m.source, family, BracketFamily(m.target), n, args, source_kind="exterior"
            )
            assert (report.passed, report.residual) == (expected.is_zero(), str(expected))

    def test_injection_into_another_bracket(self):
        # Perturbed sl2 injected into the exterior algebra of true sl2 is not
        # a weak morphism.  The perturbation sits in [e1, e2], so every first
        # trial starts with e1 and e2 to make nonzero residuals likely.
        source, target = perturbed_sl2(), sl2()
        family = injection_family(target)
        pinned = [
            GradedPairElement(source.scalar_const(1), source.generator(1)),
            GradedPairElement(source.scalar_zero(), source.generator(2)),
        ]
        rng = sampling.rng_for(179)
        nonzero = 0
        for n in (2, 3, 4):
            for trial in range(3):
                args = [
                    sampling.random_pair_element(source, rng, ensure_mixed=(trial % 2 == 0))
                    for _ in range(n)
                ]
                if trial == 0:
                    args[:2] = pinned
                expected = ordered_structure_equation_residual(
                    _PairSource(source), family, target, args
                )
                report = check_linfty_morphism(source, family, BracketFamily(target), n, args)
                assert (report.passed, report.residual) == (expected.is_zero(), str(expected))
                nonzero += not expected.is_zero()
        assert nonzero > 0


class TestCompositionIdentity:
    def test_n2(self):
        assert composition_identity_lhs(2) == Fraction(1, 2)

    def test_n3_partial_sums(self):
        terms = composition_identity_terms(3)
        assert terms[2] == Fraction(1)
        assert terms[3] == Fraction(-1, 2)
        assert composition_identity_lhs(3) == Fraction(1, 2)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_one_half(self, n):
        assert composition_identity_lhs(n) == Fraction(1, 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            composition_identity_lhs(1)
