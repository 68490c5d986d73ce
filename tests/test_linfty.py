"""Higher brackets, weak Jacobi sums, the differential and the injection."""

import dataclasses
import gc
import itertools
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from fixtures import sl2_to_gl2
from oracles import (
    associated_bracket,
    n_bracket_hom_parts,
    n_bracket_shuffle,
    set_partitions,
    source_parts,
    structure_equation_by_parts,
    structure_equation_twisted,
    weak_jacobi_shuffle,
)

from schoutencalc import exterior, linfty, sampling
from schoutencalc.errors import UnsupportedPairError
from schoutencalc.exterior import (
    INHOMOGENEOUS,
    Multivector,
    associated_exterior_morphism,
    embed,
    tensor_degree,
    wedge,
)
from schoutencalc.graded import Permutation, koszul_sign, shuffles
from schoutencalc.instances import abelian, cartan, gl2, perturbed_sl2, sl2, solvable4
from schoutencalc.linfty import (
    BracketFamily,
    _compositions,
    _pair_table,
    ce_differential,
    check_linfty_morphism,
    composition_identity_lhs,
    composition_identity_terms,
    injection_family,
    injection_morphism_residual,
    n_bracket,
    natural_injection,
    weak_jacobi_residual,
)
from schoutencalc.pairs import GradedPairElement, LieRinehartPair, Vector, load_pair
from schoutencalc.schouten import sn_antisym, sn_sym
from test_schouten import FRACTIONAL_HEISENBERG, FRACTIONAL_SOLVABLE


def all_monomials(pair):
    for length in range(pair.dim + 1):
        for combo in itertools.combinations(range(1, pair.dim + 1), length):
            yield Multivector.monomial(pair, combo)


def ordered_structure_equation_residual(source_pair, f, target_pair, args):
    """Oracle: the structure equation with its right side over ordered compositions.

    ``sum_p (1/p!) sum_{k_1+...+k_p=n} sum_{Sh(k_1..k_p)} e(s)
    {f_{k_1}(...), ..., f_{k_p}(...)}_p``, every block image evaluated afresh
    and every left-side term of the binary bracket built, zero brackets
    included.
    """
    n = len(args)
    residual = Multivector.zero(target_pair)
    for combo in itertools.product(*(source_parts(source_pair, a) for a in args)):
        elems = [c[0] for c in combo]
        degrees = [c[1] for c in combo]

        for q in range(1, n + 1):
            p = n + 1 - q
            f_p = f(p)
            # Only the binary bracket of A (+) g is nonzero.
            if q != 2 or f_p is None:
                continue
            parts = (q,) if p == 1 else (q, p - 1)
            for s in shuffles(parts):
                inner = associated_bracket(source_pair, elems[s(1) - 1], elems[s(2) - 1])
                rest = [elems[s(k) - 1] for k in range(q + 1, n + 1)]
                term = f_p([inner] + rest)
                residual = residual + term.scaled(koszul_sign(s, degrees))

        for p in range(1, n + 1):
            factor = Fraction(1, math.factorial(p))
            for ks in _compositions(n, p):
                fs = [f(k) for k in ks]
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
        for pair in (sl2(), cartan(2)):
            with pytest.raises(ValueError, match="needs at least one argument"):
                n_bracket(pair, [])

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

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_shuffle_oracle_on_every_sl2_monomial_tuple(self, n):
        # Multilinearity makes this a proof for sl2 at arities 2 and 3; the
        # monomials include the unit, a degree-0 slot with zero inner brackets.
        pair = sl2()
        monomials = list(all_monomials(pair))
        for args in itertools.product(monomials, repeat=n):
            assert n_bracket(pair, list(args)) == n_bracket_shuffle(pair, list(args))

    @pytest.mark.parametrize("factory", [sl2, gl2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_shuffle_oracle_with_degree_zero_and_inhomogeneous_args(self, factory, n):
        pair = factory()
        rng = sampling.rng_for(120 + n)
        for _ in range(12):
            args = [sampling.random_homogeneous(pair, rng, 0)]
            for _ in range(n - 1):
                degrees = rng.choice([(0,), (1,), (2,), (0, 1), (0, 1, 2), (0, 2, 3)])
                arg = Multivector.zero(pair)
                for d in degrees:
                    arg = arg + sampling.random_homogeneous(pair, rng, d)
                args.append(arg)
            rng.shuffle(args)
            assert n_bracket(pair, args) == n_bracket_shuffle(pair, args)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_shuffle_oracle_on_cartan_polynomial_scalars(self, n):
        # Polynomial scalars are not central, so brackets with a degree-0
        # slot survive here: skipping them would change the result.
        pair = cartan(2)
        x1, x2 = pair.scalar_variable(1), pair.scalar_variable(2)
        polynomial = Multivector.from_scalar(pair, x1 * x1 * x2 + x2)
        rng = sampling.rng_for(130 + n)
        nonzero = 0
        for _ in range(12):
            args = [polynomial] + [
                sampling.random_homogeneous(pair, rng, rng.randint(0, 2)) for _ in range(n - 1)
            ]
            rng.shuffle(args)
            result = n_bracket(pair, args)
            assert result == n_bracket_shuffle(pair, args)
            nonzero += not result.is_zero()
        assert nonzero > 0

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


def random_argument(pair, rng, degrees):
    """Sum of random homogeneous parts of the given degrees, rational coefficients."""
    out = Multivector.zero(pair)
    while out.is_zero():
        for d in degrees:
            out = out + sampling.random_homogeneous(pair, rng, d)
    return out


TRIVIAL_SCALAR_PAIRS = [sl2, gl2, solvable4, lambda: abelian(3), perturbed_sl2]

FRACTIONAL_PAIRS = [lambda: load_pair(FRACTIONAL_HEISENBERG), lambda: load_pair(FRACTIONAL_SOLVABLE)]
FRACTIONAL_IDS = ["heisenberg-2/3", "solvable-1/2-1/3"]


def halved_perturbed_sl2():
    """``perturbed_sl2`` with its corruption halved, ``[e1, e2] = e3 + e1/2``: ``D_pair = 2``."""
    return LieRinehartPair.lie_algebra(
        3,
        {(1, 2): {3: 1, 1: Fraction(1, 2)}, (1, 3): {1: -2}, (2, 3): {2: 2}},
        name="sl2-corrupted-1/2",
        validate=False,
    )


class TestNBracketTable:
    """On trivial-scalar pairs ``n_bracket`` sums, over one term per argument,
    the product of the coefficients times the ``n_brackets`` entry of the
    sorted monomials, with the sort's Koszul sign; it must agree with the
    expansion into homogeneous parts at every arity."""

    @pytest.mark.parametrize("factory", TRIVIAL_SCALAR_PAIRS)
    def test_matches_homogeneous_part_expansion(self, factory):
        pair = factory()
        rng = sampling.rng_for(140)
        palette = [(0,), (0,), (1,), (1,), (2,), (3,), (0, 1), (1, 2), (0, 2, 3)]
        for n in range(2, 7):
            nonzero = 0
            for trial in range(16 if n < 6 else 8):
                if trial % 2:
                    args = [random_argument(pair, rng, rng.choice(palette)) for _ in range(n)]
                else:
                    args = [random_argument(pair, rng, rng.choice(palette[:6])) for _ in range(n)]
                got = n_bracket(pair, args)
                assert got == n_bracket_hom_parts(pair, args)
                nonzero += not got.is_zero()
            # Only the abelian brackets vanish identically.
            assert (nonzero > 0) == bool(pair.brackets), n

    @pytest.mark.parametrize("factory, denominator", zip(FRACTIONAL_PAIRS, (3, 6)), ids=FRACTIONAL_IDS)
    def test_fractional_structure_constants(self, factory, denominator):
        # Entries are ints over D_pair, though a unit n-bracket's value may need only a proper divisor of it.
        pair = factory()
        assert pair.bracket_denominator == denominator
        rng = sampling.rng_for(141)
        palette = [(0,), (1,), (1,), (2,), (0, 1), (1, 2), (0, 2, 3)]
        for n in range(2, 6):
            nonzero = 0
            for _ in range(16):
                args = [random_argument(pair, rng, rng.choice(palette)) for _ in range(n)]
                got = n_bracket(pair, args)
                assert got == n_bracket_hom_parts(pair, args)
                nonzero += not got.is_zero()
            assert nonzero > 0, n
        assert all(type(q) is int for entry in pair.n_brackets.values() for _, q in entry)

    @pytest.mark.parametrize(
        "factory", [sl2, gl2, solvable4, *FRACTIONAL_PAIRS], ids=["sl2", "gl2", "solvable4", *FRACTIONAL_IDS]
    )
    def test_fewer_than_two_non_constant_arguments_give_zero_without_the_table(self, factory):
        # A constant is central on trivial scalars, so every inner bracket
        # meets one; a zero argument counts as a constant.
        pair = factory()
        rng = sampling.rng_for(142)
        palette = [(1,), (2,), (0, 1), (1, 2), (0, 2, 3)]
        for n in range(2, 6):
            for live in (0, 1):
                for _ in range(8):
                    args = [random_argument(pair, rng, (0,)) for _ in range(n)]
                    if rng.random() < 0.25:
                        args[rng.randrange(n)] = Multivector.zero(pair)
                    for k in rng.sample(range(n), live):
                        args[k] = random_argument(pair, rng, rng.choice(palette))
                    got = n_bracket(pair, args)
                    assert got.is_zero()
                    assert got == n_bracket_hom_parts(pair, args)
        assert pair.n_brackets == {}

    @pytest.mark.parametrize("factory", [sl2, gl2, solvable4])
    def test_permuted_arguments_add_no_entry_and_give_koszul_sign(self, factory):
        pair = factory()
        rng = sampling.rng_for(150)
        nonzero = 0
        for n in (3, 4, 5):
            for _ in range(6):
                degrees = [rng.choice((0, 1, 1, 2, 3)) for _ in range(n)]
                args = [sampling.random_homogeneous(pair, rng, d) for d in degrees]
                reference = n_bracket(pair, args)
                nonzero += not reference.is_zero()
                filled = len(pair.n_brackets)
                for _ in range(6):
                    images = list(range(1, n + 1))
                    rng.shuffle(images)
                    s = Permutation(images)
                    permuted = [args[s(i) - 1] for i in range(1, n + 1)]
                    assert n_bracket(pair, permuted) == reference.scaled(koszul_sign(s, degrees))
                assert len(pair.n_brackets) == filled
        assert len(pair.n_bracket_sorts) > len(pair.n_brackets)
        assert nonzero > 0

    def test_interleaved_pairs_keep_their_own_tables(self):
        # Same dimension, different structure constants: a table shared
        # between the two would hand one pair the other's brackets.
        true, bent = sl2(), perturbed_sl2()
        generator_monomials = [m for k in (1, 2) for m in itertools.combinations((1, 2, 3), k)]
        differ = 0
        for monos in itertools.product(generator_monomials, repeat=3):
            got = []
            for pair in (true, bent):
                args = [Multivector.monomial(pair, m) for m in monos]
                value = n_bracket(pair, args)
                assert value == n_bracket_hom_parts(pair, args)
                got.append(value.terms)
            differ += got[0] != got[1]
        assert differ

    def test_fresh_pair_starts_empty_and_cartan_pair_never_fills(self):
        pair = sl2()
        assert pair.n_brackets == {}
        assert pair.n_bracket_sorts == {}
        e, f, ef = (Multivector.monomial(pair, m) for m in ((1,), (2,), (1, 2)))
        assert n_bracket(pair, [e, ef, f]) == -Multivector.monomial(pair, (1, 2, 3))
        assert n_bracket(pair, [f, e, ef]) == Multivector.monomial(pair, (1, 2, 3))
        assert set(pair.n_brackets) == {((1,), (1, 2), (2,))}
        # One sorted key, two orders: f before e swaps two odd monomials.
        key = ((1,), (1, 2), (2,))
        assert pair.n_bracket_sorts == {key: (key, 1), ((2,), (1,), (1, 2)): (key, -1)}
        # Total length 5 > dim + 1: the bracket would have degree 4 > dim.
        assert n_bracket(pair, [ef, ef, Multivector.monomial(pair, (3,))]).is_zero()
        assert set(pair.n_brackets) == {((1,), (1, 2), (2,))}
        assert len(pair.n_bracket_sorts) == 2
        assert sl2().n_brackets == {}
        assert sl2().n_bracket_sorts == {}
        two = cartan(2)
        rng = sampling.rng_for(151)
        for n in (2, 3, 4):
            n_bracket(two, [sampling.random_multivector(two, rng) for _ in range(n)])
        assert two.n_brackets == {}
        assert two.n_bracket_sorts == {}

    @pytest.mark.parametrize("factory", [sl2, gl2])
    def test_sort_slot_holds_sorted_keys_and_koszul_signs(self, factory):
        # Each ordered tuple met maps to its sorted tuple and the Koszul sign
        # of the sort on the monomial lengths, computed here by koszul_sign.
        pair = factory()
        rng = sampling.rng_for(152)
        palette = [(0,), (1,), (1,), (2,), (0, 1), (1, 2), (0, 2, 3)]
        for n in range(2, 6):
            for _ in range(8):
                n_bracket(pair, [random_argument(pair, rng, rng.choice(palette)) for _ in range(n)])
        assert len(pair.n_bracket_sorts) > len(pair.n_brackets) > 0
        assert all(key == tuple(sorted(key)) for key in pair.n_brackets)
        for monos, (key, sign) in pair.n_bracket_sorts.items():
            order = sorted(range(len(monos)), key=lambda k: monos[k])
            assert key == tuple(monos[k] for k in order)
            # The sort moves monos[order[r]] to place r: the word key is monos permuted by it.
            assert sign == koszul_sign(Permutation([k + 1 for k in order]), [len(m) for m in monos])

    def test_overlong_wide_bracket_is_zero_at_once(self):
        # 6**8 choices of one term per argument, each of length 1 or 2, so
        # every choice has total length above dim + 1 = 4.
        pair = sl2()
        x = Multivector.zero(pair)
        for mono in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
            x = x + Multivector.monomial(pair, mono)
        start = time.perf_counter()
        assert n_bracket(pair, [x] * 8).is_zero()
        assert time.perf_counter() - start < 0.5
        assert pair.n_brackets == {}

    @pytest.mark.parametrize("factory", [sl2, gl2])
    def test_wide_mixed_arguments_match_homogeneous_part_expansion(self, factory):
        # The longest rows sum past dim + 1, so the combinations are
        # enumerated by length; constants keep some choices within the bound.
        pair = factory()
        rng = sampling.rng_for(143)
        palette = [(0, 1), (0, 1, 2), (1, 2), (0, 2), (0, 1, 3)]
        for n in (4, 5, 6):
            nonzero = 0
            for _ in range(6):
                args = [random_argument(pair, rng, rng.choice(palette)) for _ in range(n)]
                assert sum(max(map(len, a.terms)) for a in args) > pair.dim + 1
                got = n_bracket(pair, args)
                assert got == n_bracket_hom_parts(pair, args)
                nonzero += not got.is_zero()
            assert nonzero > 0, n

    def test_arguments_of_another_pair_are_refused(self):
        # At arity 1 too, though its bracket is zero whatever the argument.
        pair = sl2()
        own = Multivector.monomial(pair, (3,))
        for other in (gl2(), cartan(2)):
            x, y = Multivector.monomial(other, (1,)), Multivector.monomial(other, (2,))
            for args in ([x], [x, y], [own, x], [x, own]):
                with pytest.raises(ValueError, match="does not belong to the given pair"):
                    n_bracket(pair, args)
        with pytest.raises(ValueError, match="does not belong to the given pair"):
            n_bracket(cartan(2), [Multivector.monomial(pair, (1,))])
        assert pair.n_brackets == {}
        twin = sl2()
        e, f = Multivector.monomial(twin, (1,)), Multivector.monomial(twin, (2,))
        assert n_bracket(pair, [e, f]) == Multivector.monomial(pair, (3,))


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
            assert weak_jacobi_residual(pair, p, q, args).is_zero()

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

    @pytest.mark.parametrize(
        "factory",
        [sl2, gl2, perturbed_sl2, halved_perturbed_sl2, *FRACTIONAL_PAIRS, lambda: cartan(2)],
        ids=["sl2", "gl2", "perturbed-sl2", "perturbed-sl2-1/2", *FRACTIONAL_IDS, "cartan2"],
    )
    def test_degree_bound(self, factory, monkeypatch):
        # Every term has degree sum |x_i| - 2: above dim the residual is zero
        # with no bracket evaluated; at dim the shuffle sum is still taken.
        # Below dim, with constants among the arguments, the skipped shuffles
        # must not change the residual.
        pair = factory()
        rng = sampling.rng_for(160)
        below = sampling.rng_for(161)
        calls = Counter()
        original = linfty.n_bracket

        def counted(*call):
            calls["n_bracket"] += 1
            return original(*call)

        monkeypatch.setattr(linfty, "n_bracket", counted)
        nonzero = 0
        for n, p, q in ((3, 2, 2), (4, 2, 3), (4, 3, 2), (5, 2, 4), (5, 3, 3), (5, 4, 2)):
            for kind in ("above", "above", "at", "at", "below", "below with a constant"):
                draw = rng if kind in ("above", "at") else below
                while True:
                    degrees = [draw.randint(0, min(pair.dim, 3)) for _ in range(n)]
                    excess = sum(degrees) - 2 - pair.dim
                    if kind == "above":
                        fits = excess > 0
                    elif kind == "at":
                        fits = excess == 0
                    else:
                        fits = excess < 0 and (kind == "below" or 0 in degrees)
                    if fits:
                        break
                args = [sampling.random_homogeneous(pair, draw, d) for d in degrees]
                calls.clear()
                got = weak_jacobi_residual(pair, p, q, args)
                if kind == "above":
                    assert got.is_zero()
                    assert calls["n_bracket"] == 0
                else:
                    if kind == "at":
                        assert calls["n_bracket"] > 0
                    assert got == weak_jacobi_shuffle(pair, p, q, args)
                    nonzero += not got.is_zero()
        # Jacobi fails on the perturbed pairs, and the bound keeps their residuals.
        assert (nonzero > 0) == (factory in (perturbed_sl2, halved_perturbed_sl2))

    @pytest.mark.parametrize(
        "factory", [perturbed_sl2, halved_perturbed_sl2], ids=["perturbed-sl2", "perturbed-sl2-1/2"]
    )
    @pytest.mark.parametrize("n, cases, failing", [(3, 120, 9), (4, 660, 20)])
    def test_every_basis_multiset_on_perturbed_sl2(self, factory, n, cases, failing):
        # The residual is multilinear and graded symmetric, so every multiset
        # of unit basis monomials and every split decides the identity at
        # arity n; the corrupted bracket [e1, e2] = e3 + c e1 fails on exactly
        # these.  At c = 1/2 a nonzero residual lies over D_pair**2 = 4.
        pair = factory()
        seen = []
        for args in itertools.combinations_with_replacement(list(all_monomials(pair)), n):
            for p in range(2, n):
                got = weak_jacobi_residual(pair, p, n + 1 - p, args)
                assert got == weak_jacobi_shuffle(pair, p, n + 1 - p, list(args))
                seen.append(not got.is_zero())
        assert (len(seen), sum(seen)) == (cases, failing)

    def test_every_basis_multiset_on_gl2_at_arity_three(self):
        pair = gl2()
        seen = 0
        for args in itertools.combinations_with_replacement(list(all_monomials(pair)), 3):
            assert weak_jacobi_residual(pair, 2, 2, args).is_zero()
            seen += 1
        assert seen == 816

    def test_arguments_of_another_pair_are_refused(self):
        # Also when fewer than three arguments are non-constant, so that no
        # shuffle is bracketed.
        pair, other = sl2(), gl2()
        e1, e2 = Multivector.monomial(pair, (1,)), Multivector.monomial(pair, (2,))
        one = Multivector.monomial(pair, ())
        for foreign in (Multivector.monomial(other, (1,)), Multivector.monomial(other, ())):
            for args in ([e1, e2, foreign], [foreign, e1, e2], [e1, foreign, one]):
                with pytest.raises(ValueError, match="does not belong to the given pair"):
                    weak_jacobi_residual(pair, 2, 2, args)

    def test_invalid_split_rejected(self):
        pair = sl2()
        args = [Multivector.monomial(pair, (1,))] * 3
        with pytest.raises(ValueError):
            weak_jacobi_residual(pair, 1, 3, args)
        with pytest.raises(ValueError):
            weak_jacobi_residual(pair, 2, 3, args)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_aggregated_sum_vanishes(self, n):
        # The inner arities 1 and n add nothing: the arity-one bracket is zero.
        for pair in (sl2(), cartan(2)):
            rng = sampling.rng_for(131 + n)
            for _ in range(8):
                args = [
                    sampling.random_homogeneous(pair, rng, rng.randint(0, 2))
                    for _ in range(n)
                ]
                total = Multivector.zero(pair)
                for q in range(2, n):
                    total = total + weak_jacobi_residual(pair, n + 1 - q, q, args)
                assert total.is_zero()


class TestCEDifferential:
    def test_rejects_cartan(self):
        pair = cartan(2)
        with pytest.raises(UnsupportedPairError):
            ce_differential(pair, Multivector.from_scalar(pair, pair.scalar_one()))

    def test_golden_values_sl2(self):
        pair = sl2()
        e = Multivector.monomial(pair, (1,))
        f = Multivector.monomial(pair, (2,))
        h = Multivector.monomial(pair, (3,))
        assert ce_differential(pair, wedge(pair, e, f)) == h
        assert ce_differential(pair, wedge(pair, wedge(pair, e, f), h)).is_zero()

    def test_zero_on_scalars_and_vectors(self):
        pair = sl2()
        assert ce_differential(pair, Multivector.from_scalar(pair, pair.scalar_one())).is_zero()
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
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
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

    def test_empty_args_rejected(self):
        with pytest.raises(ValueError, match="at least one argument"):
            injection_morphism_residual(sl2(), [])

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

    def test_multivector_arguments_are_refused(self):
        pair = sl2()
        args = [Multivector.monomial(pair, (1,)), Multivector.monomial(pair, (2,))]
        with pytest.raises(TypeError, match="GradedPairElement"):
            check_linfty_morphism(
                pair, injection_family(pair), BracketFamily(pair), 2, args
            )

    def test_arity_cap_rejects_beyond_limit(self):
        pair = sl2()
        args = [
            GradedPairElement(pair.scalar_zero(), pair.generator(1)) for _ in range(6)
        ]
        with pytest.raises(ValueError, match="cap"):
            check_linfty_morphism(
                pair, injection_family(pair), BracketFamily(pair), 6, args
            )

    def test_other_families_are_refused(self):
        pair = sl2()
        args = [GradedPairElement(pair.scalar_const(1), pair.generator(g)) for g in (1, 2)]
        others = [
            lambda k: lambda elems: natural_injection(pair, elems),
            injection_family(sl2()),
            injection_family(gl2()),
        ]
        for f in others:
            with pytest.raises(TypeError, match="injection_family"):
                check_linfty_morphism(pair, f, BracketFamily(pair), 2, args)
        assert check_linfty_morphism(pair, injection_family(pair), BracketFamily(pair), 2, args).passed

    def test_injection_family_is_a_frozen_callable(self):
        pair = sl2()
        family = injection_family(pair)
        assert family == injection_family(pair)
        with pytest.raises(dataclasses.FrozenInstanceError):
            family.pair = gl2()
        elems = [GradedPairElement(pair.scalar_const(2), pair.generator(g)) for g in (1, 2, 3)]
        assert family(3)(elems) == natural_injection(pair, elems)

    def test_call_counts_at_arity_four(self, monkeypatch):
        # The table's 68 rows, one per pair of blocks and pattern of fixed
        # degrees, make one binary bracket per pair of blocks, argument left
        # out and twisted word: 43 here, against 208 terms with one per
        # choice of parts.  On this trivial-scalar target the 10 whose other
        # words are all constant are skipped, which leaves 33.  The left side
        # is built from the embedded arguments' words: no injection is
        # evaluated, and each argument is embedded once.
        pair = sl2()
        args = [
            GradedPairElement(pair.scalar_const(c), pair.generator(g))
            for c, g in ((2, 1), (-1, 2), (3, 3), (1, 1))
        ]
        right = _pair_table(4)[2]
        assert sum(len(rows) for _, _, groups in right for _, _, rows in groups) == 68
        assert sum(len(groups) for _, _, groups in right) == 43
        counts = Counter()
        for name in ("n_bracket", "natural_injection", "embed"):
            original = getattr(linfty, name)

            def counted(*call, name=name, original=original):
                counts[name] += 1
                return original(*call)

            monkeypatch.setattr(linfty, name, counted)
        assert injection_morphism_residual(pair, args).is_zero()
        assert 0 < counts["n_bracket"] <= 33
        assert counts["natural_injection"] == 0
        assert counts["embed"] <= len(args)

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    def test_a_call_leaves_no_reference_cycles(self, factory):
        # Words kept alive by a cycle would wait for the cyclic collector and
        # raise the peak memory of long runs.
        pair = factory()
        rng = sampling.rng_for(199)
        args = [sampling.random_pair_element(pair, rng, ensure_mixed=True) for _ in range(4)]
        gc.collect()
        gc.disable()
        try:
            injection_morphism_residual(pair, args)
            assert gc.collect() == 0
        finally:
            gc.enable()


    def test_a_source_bracket_outside_the_target_is_refused(self):
        # [e2, e3] = e1 - e4 in gl2, and sl2 has no e4.
        source, target = gl2(), sl2()
        args = [
            GradedPairElement(source.scalar_const(c), source.generator(g)) for c, g in ((1, 1), (0, 2), (2, 3))
        ]
        with pytest.raises(ValueError, match=r"monomial \(4,\) has indices outside 1\.\.3"):
            linfty._structure_equation_residual(source, target, args)

    def test_coefficients_of_another_scalar_ring_are_refused(self):
        source, target = cartan(3), cartan(2)
        rng = sampling.rng_for(5)
        args = [sampling.random_pair_element(source, rng, ensure_mixed=True) for _ in range(3)]
        with pytest.raises(ValueError, match="coefficient does not belong to this pair"):
            linfty._structure_equation_residual(source, target, args)


class TestInnerBracketIsSymmetricSchouten:
    """The structure equation's left side brackets embedded parts with
    ``sn_sym``: on ``A (+) g`` that is the embedded associated bracket."""

    @pytest.mark.parametrize(
        "factory",
        [sl2, gl2, solvable4, perturbed_sl2, lambda: cartan(2), *FRACTIONAL_PAIRS],
        ids=["sl2", "gl2", "solvable4", "perturbed-sl2", "cartan2", *FRACTIONAL_IDS],
    )
    def test_embedded_bracket_equals_sn_sym(self, factory):
        pair = factory()
        rng = sampling.rng_for(251)
        for trial in range(20):
            u, v = (sampling.random_pair_element(pair, rng, ensure_mixed=(trial % 2 == 0)) for _ in range(2))
            # Each choice of parts, and the whole elements by bilinearity.
            parts = itertools.product(source_parts(pair, u), source_parts(pair, v))
            for x, y in [(u, v), *((a, b) for (a, _), (b, _) in parts)]:
                expected = embed(pair, associated_bracket(pair, x, y))
                assert sn_sym(pair, embed(pair, x), embed(pair, y)) == expected


class TestStrictMorphism:
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
    """The structure-equation evaluator equals the ordered-composition sum exactly."""

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_injection(self, factory, n):
        pair = factory()
        rng = sampling.rng_for(167 + n)
        for trial in range(3):
            args = [
                sampling.random_pair_element(pair, rng, ensure_mixed=(trial % 2 == 0))
                for _ in range(n)
            ]
            expected = ordered_structure_equation_residual(
                pair, injection_family(pair), pair, args
            )
            assert injection_morphism_residual(pair, args) == expected

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
                    source, family, target, args
                )
                report = check_linfty_morphism(source, family, BracketFamily(target), n, args)
                assert (report.passed, report.residual) == (expected.is_zero(), str(expected))
                nonzero += not expected.is_zero()
        assert nonzero > 0


class TestStructureEquationMatchesPartsOracle:
    """The sum over pairs of blocks, each with its larger block summed out,
    equals the sum with one term per choice of homogeneous parts and set
    partition, rendered residual for rendered residual, and the sum over
    every set partition with its largest block summed out."""

    @pytest.mark.parametrize(
        "source, target, arities",
        [
            (sl2, None, range(2, 7)),
            (gl2, None, range(2, 7)),
            (solvable4, None, range(2, 7)),
            (perturbed_sl2, sl2, range(2, 7)),
            (lambda: cartan(2), None, range(2, 7)),
            *((factory, None, range(2, 6)) for factory in FRACTIONAL_PAIRS),
        ],
        ids=["sl2", "gl2", "solvable4", "perturbed-sl2-into-sl2", "cartan2", *FRACTIONAL_IDS],
    )
    def test_equal_residuals(self, source, target, arities):
        source_pair = source()
        target_pair = target() if target else source_pair
        # Perturbed sl2 differs from sl2 in [e1, e2]: start with e1 and e2.
        pinned = [
            GradedPairElement(source_pair.scalar_const(1), source_pair.generator(1)),
            GradedPairElement(source_pair.scalar_zero(), source_pair.generator(2)),
        ]
        rng = sampling.rng_for(211)
        nonzero = 0
        for n in arities:
            for trial in range(2):
                args = [
                    sampling.random_pair_element(source_pair, rng, ensure_mixed=(trial == 0))
                    for _ in range(n)
                ]
                if trial == 0:
                    args[:2] = pinned
                expected = structure_equation_by_parts(source_pair, target_pair, args)
                got = linfty._structure_equation_residual(source_pair, target_pair, args)
                assert str(got) == str(expected), (n, trial)
                assert got == structure_equation_twisted(source_pair, target_pair, args), (n, trial)
                nonzero += not expected.is_zero()
        assert (nonzero > 0) == (target is not None)

    def test_arity_seven_into_another_bracket(self):
        source_pair, target_pair = perturbed_sl2(), sl2()
        rng = sampling.rng_for(223)
        args = [
            GradedPairElement(source_pair.scalar_const(1), source_pair.generator(1)),
            GradedPairElement(source_pair.scalar_zero(), source_pair.generator(2)),
            *(sampling.random_pair_element(source_pair, rng, ensure_mixed=True) for _ in range(5)),
        ]
        got = linfty._structure_equation_residual(source_pair, target_pair, args)
        assert not got.is_zero()
        assert got == structure_equation_twisted(source_pair, target_pair, args)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_arity_nine_in_bounded_memory(self):
        # The sum over Bell(9) - 1 partitions and patterns of outside degrees
        # held 1,206,482 table rows, and its process peaked near 212 MB; the
        # sum over pairs of blocks holds 23,298.  A fresh interpreter reports
        # the peak resident set of its own address space (tracemalloc would
        # slow the call down fifteenfold, and ru_maxrss keeps the peak of the
        # process it was started from).
        child = (
            "from schoutencalc import linfty, sampling\n"
            "from schoutencalc.instances import sl2\n"
            "pair = sl2()\n"
            "rng = sampling.rng_for(227)\n"
            "args = [sampling.random_pair_element(pair, rng, ensure_mixed=True) for _ in range(9)]\n"
            "print(linfty.injection_morphism_residual(pair, args).is_zero())\n"
            "print(*[line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(linfty.__file__).parents[1]), *sys.path]))
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        zero, peak_kib = proc.stdout.split()
        assert zero == "True"
        assert int(peak_kib) < 64 * 1024


class TestPatternTable:
    """The per-arity table of the structure equation: its rows and words,
    and residuals on arguments whose parts are missing."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_row_per_partition_and_outside_pattern(self, n):
        # The partitions are the splits of all arguments, or of all but one
        # r, into blocks F and S, and the patterns those of the degrees
        # outside the larger block, which is summed out.
        words, left, right = _pair_table(n)
        splits = [(-1, blocks) for blocks in set_partitions(n) if len(blocks) == 2]
        for r in range(n if n > 1 else 0):
            rest = [k + 1 for k in range(n) if k != r]
            splits += [
                (r, tuple(tuple(rest[i - 1] for i in b) for b in blocks))
                for blocks in set_partitions(n - 1)
                if len(blocks) == 2
            ]
        expected = sum(2 ** (min(map(len, blocks)) + (r >= 0)) for r, blocks in splits)
        assert expected == {1: 0, 4: 68, 8: 7184}.get(n, expected)
        assert len(left) == n * (n - 1) // 2
        # A word's prefix precedes it, and no word is listed twice.
        assert all(prefix < w for w, (_, _, prefix) in enumerate(words))
        assert len(set(words)) == len(words)

        def spell(w):
            """The word's arguments, one-based, and units, in increasing order."""
            spelled = []
            while w >= 0:
                k, u, w = words[w]
                spelled.append((k + 1, u))
            return tuple(zip(*reversed(spelled)))

        seen = set()
        for r, dr, groups in right:
            assert dr in ((0, 1) if r >= 0 else (0,))
            for w, summed_first, rows in groups:
                summed, twists = spell(w)
                assert min(twists) >= 2
                for s, factor in rows:
                    fixed, pattern = spell(s)
                    assert max(pattern) <= 1
                    first, second = (summed, fixed) if summed_first else (fixed, summed)
                    assert list(first) == sorted(first) and list(second) == sorted(second)
                    assert first[0] < second[0]
                    assert sorted(first + second + ((r + 1,) if r >= 0 else ())) == list(range(1, n + 1))
                    assert len(summed) > len(fixed) or len(summed) == len(fixed) and summed_first
                    assert abs(factor) == math.factorial(len(first) - 1) * math.factorial(len(second) - 1)
                    seen.add((r, first, second, dr, pattern))
        assert sum(len(rows) for _, _, groups in right for _, _, rows in groups) == len(seen) == expected
        assert {(r, (first, second)) for r, first, second, _, _ in seen} == set(splits)
        assert _pair_table(n) is _pair_table(n)

    def test_block_weights_sum_to_one_on_at_most_one_argument(self):
        # The collapse: summed over the partitions of m arguments, the
        # product of the weights w(|B|) = (-1)**(|B|-1) (|B|-1)! is 1 when
        # m <= 1 and 0 otherwise, so only brackets leaving at most one
        # argument out survive.
        def w(size):
            return (-1) ** (size - 1) * math.factorial(size - 1)

        for m in range(1, 9):
            assert linfty._weight(m) == w(m)
            assert sum(math.prod(w(len(b)) for b in blocks) for blocks in set_partitions(m)) == (m <= 1)

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)], ids=["sl2", "cartan2"])
    def test_pure_and_zero_arguments(self, factory):
        # Rows asking for a missing part are skipped; a zero argument leaves
        # only rows whose words are zero.
        pair = factory()
        rng = sampling.rng_for(257)
        zero = GradedPairElement(pair.scalar_zero(), Vector.zero())
        for n in (2, 3, 4, 5):
            for trial in range(4):
                args = [sampling.random_pair_element(pair, rng) for _ in range(n)]
                for k in rng.sample(range(n), rng.randint(1, n)):
                    element = args[k]
                    if trial == 3 and k == 0:
                        args[k] = zero
                    elif rng.random() < 0.5 and not element.vector.is_zero():
                        args[k] = GradedPairElement(pair.scalar_zero(), element.vector)
                    elif not element.scalar.is_zero():
                        args[k] = GradedPairElement(element.scalar, Vector.zero())
                got = linfty._structure_equation_residual(pair, pair, args)
                assert got == structure_equation_twisted(pair, pair, args), (n, trial)
                assert got.is_zero()


class TestNoFractionView:
    """A residual or a Cartan n-bracket reaches its zero test on int forms
    alone: not one kernel result has its ``Fraction`` view built.  Each case
    returns the computation and the zero test's expected answer, read only
    after the count."""

    @staticmethod
    def injection_case():
        pair = sl2()
        rng = sampling.rng_for(233)
        args = [sampling.random_pair_element(pair, rng, ensure_mixed=True) for _ in range(4)]
        return lambda: injection_morphism_residual(pair, args), lambda: True

    @staticmethod
    def weak_jacobi_case():
        pair = gl2()
        rng = sampling.rng_for(239)
        args = [sampling.random_homogeneous(pair, rng, rng.randint(0, 2)) for _ in range(5)]
        return lambda: weak_jacobi_residual(pair, 3, 3, args), lambda: True

    @staticmethod
    def cartan_case():
        pair = cartan(3)
        rng = sampling.rng_for(241)
        x, y, a, b, c, d = (sampling.random_homogeneous(pair, rng, 1) for _ in range(6))
        # A kernel result of tensor degrees 2 and 1, split into parts on its int form.
        z = wedge(pair, a, b) + sn_antisym(pair, c, d)
        assert tensor_degree(z) == INHOMOGENEOUS
        args = [x, wedge(pair, y, x), z]
        return lambda: n_bracket(pair, args), lambda: n_bracket_hom_parts(pair, args).is_zero()

    @pytest.mark.parametrize("case", ["injection_case", "weak_jacobi_case", "cartan_case"])
    def test_no_terms_read(self, monkeypatch, case):
        compute, expected = getattr(self, case)()
        fills = []
        original = exterior.Multivector.terms.fget

        def counted(self):
            if self._terms is None:
                fills.append(self._form)
            return original(self)

        monkeypatch.setattr(exterior.Multivector, "terms", property(counted))
        zero = compute().is_zero()
        assert fills == []
        monkeypatch.undo()
        assert zero == expected()


def snapshot(value):
    """Copies of a value's term maps and of the term maps of its ``Scalar``s."""
    if isinstance(value, GradedPairElement):
        return dict(value.scalar.terms), snapshot(value.vector)
    return {key: dict(c.terms) for key, c in value.terms.items()}


class TestArgumentsAreNotMutated:
    """The in-place sums add only into maps they built, never into an argument's."""

    @pytest.mark.parametrize("factory", [sl2, lambda: cartan(2)])
    def test_injection_residual(self, factory):
        pair = factory()
        rng = sampling.rng_for(193)
        for n in (2, 3, 4):
            args = [sampling.random_pair_element(pair, rng, ensure_mixed=True) for _ in range(n)]
            args[-1] = args[0]
            before = [snapshot(a) for a in args]
            first = injection_morphism_residual(pair, args)
            assert [snapshot(a) for a in args] == before
            assert injection_morphism_residual(pair, args) == first

    @pytest.mark.parametrize("factory", [gl2, lambda: cartan(2)])
    def test_n_bracket_weak_jacobi_and_add(self, factory):
        pair = factory()
        rng = sampling.rng_for(197)
        for n in (2, 3, 4):
            args = [sampling.random_homogeneous(pair, rng, rng.randint(0, 2)) for _ in range(n)]
            args[-1] = args[0]
            before = [snapshot(a) for a in args]
            bracket = n_bracket(pair, args)
            if n > 2:
                weak_jacobi_residual(pair, 2, n - 1, args)
            total = args[0] + args[1]
            total = total + args[0]
            assert [snapshot(a) for a in args] == before
            assert n_bracket(pair, args) == bracket
            assert total == args[0].scaled(2) + args[1]


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
