"""Permutation, shuffle and Koszul-sign behaviour."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schoutencalc.graded import Permutation, koszul_sign, parity_sign, set_partitions, shuffles


def brute_force_shuffles(parts):
    """Oracle: filter the full symmetric group by block monotonicity."""
    total = sum(parts)
    out = []
    for images in itertools.permutations(range(1, total + 1)):
        ok = True
        offset = 0
        for size in parts:
            block = images[offset : offset + size]
            if list(block) != sorted(block):
                ok = False
                break
            offset += size
        if ok:
            out.append(images)
    return out


@st.composite
def permutations(draw, max_k=6):
    k = draw(st.integers(min_value=1, max_value=max_k))
    images = list(range(1, k + 1))
    # Fisher-Yates driven by drawn indices keeps shrinking sane.
    for i in range(k - 1, 0, -1):
        j = draw(st.integers(min_value=0, max_value=i))
        images[i], images[j] = images[j], images[i]
    return Permutation(images)


def degree_vectors(k):
    return st.lists(st.integers(min_value=-2, max_value=3), min_size=k, max_size=k)


class TestPermutation:
    def test_validates_images(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((0, 1))

    def test_call_is_one_based(self):
        s = Permutation((2, 3, 1))
        assert [s(i) for i in (1, 2, 3)] == [2, 3, 1]

    def test_compose_and_inverse(self):
        s = Permutation((2, 3, 1))
        assert s.compose(s.inverse()) == Permutation.identity(3)
        assert s.inverse().compose(s) == Permutation.identity(3)

    def test_sign(self):
        assert Permutation.identity(4).sign == 1
        assert Permutation((2, 1, 3)).sign == -1
        assert Permutation((2, 3, 1)).sign == 1


class TestKoszulSign:
    def test_identity_is_plus_one(self):
        assert koszul_sign(Permutation.identity(3), (5, 7, 2)) == 1

    def test_adjacent_swap_odd_odd(self):
        assert koszul_sign(Permutation((2, 1)), (1, 1)) == -1

    def test_adjacent_swap_even_odd(self):
        assert koszul_sign(Permutation((2, 1)), (2, 1)) == 1

    def test_three_cycle_all_odd(self):
        # Oracle: (2,3,1) is a product of two adjacent transpositions, each
        # contributing (-1)^(1*1); the composition rule multiplies them.
        t1 = Permutation((1, 3, 2))
        t2 = Permutation((2, 1, 3))
        degrees = (1, 1, 1)
        assert t2.compose(t1) == Permutation((2, 3, 1))
        expected = koszul_sign(t2, degrees) * koszul_sign(t1, degrees)
        assert expected == 1
        assert koszul_sign(Permutation((2, 3, 1)), degrees) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            koszul_sign(Permutation((1, 2)), (1,))

    @given(permutations(), st.data())
    def test_all_odd_degrees_give_ordinary_sign(self, s, data):
        degrees = data.draw(
            st.lists(
                st.integers(min_value=-1, max_value=3).map(lambda v: 2 * v + 1),
                min_size=len(s),
                max_size=len(s),
            )
        )
        assert koszul_sign(s, degrees) == s.sign

    @given(permutations(), st.data())
    def test_all_even_degrees_give_plus_one(self, s, data):
        degrees = data.draw(
            st.lists(
                st.integers(min_value=-2, max_value=3).map(lambda v: 2 * v),
                min_size=len(s),
                max_size=len(s),
            )
        )
        assert koszul_sign(s, degrees) == 1

    @given(st.data())
    @settings(max_examples=200)
    def test_multiplicativity(self, data):
        s = data.draw(permutations(max_k=5))
        k = len(s)
        t_raw = data.draw(permutations(max_k=5).filter(lambda p: len(p) <= k))
        if len(t_raw) != k:
            t = Permutation(tuple(t_raw.images) + tuple(range(len(t_raw) + 1, k + 1)))
        else:
            t = t_raw
        degrees = data.draw(degree_vectors(k))
        permuted = [degrees[s(i) - 1] for i in range(1, k + 1)]
        assert koszul_sign(s.compose(t), degrees) == koszul_sign(t, permuted) * koszul_sign(
            s, degrees
        )


class TestShuffles:
    def test_spec_examples(self):
        assert len(list(shuffles((2, 2)))) == math.comb(4, 2)
        assert len(list(shuffles((1, 1, 1)))) == 6
        assert [s.images for s in shuffles((2, 1))] == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            list(shuffles(()))
        with pytest.raises(ValueError):
            list(shuffles((2, 0)))

    @pytest.mark.parametrize(
        "parts",
        [(1,), (3,), (1, 2), (2, 3), (3, 2), (2, 2, 1), (1, 1, 2), (4, 1)],
    )
    def test_matches_brute_force(self, parts):
        produced = [s.images for s in shuffles(parts)]
        assert produced == brute_force_shuffles(parts)

    @pytest.mark.parametrize("parts", [(2, 2), (3, 1), (1, 2, 2), (2, 1, 1)])
    def test_count_is_multinomial(self, parts):
        count = len(list(shuffles(parts)))
        expected = math.factorial(sum(parts))
        for p in parts:
            expected //= math.factorial(p)
        assert count == expected

    @pytest.mark.parametrize("parts", [(2, 3), (3, 2), (2, 2, 2)])
    def test_block_monotonicity_and_uniqueness(self, parts):
        seen = set()
        for s in shuffles(parts):
            assert s.images not in seen
            seen.add(s.images)
            offset = 0
            for size in parts:
                block = [s(offset + i) for i in range(1, size + 1)]
                assert block == sorted(block)
                offset += size

    def test_lexicographic_order(self):
        for parts in [(2, 2), (2, 3), (1, 2, 2)]:
            images = [s.images for s in shuffles(parts)]
            assert images == sorted(images)


class TestSetPartitions:
    @pytest.mark.parametrize("n, bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
    def test_count_is_bell_number(self, n, bell):
        assert len(set_partitions(n)) == bell

    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_partition_covers_once_in_canonical_order(self, n):
        seen = set()
        for blocks in set_partitions(n):
            concatenation = [i for block in blocks for i in block]
            assert sorted(concatenation) == list(range(1, n + 1))
            assert all(list(block) == sorted(block) for block in blocks)
            assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
            assert frozenset(map(frozenset, blocks)) not in seen
            seen.add(frozenset(map(frozenset, blocks)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_concatenation_is_a_shuffle_of_the_block_sizes(self, n):
        for blocks in set_partitions(n):
            concatenation = Permutation([i for block in blocks for i in block])
            assert concatenation in set(shuffles([len(block) for block in blocks]))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            set_partitions(0)


class TestParitySign:
    @pytest.mark.parametrize("value, expected", [(0, 1), (1, -1), (-1, -1), (4, 1), (-3, -1)])
    def test_values(self, value, expected):
        assert parity_sign(value) == expected
