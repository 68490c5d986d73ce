"""Permutations, shuffle enumeration and the Koszul sign machinery.

Every sign-weighted sum in the bracket calculus is driven by the
primitives defined here: enumeration of block-monotone (shuffle)
permutations, and the sign picked up when a permutation reorders a word of
graded elements.  An adjacent swap of factors with degrees ``d`` and ``d'``
costs ``(-1)**(d*d')``; the total sign is independent of the chosen
decomposition into adjacent swaps.  Shuffle sums read
:func:`signed_shuffles`, which enumerates each shuffle family with its signs
once per pattern of degree parities.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Sequence
from operator import index

__all__ = [
    "Permutation",
    "koszul_sign",
    "parity_sign",
    "shuffles",
    "signed_shuffles",
]


class Permutation:
    """A permutation of ``{1, ..., k}`` stored by its image tuple, as :func:`shuffles` yields it.

    ``p(i)`` is 1-based: ``Permutation((2, 3, 1))(1) == 2``; a non-integral image raises ``TypeError``.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(map(index, images))
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs!r}")
        self.images = imgs

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Permutation:
        """Wrap ``images`` unchecked; it must be a tuple permuting ``1..k``."""
        out = object.__new__(cls)
        out.images = images
        return out

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise ValueError(f"index {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def parity_sign(degree: int) -> int:
    """``+1`` for even degree, ``-1`` for odd; negative degrees by parity."""
    return -1 if degree % 2 else 1


def koszul_sign(s: Permutation, degrees: Sequence[int]) -> int:
    """Sign relating a graded word to its reordering by ``s``.

    Computed by bubble-sorting the image tuple back to the identity and
    multiplying ``(-1)**(d_a * d_b)`` for each adjacent swap of the elements
    with (original) degrees ``d_a`` and ``d_b``.  For all-odd degree vectors
    this is the ordinary permutation sign, for all-even vectors it is ``+1``.
    Shuffle sums read the signs from :func:`signed_shuffles` instead.
    """
    if len(degrees) != len(s):
        raise ValueError(
            f"permutation length {len(s)} does not match degree vector length {len(degrees)}"
        )
    imgs = list(s.images)
    sign = 1
    for top in range(len(imgs), 1, -1):
        for j in range(top - 1):
            if imgs[j] > imgs[j + 1]:
                if (degrees[imgs[j] - 1] * degrees[imgs[j + 1] - 1]) % 2:
                    sign = -sign
                imgs[j], imgs[j + 1] = imgs[j + 1], imgs[j]
    return sign


def signed_shuffles(
    parts: Sequence[int], degrees: Sequence[int]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The ``parts``-shuffles with their Koszul signs on ``degrees``.

    One ``(order, sign)`` per shuffle ``s``, in the order :func:`shuffles`
    yields them: ``order`` is the zero-based image tuple (``order[k] ==
    s(k + 1) - 1``) and ``sign`` is ``koszul_sign(s, degrees)``.  The table
    depends only on ``parts`` and the degree parities; it is built once per
    such pair by :func:`shuffles` and :func:`koszul_sign` and then reused,
    so bad parts and a degree vector of the wrong length raise as they do.
    """
    return _signed_shuffles(tuple(parts), tuple([d % 2 for d in degrees]))


@functools.cache
def _signed_shuffles(parts: tuple[int, ...], parities: tuple[int, ...]) -> tuple:
    """The table of :func:`signed_shuffles`, a pure function of a key that the arity bounds."""
    return tuple((tuple([i - 1 for i in s.images]), koszul_sign(s, parities)) for s in shuffles(parts))


def shuffles(parts: Sequence[int]) -> Iterator[Permutation]:
    """Stream the ``(p_1, ..., p_n)``-shuffles of ``S_{p_1+...+p_n}``.

    A shuffle is increasing within each consecutive block of positions; the
    stream is strictly lexicographic on image tuples and yields each shuffle
    exactly once (multinomial count in total).  Bad parts raise immediately,
    not on first consumption; a non-integral part raises ``TypeError``.
    """
    sizes = tuple(map(index, parts))
    if not sizes:
        raise ValueError("parts must be nonempty")
    if any(p <= 0 for p in sizes):
        raise ValueError(f"parts must be positive: {sizes!r}")
    return _shuffle_stream(sizes)


def _shuffle_stream(sizes: tuple[int, ...]) -> Iterator[Permutation]:
    def gen(values: tuple[int, ...], remaining: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(remaining) == 1:
            yield values
            return
        head = remaining[0]
        for chosen in itertools.combinations(values, head):
            taken = set(chosen)
            rest = tuple(v for v in values if v not in taken)
            for tail in gen(rest, remaining[1:]):
                yield chosen + tail

    for images in gen(tuple(range(1, sum(sizes) + 1)), sizes):
        yield Permutation._trusted(images)
