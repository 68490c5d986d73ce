"""Permutations, shuffle enumeration and the Koszul sign machinery.

Every sign-weighted sum in the bracket calculus is driven by the
primitives defined here: enumeration of block-monotone (shuffle)
permutations and of unordered set partitions, and the sign picked up when a
permutation reorders a word of graded elements.  An adjacent swap of factors
with degrees ``d`` and ``d'`` costs ``(-1)**(d*d')``; the total sign is
independent of the chosen decomposition into adjacent swaps.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

__all__ = ["Permutation", "koszul_sign", "parity_sign", "set_partitions", "shuffles"]


class Permutation:
    """A permutation of ``{1, ..., k}`` stored by its image tuple.

    ``p(i)`` is 1-based: ``Permutation((2, 3, 1))(1) == 2``.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(i) for i in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs!r}")
        self.images = imgs

    @classmethod
    def identity(cls, k: int) -> Permutation:
        return cls(tuple(range(1, k + 1)))

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise ValueError(f"index {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"

    def compose(self, other: Permutation) -> Permutation:
        """Functional composite ``self . other``: ``i -> self(other(i))``.

        Acting on tuples on the right, ``(v . self) . other == v . (self . other)``
        where ``(v . s)_i = v[s(i)]``.
        """
        if len(other) != len(self):
            raise ValueError("length mismatch in composition")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for pos, img in enumerate(self.images, start=1):
            inv[img - 1] = pos
        return Permutation(inv)

    @property
    def sign(self) -> int:
        """Ordinary permutation sign, computed by inversion count."""
        inv = 0
        imgs = self.images
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                if imgs[i] > imgs[j]:
                    inv += 1
        return -1 if inv % 2 else 1


def parity_sign(degree: int) -> int:
    """``+1`` for even degree, ``-1`` for odd; negative degrees by parity."""
    return -1 if degree % 2 else 1


def koszul_sign(s: Permutation, degrees: Sequence[int]) -> int:
    """Sign relating a graded word to its reordering by ``s``.

    Computed by bubble-sorting the image tuple back to the identity and
    multiplying ``(-1)**(d_a * d_b)`` for each adjacent swap of the elements
    with (original) degrees ``d_a`` and ``d_b``.  For all-odd degree vectors
    this is the ordinary permutation sign, for all-even vectors it is ``+1``.
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


def shuffles(parts: Sequence[int]) -> Iterator[Permutation]:
    """Stream the ``(p_1, ..., p_n)``-shuffles of ``S_{p_1+...+p_n}``.

    A shuffle is increasing within each consecutive block of positions; the
    stream is strictly lexicographic on image tuples and yields each shuffle
    exactly once (multinomial count in total).  Bad parts raise immediately,
    not on first consumption.
    """
    sizes = tuple(int(p) for p in parts)
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
        yield Permutation(images)


def set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The unordered set partitions of ``{1, ..., n}``, Bell-number many.

    Each block is increasing and blocks are ordered by their least element,
    so concatenating the blocks gives a shuffle of the block sizes.
    """
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    partitions: list[list[list[int]]] = [[[1]]]
    for i in range(2, n + 1):
        grown = []
        for blocks in partitions:
            for j in range(len(blocks)):
                grown.append(blocks[:j] + [blocks[j] + [i]] + blocks[j + 1 :])
            grown.append(blocks + [[i]])
        partitions = grown
    return [tuple(tuple(block) for block in blocks) for blocks in partitions]
