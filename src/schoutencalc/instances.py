"""Bundled pair instances, and the ``builtin:<name>`` and document specs that select one.

Generator indexing: sl2 uses (e, f, h) = (1, 2, 3) with [e,f] = h,
[e,h] = -2e, [f,h] = 2f; gl2 uses the elementary matrices
(E11, E12, E21, E22) = (1, 2, 3, 4); the solvable example is a rank-one
extension of the Heisenberg bracket by a grading derivation.
"""

from __future__ import annotations

from .errors import PairDocumentError
from .pairs import LieRinehartPair, load_pair

__all__ = [
    "BUILTIN_PAIRS",
    "abelian",
    "builtin_pair",
    "cartan",
    "gl2",
    "pair_from_spec",
    "perturbed_sl2",
    "sl2",
    "solvable4",
]


def sl2() -> LieRinehartPair:
    return LieRinehartPair.lie_algebra(
        3,
        {(1, 2): {3: 1}, (1, 3): {1: -2}, (2, 3): {2: 2}},
        name="sl2",
    )


def gl2() -> LieRinehartPair:
    # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb on the basis E11..E22.
    return LieRinehartPair.lie_algebra(
        4,
        {
            (1, 2): {2: 1},
            (1, 3): {3: -1},
            (2, 3): {1: 1, 4: -1},
            (2, 4): {2: 1},
            (3, 4): {3: -1},
        },
        name="gl2",
    )


def solvable4() -> LieRinehartPair:
    # [e4, e1] = e1, [e4, e2] = e2, [e4, e3] = 2 e3, [e1, e2] = e3.
    return LieRinehartPair.lie_algebra(
        4,
        {
            (1, 2): {3: 1},
            (1, 4): {1: -1},
            (2, 4): {2: -1},
            (3, 4): {3: -2},
        },
        name="solvable4",
    )


def abelian(dim: int) -> LieRinehartPair:
    return LieRinehartPair.lie_algebra(dim, {}, name=f"abelian{dim}")


def cartan(m: int) -> LieRinehartPair:
    return LieRinehartPair.cartan(m)


def perturbed_sl2() -> LieRinehartPair:
    """sl2 with one corrupted structure constant; skips load-time validation."""
    return LieRinehartPair.lie_algebra(
        3,
        {(1, 2): {3: 1, 1: 1}, (1, 3): {1: -2}, (2, 3): {2: 2}},
        name="sl2-corrupted",
        validate=False,
    )


BUILTIN_PAIRS = {
    "sl2": sl2,
    "gl2": gl2,
    "solvable4": solvable4,
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "cartan1": lambda: cartan(1),
    "cartan2": lambda: cartan(2),
    "cartan3": lambda: cartan(3),
}


def builtin_pair(name: str) -> LieRinehartPair:
    try:
        return BUILTIN_PAIRS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin pair {name!r}; choices: {sorted(BUILTIN_PAIRS)}") from None


def pair_from_spec(spec: str | dict, *, validate: bool = True) -> LieRinehartPair:
    """A pair from ``builtin:<name>`` or a document (path, JSON text or parsed dict).

    An unknown builtin name is a :class:`PairDocumentError`, like a bad
    document.  ``validate=False`` skips the structure check, for builtins too.
    """
    if isinstance(spec, str) and spec.startswith("builtin:"):
        try:
            pair = builtin_pair(spec[len("builtin:") :])
        except KeyError as exc:
            raise PairDocumentError(exc.args[0]) from exc
        if not validate:
            pair = LieRinehartPair(pair.kind, pair.dim, pair.brackets, name=pair.name, validate=False)
        return pair
    return load_pair(spec, validate=validate)
