"""Kernel-output digests: one sha256 per pair over about 2,000 rendered results.

Each pair gets seeded inhomogeneous arguments whose coefficients have
coprime denominators (and numerators beyond 64 bits), and renders the
results of ``wedge``, ``sn_antisym``, ``sn_sym``, ``n_bracket``, ``+``,
``-`` and ``scaled``, kernel results fed back into the kernels included.
The digests in ``data/kernel_digest.json`` pin those results exactly, so a
change to how coefficients are stored or summed cannot change a value
unnoticed.  Re-record them (``python tests/test_kernel_digest.py``) only
for a deliberate change of results.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from schoutencalc.exterior import Multivector, wedge
from schoutencalc.instances import cartan, gl2, sl2, solvable4
from schoutencalc.linfty import n_bracket
from schoutencalc.pairs import load_pair
from schoutencalc.scalars import Scalar
from schoutencalc.schouten import sn_antisym, sn_sym
from test_schouten import FRACTIONAL_HEISENBERG

DIGESTS = Path(__file__).with_name("data") / "kernel_digest.json"

# name -> (factory, seed)
PAIRS = {
    "sl2": (sl2, 11),
    "gl2": (gl2, 13),
    "solvable4": (solvable4, 17),
    "cartan1": (lambda: cartan(1), 19),
    "cartan2": (lambda: cartan(2), 23),
    "cartan3": (lambda: cartan(3), 29),
    "heisenberg-2/3": (lambda: load_pair(FRACTIONAL_HEISENBERG), 31),
}
COEFFS = (
    Fraction(1, 3),
    Fraction(-2, 7),
    Fraction(5, 11),
    Fraction(-13, 4),
    Fraction(3),
    Fraction(-1),
    Fraction(2**65 + 1, 9),
)
FACTORS = (0, 1, -1, 6, Fraction(-7, 10), Fraction(1, 1))
CASES = 36


def _scalar(pair, rng):
    terms = {}
    for _ in range(rng.randint(1, 3) if pair.nvars else 1):
        terms[tuple(rng.randint(0, 2) for _ in range(pair.nvars))] = rng.choice(COEFFS)
    return Scalar(pair.nvars, terms)


def _argument(pair, rng):
    """Inhomogeneous: a scalar part and one to three terms of degree up to 3."""
    terms = {(): _scalar(pair, rng)}
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(1, min(3, pair.dim))
        terms[tuple(sorted(rng.sample(range(1, pair.dim + 1), degree)))] = _scalar(pair, rng)
    return Multivector(pair, terms)


def _results(pair, rng):
    """Eight results per case, 36 cases."""
    for _ in range(CASES):
        x, y, z = (_argument(pair, rng) for _ in range(3))
        bracket = sn_antisym(pair, x, y)
        factor = rng.choice(FACTORS)
        yield wedge(pair, x, y)
        yield bracket
        yield sn_sym(pair, bracket, z)
        yield wedge(pair, bracket, z) - x
        yield bracket + sn_antisym(pair, z, bracket)
        yield bracket.scaled(factor) + y.scaled(factor)
        yield bracket.scaled(_scalar(pair, rng)) - wedge(pair, z, y)
        yield n_bracket(pair, [x, y, z])


def digest(name):
    factory, seed = PAIRS[name]
    pair = factory()
    h = hashlib.sha256()
    for value in _results(pair, random.Random(seed)):
        h.update(str(value).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_kernel_digest(name):
    assert digest(name) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({name: digest(name) for name in sorted(PAIRS)}, indent=2) + "\n")
