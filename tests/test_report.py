"""``run_identity``: lazy cases, the first failure, report fields."""

import dataclasses

import pytest

from schoutencalc.exterior import Multivector
from schoutencalc.instances import sl2
from schoutencalc.report import BracketReport, run_identity


def test_stops_drawing_at_the_first_failure():
    pair = sl2()
    drawn = []

    def cases():
        for k in range(5):
            drawn.append(k)
            yield (Multivector.monomial(pair, (1,), pair.scalar_const(k)),)

    report = run_identity("probe", cases(), lambda case: case[0], seed=7, n=1)
    assert drawn == [0, 1]
    assert (report.passed, report.residual, report.witness) == (False, "e1", ["e1"])
    assert (report.seed, report.n, report.p) == (7, 1, None)


def test_passes_when_every_residual_is_zero():
    pair = sl2()
    cases = [(Multivector.zero(pair),)] * 3
    report = run_identity("probe", cases, lambda case: case[0], show=repr, q=2)
    assert report == BracketReport.success("probe", q=2)


def test_show_renders_residual_and_witness():
    pair = sl2()
    x = Multivector.monomial(pair, (2,))
    report = run_identity("probe", [(x,)], lambda case: case[0], show=repr)
    assert report.residual == repr(x)
    assert report.witness == [repr(x)]


def test_reports_are_frozen():
    report = BracketReport.success("probe")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.seed = 1
