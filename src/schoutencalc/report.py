"""Result records for identity checks and the one loop that produces them."""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

__all__ = ["BracketReport", "run_identity"]


@dataclass(frozen=True)
class BracketReport:
    """Outcome of one identity check: residual rendering plus verdict."""

    identity: str
    passed: bool
    residual: str = "0"
    witness: list[str] = field(default_factory=list)
    n: int | None = None
    p: int | None = None
    q: int | None = None
    seed: int | None = None

    @classmethod
    def success(cls, identity: str, **meta) -> BracketReport:
        return cls(identity, True, **meta)

    @classmethod
    def failure(cls, identity: str, residual: str, **meta) -> BracketReport:
        return cls(identity, False, residual, **meta)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "pass": self.passed,
            "residual": self.residual,
            "witness": list(self.witness),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(", ", ": "))

    def render_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extras = [
            f"{key}={value}"
            for key, value in (("n", self.n), ("p", self.p), ("q", self.q), ("seed", self.seed))
            if value is not None
        ]
        line = f"{verdict} {self.identity}"
        if extras:
            line += " [" + ", ".join(extras) + "]"
        if not self.passed:
            line += f" residual={self.residual}"
            if self.witness:
                line += " witness=" + "; ".join(self.witness)
        return line


def run_identity(
    identity: str,
    cases: Iterable,
    residual: Callable,
    *,
    show: Callable[[object], str] = str,
    **meta,
) -> BracketReport:
    """Check an identity case by case; the first nonzero residual fails it.

    ``cases`` yields argument sequences and is consumed lazily: nothing is
    drawn after the first failure, so a seeded generator reproduces the same
    report.  ``residual(case)`` returns a value with ``is_zero()``.  A
    failure renders the residual and each argument of its case (the witness)
    with ``show``; ``meta`` (``n``, ``p``, ``q``, ``seed``) goes into the
    report either way.
    """
    for case in cases:
        value = residual(case)
        if not value.is_zero():
            return BracketReport.failure(identity, show(value), witness=[show(v) for v in case], **meta)
    return BracketReport.success(identity, **meta)
