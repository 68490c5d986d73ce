"""Command-line front end.

Commands::

    schoutencalc --pair PATH eval EXPR
    schoutencalc --pair PATH check SUITE [--n N] [--p P] [--q Q]
                 [--trials T] [--seed S] [--max-n N] [--morphism PATH]
    schoutencalc --pair PATH info

``--pair`` accepts a JSON document path or a ``builtin:<name>`` shortcut
(sl2, gl2, solvable4, abelian2, abelian3, cartan1..3).  ``SUITES`` lists
each suite with the optional flags it reads; ``--n``, ``--p``, ``--q`` or
``--morphism`` given to any other suite is a usage error.  A suite draws its
seeded cases here and feeds them to a library residual.  Exit codes: 0 all
checks pass, 1 an identity violation was found, 2 usage or expression error,
3 bad pair or morphism document.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import sampling
from .errors import PairDocumentError, ParseError, UnsupportedPairError
from .exterior import Multivector, associated_exterior_morphism
from .expr import evaluate
from .instances import pair_from_spec
from .linfty import (
    ce_differential,
    composition_identity_lhs,
    injection_morphism_residual,
    n_bracket,
    weak_jacobi_residual,
)
from .pairs import (
    LieRinehartPair,
    PairMorphism,
    check_pair_morphism,
    leibniz_residual,
    load_morphism,
    read_document,
)
from .report import run_identity
from .scalars import Scalar
from .schouten import (
    antisym_jacobi_residual,
    morphism_sn_residual,
    poisson_residual,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOCUMENT = 3


def _require_pair(pair: LieRinehartPair | None, parser: argparse.ArgumentParser) -> LieRinehartPair:
    if pair is None:
        parser.error("this command needs --pair")
    return pair


# Highest tensor degree of a sampled argument in the Schouten-layer suites.
_MAX_DEGREE = 3


def _random_homogeneous_args(pair, rng, n):
    return [sampling.random_homogeneous(pair, rng, rng.randint(0, min(2, pair.dim))) for _ in range(n)]


def _run_triples(identity, residual):
    """A runner of one report: ``residual(pair, x, y, z)`` on ``--trials`` seeded homogeneous triples."""

    def run(pair, args):
        rng = sampling.rng_for(args.seed)
        # Vectors and bivectors carry the most signal; scalars and top-degree
        # elements stay in the mix but less often.
        palette = [d for d in (0, 1, 1, 2, 2, _MAX_DEGREE) if d <= pair.dim]
        cases = (
            tuple(sampling.random_homogeneous(pair, rng, rng.choice(palette)) for _ in range(3))
            for _ in range(args.trials)
        )
        yield run_identity(identity, cases, lambda case: residual(pair, *case), seed=args.seed)

    return run


def _run_leibniz(pair, args):
    rng = sampling.rng_for(args.seed)
    cases = (
        (sampling.random_scalar(pair, rng), sampling.random_vector(pair, rng), sampling.random_vector(pair, rng))
        for _ in range(args.trials)
    )
    residual = lambda case: leibniz_residual(pair, *case)
    yield run_identity("leibniz", cases, residual, show=repr, seed=args.seed)


def _run_weak_jacobi(pair, args):
    split_given = args.p is not None or args.q is not None
    if split_given and args.n is None:
        raise ValueError("--p/--q need an explicit --n")
    for n in [3, 4] if args.n is None else [args.n]:
        if split_given:
            p = n + 1 - args.q if args.p is None else args.p
            q = n + 1 - args.p if args.q is None else args.q
            splits = [(p, q)]
        else:
            splits = [(p, n + 1 - p) for p in range(2, n) if n + 1 - p >= 2]
        if not splits:
            raise ValueError(f"no admissible (p, q) splits for n={n}")
        for p, q in splits:
            rng = sampling.rng_for(args.seed)
            cases = (_random_homogeneous_args(pair, rng, n) for _ in range(args.trials))
            residual = lambda sample: weak_jacobi_residual(pair, p, q, sample)
            yield run_identity("weak-jacobi", cases, residual, n=n, p=p, q=q, seed=args.seed)


def _run_morphism_injection(pair, args):
    for n in range(2, (args.n or 4) + 1):
        rng = sampling.rng_for(args.seed)
        cases = (
            [sampling.random_pair_element(pair, rng, ensure_mixed=(rng.random() < 0.5)) for _ in range(n)]
            for _ in range(args.trials)
        )
        residual = lambda sample: injection_morphism_residual(pair, sample)
        yield run_identity("morphism-injection", cases, residual, n=n, seed=args.seed)


def _run_morphism_strict(pair, args):
    if args.morphism:
        morphism = _load_morphism_document(args.morphism, pair)
    else:
        morphism = PairMorphism.identity(pair)
    validation = check_pair_morphism(morphism, trials=args.trials, seed=args.seed)
    yield validation
    if not validation.passed:
        return
    sn_rng = sampling.rng_for(args.seed)
    top = min(_MAX_DEGREE, morphism.source.dim)
    sn_cases = (
        tuple(sampling.random_homogeneous(morphism.source, sn_rng, sn_rng.randint(0, top)) for _ in range(2))
        for _ in range(args.trials)
    )
    sn_residual = lambda case: morphism_sn_residual(morphism, *case)
    yield run_identity("morphism-sn", sn_cases, sn_residual, seed=args.seed)

    def residual(sample):
        lhs = associated_exterior_morphism(morphism, n_bracket(morphism.source, sample))
        images = [associated_exterior_morphism(morphism, v) for v in sample]
        return lhs - n_bracket(morphism.target, images)

    rng = sampling.rng_for(args.seed)
    for n in range(2, (args.n or 4) + 1):
        cases = (_random_homogeneous_args(morphism.source, rng, n) for _ in range(args.trials))
        yield run_identity("morphism-strict", cases, residual, n=n, seed=args.seed)


def _load_morphism_document(path: str, default_source: LieRinehartPair) -> PairMorphism:
    try:
        doc = read_document(Path(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise PairDocumentError(f"cannot read morphism document: {exc}") from exc
    spec = doc.get("target")
    if spec is None:
        target = default_source
    else:
        target = pair_from_spec(spec if isinstance(spec, dict) else str(spec))
    return load_morphism(doc, default_source, target)


def _run_ce_square_zero(pair, args):
    rng = sampling.rng_for(args.seed)
    cases = ((sampling.random_multivector(pair, rng),) for _ in range(args.trials))
    residual = lambda case: ce_differential(pair, ce_differential(pair, case[0]))
    yield run_identity("ce-square-zero", cases, residual, seed=args.seed)


def _run_combinatorial(pair, args):
    for n in range(2, args.max_n + 1):
        # One case with no arguments; the residual is a rational number.
        residual = lambda _: Scalar.const(composition_identity_lhs(n) - Fraction(1, 2), 0)
        yield run_identity("combinatorial", [()], residual, n=n)


# Every suite, in the order the CLI lists them: its runner, and the optional
# flags it reads.  ``runner(pair, args)`` yields reports, and each is printed
# as soon as it is made.  ``--n``, ``--p``, ``--q`` or ``--morphism`` given
# to a suite that does not list it is refused.  ``--max-n`` is read by
# combinatorial alone but has a default, so every suite accepts it.
SUITES = {
    "leibniz": (_run_leibniz, ()),
    "jacobi-antisym": (_run_triples("jacobi-antisym", antisym_jacobi_residual), ()),
    # Weak Jacobi's (2, 2) split at n = 3 is the Sh(2, 1) sum of sn_sym, the arity-2 bracket.
    "jacobi-sym": (_run_triples("jacobi-sym", lambda pair, *xyz: weak_jacobi_residual(pair, 2, 2, xyz)), ()),
    "poisson": (_run_triples("poisson", poisson_residual), ()),
    "weak-jacobi": (_run_weak_jacobi, ("n", "p", "q")),
    "morphism-injection": (_run_morphism_injection, ("n",)),
    "morphism-strict": (_run_morphism_strict, ("n", "morphism")),
    "ce-square-zero": (_run_ce_square_zero, ()),
    "combinatorial": (_run_combinatorial, ()),
}


def _cmd_check(pair, args, parser) -> int:
    # Refusals of check's own arguments print check's usage line, not the top-level one.
    check_parser = args.check_parser
    runner, flags = SUITES[args.suite]
    for flag in ("n", "p", "q", "morphism"):
        if getattr(args, flag) is not None and flag not in flags:
            check_parser.error(f"--{flag} does not apply to {args.suite}")
    if args.trials < 1:
        check_parser.error("--trials must be at least 1")
    if args.n is not None and not 2 <= args.n <= 8:
        check_parser.error("--n must lie in 2..8")
    if not 2 <= args.max_n <= 20:
        check_parser.error("--max-n must lie in 2..20")
    if args.suite != "combinatorial":
        pair = _require_pair(pair, parser)
        if args.suite == "ce-square-zero" and not pair.is_trivial_scalars:
            check_parser.error("ce-square-zero is defined only for trivial-scalar pairs")
    passed = True
    for report in runner(pair, args):
        print(report.to_json() if args.json else report.render_text())
        passed &= report.passed
    return EXIT_OK if passed else EXIT_VIOLATION


def _cmd_info(pair: LieRinehartPair, as_json: bool) -> int:
    generators = [pair.generator_name(i) for i in range(1, pair.dim + 1)]
    brackets = {
        f"[{pair.generator_name(i)}, {pair.generator_name(j)}]": str(
            Multivector.from_vector(pair, value)
        )
        for (i, j), value in sorted(pair.brackets.items())
    }
    if as_json:
        print(
            json.dumps(
                {
                    "name": pair.name,
                    "kind": pair.kind,
                    "dimension": pair.dim,
                    "variables": pair.nvars,
                    "generators": generators,
                    "brackets": brackets,
                },
                separators=(", ", ": "),
            )
        )
    else:
        print(f"pair {pair.name}: kind={pair.kind} dimension={pair.dim}")
        print(f"generators: {', '.join(generators)}")
        if pair.nvars:
            print(f"variables: {', '.join(f'x{i}' for i in range(1, pair.nvars + 1))}")
        for key, value in brackets.items():
            print(f"  {key} = {value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schoutencalc",
        description="Exact bracket calculus on the exterior algebra of a Lie-Rinehart pair.",
    )
    parser.add_argument("--pair", help="pair document path or builtin:<name>")
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip load-time structure validation (for negative-control fixtures)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eval_parser = sub.add_parser("eval", help="evaluate an expression")
    eval_parser.add_argument("expression")

    check_parser = sub.add_parser("check", help="run an identity suite")
    check_parser.add_argument("suite", choices=SUITES)
    check_parser.add_argument("--n", type=int, default=None)
    check_parser.add_argument("--p", type=int, default=None)
    check_parser.add_argument("--q", type=int, default=None)
    check_parser.add_argument("--trials", type=int, default=50)
    check_parser.add_argument("--seed", type=int, default=0)
    check_parser.add_argument("--max-n", type=int, default=10, dest="max_n")
    check_parser.add_argument("--morphism", help="morphism document (morphism-strict)")
    check_parser.set_defaults(check_parser=check_parser)

    sub.add_parser("info", help="summarize the loaded pair")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        pair = None if args.pair is None else pair_from_spec(args.pair, validate=not args.no_validate)
    except PairDocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOCUMENT
    except ValueError as exc:
        print(f"error: invalid pair document: {exc}", file=sys.stderr)
        return EXIT_DOCUMENT

    if args.command == "info":
        return _cmd_info(_require_pair(pair, parser), args.json)
    if args.command == "eval":
        loaded = _require_pair(pair, parser)
        try:
            result = evaluate(args.expression, loaded)
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (UnsupportedPairError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.json:
            print(json.dumps({"result": str(result)}, separators=(", ", ": ")))
        else:
            print(result)
        return EXIT_OK
    if args.command == "check":
        try:
            return _cmd_check(pair, args, parser)
        except PairDocumentError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOCUMENT
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
