"""Command-line front end.

Commands::

    schoutencalc --pair PATH eval EXPR
    schoutencalc --pair PATH check SUITE [--n N] [--p P] [--q Q]
                 [--trials T] [--seed S] [--max-n N] [--morphism PATH]
    schoutencalc --pair PATH info

``--pair`` accepts a JSON document path or a ``builtin:<name>`` shortcut
(sl2, gl2, solvable4, abelian2, abelian3, cartan1..3).  ``--n``, ``--p``,
``--q`` and ``--morphism`` given to a suite that does not read them are
usage errors.  Exit codes: 0 all checks pass, 1 an identity violation was
found, 2 usage or expression error, 3 bad pair or morphism document.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import sampling
from .errors import PairDocumentError, ParseError, UnsupportedPairError
from .exterior import associated_exterior_morphism
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
    check_leibniz,
    check_pair_morphism,
    load_morphism,
    read_document,
)
from .report import run_identity
from .scalars import Scalar
from .schouten import (
    check_antisym_jacobi,
    check_morphism_respects_sn,
    check_poisson,
    check_sym_jacobi,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOCUMENT = 3


def _require_pair(pair: LieRinehartPair | None, parser: argparse.ArgumentParser) -> LieRinehartPair:
    if pair is None:
        parser.error("this command needs --pair")
    return pair


def _random_homogeneous_args(pair, rng, n):
    return [sampling.random_homogeneous(pair, rng, rng.randint(0, min(2, pair.dim))) for _ in range(n)]


def _sampled(check):
    """A suite of one report from a library check drawing ``--trials`` seeded cases."""
    return lambda pair, args: [check(pair, trials=args.trials, seed=args.seed)]


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
    yield check_morphism_respects_sn(morphism, trials=args.trials, seed=args.seed)

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


# Every suite, in the order the CLI lists them: ``runner(pair, args)`` yields
# reports, and each is printed as soon as it is made.
RUNNERS = {
    "leibniz": _sampled(check_leibniz),
    "jacobi-antisym": _sampled(check_antisym_jacobi),
    "jacobi-sym": _sampled(check_sym_jacobi),
    "poisson": _sampled(check_poisson),
    "weak-jacobi": _run_weak_jacobi,
    "morphism-injection": _run_morphism_injection,
    "morphism-strict": _run_morphism_strict,
    "ce-square-zero": _run_ce_square_zero,
    "combinatorial": _run_combinatorial,
}
SUITES = tuple(RUNNERS)
# The suites that read each optional flag; a flag given to any other suite
# is refused.  ``--max-n`` is read by combinatorial alone but has a default,
# so every suite accepts it.
FLAG_SUITES = {
    "n": ("weak-jacobi", "morphism-injection", "morphism-strict"),
    "p": ("weak-jacobi",),
    "q": ("weak-jacobi",),
    "morphism": ("morphism-strict",),
}


def _cmd_check(pair, args, parser) -> int:
    # Refusals of check's own arguments print check's usage line, not the top-level one.
    check_parser = args.check_parser
    for flag, suites in FLAG_SUITES.items():
        if getattr(args, flag) is not None and args.suite not in suites:
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
    for report in RUNNERS[args.suite](pair, args):
        print(report.to_json() if args.json else report.render_text())
        passed &= report.passed
    return EXIT_OK if passed else EXIT_VIOLATION


def _cmd_info(pair: LieRinehartPair, as_json: bool) -> int:
    from .exterior import Multivector

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
