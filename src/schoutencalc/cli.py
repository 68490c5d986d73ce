"""Command-line front end.

Commands::

    schoutencalc --pair PATH eval EXPR
    schoutencalc --pair PATH check SUITE [--n N] [--p P] [--q Q]
                 [--trials T] [--seed S] [--max-n N] [--morphism PATH]
    schoutencalc --pair PATH info

``--pair`` accepts a JSON document path or a ``builtin:<name>`` shortcut
(sl2, gl2, solvable4, abelian2, abelian3, cartan1..3).  Exit codes: 0 all
checks pass, 1 an identity violation was found, 2 usage or expression
error, 3 bad pair or morphism document.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import PairDocumentError, ParseError, UnsupportedPairError
from .expr import evaluate, parse
from .instances import builtin_pair
from .linfty import (
    BracketFamily,
    check_linfty_morphism,
    composition_identity_lhs,
    injection_family,
    weak_jacobi_residual,
)
from .pairs import (
    LieRinehartPair,
    PairMorphism,
    check_leibniz,
    check_pair_morphism,
    load_morphism,
    load_pair,
    read_document,
)
from .report import BracketReport
from .schouten import (
    check_antisym_jacobi,
    check_morphism_respects_sn,
    check_poisson,
    check_sym_jacobi,
)

SUITES = (
    "leibniz",
    "jacobi-antisym",
    "jacobi-sym",
    "poisson",
    "weak-jacobi",
    "morphism-injection",
    "morphism-strict",
    "ce-square-zero",
    "combinatorial",
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOCUMENT = 3


def _load_pair_argument(spec: str | None, *, validate: bool) -> LieRinehartPair | None:
    if spec is None:
        return None
    if spec.startswith("builtin:"):
        try:
            pair = builtin_pair(spec[len("builtin:") :])
        except KeyError as exc:
            raise PairDocumentError(str(exc)) from exc
        if not validate:
            pair = LieRinehartPair(pair.kind, pair.dim, pair.brackets, name=pair.name, validate=False)
        return pair
    return load_pair(spec, validate=validate)


def _emit(report: BracketReport, as_json: bool) -> None:
    print(report.to_json() if as_json else report.render_text())


def _require_pair(pair: LieRinehartPair | None, parser: argparse.ArgumentParser) -> LieRinehartPair:
    if pair is None:
        parser.error("this command needs --pair")
    return pair


def _run_weak_jacobi(pair, args, emit) -> bool:
    from . import sampling

    if (args.p or args.q) and not args.n:
        raise ValueError("--p/--q need an explicit --n")
    ns = [args.n] if args.n else [3, 4]
    all_passed = True
    for n in ns:
        if args.p or args.q:
            p = args.p or (n + 1 - args.q)
            q = args.q or (n + 1 - args.p)
            splits = [(p, q)]
        else:
            splits = [(p, n + 1 - p) for p in range(2, n) if n + 1 - p >= 2]
        if not splits:
            raise ValueError(f"no admissible (p, q) splits for n={n}")
        for p, q in splits:
            if p + q != n + 1 or p < 2 or q < 2:
                raise ValueError(f"invalid split p={p}, q={q} for n={n}")
            rng = sampling.rng_for(args.seed)
            failure = None
            for _ in range(args.trials):
                sample = [
                    sampling.random_homogeneous(pair, rng, rng.randint(0, min(2, pair.dim)))
                    for _ in range(n)
                ]
                residual = weak_jacobi_residual(pair, p, q, sample)
                if not residual.is_zero():
                    failure = BracketReport.failure(
                        "weak-jacobi",
                        str(residual),
                        witness=[str(v) for v in sample],
                        n=n,
                        p=p,
                        q=q,
                        seed=args.seed,
                    )
                    break
            report = failure or BracketReport.success("weak-jacobi", n=n, p=p, q=q, seed=args.seed)
            emit(report)
            all_passed &= report.passed
    return all_passed


def _run_morphism_injection(pair, args, emit) -> bool:
    from . import sampling

    family = injection_family(pair)
    target = BracketFamily(pair)
    all_passed = True
    for n in range(2, (args.n or 4) + 1):
        rng = sampling.rng_for(args.seed)
        report = None
        for _ in range(args.trials):
            sample = [
                sampling.random_pair_element(pair, rng, ensure_mixed=(rng.random() < 0.5))
                for _ in range(n)
            ]
            result = check_linfty_morphism(
                pair,
                family,
                target,
                n,
                sample,
                identity="morphism-injection",
                max_arity=max(5, args.n or 0),
            )
            if not result.passed:
                result.seed = args.seed
                result.witness = [f"({e.scalar}, {e.vector!r})" for e in sample]
                report = result
                break
        report = report or BracketReport.success("morphism-injection", n=n, seed=args.seed)
        emit(report)
        all_passed &= report.passed
    return all_passed


def _run_morphism_strict(pair, args, emit) -> bool:
    from . import sampling
    from .exterior import associated_exterior_morphism
    from .linfty import n_bracket

    if args.morphism:
        morphism = _load_morphism_document(args.morphism, pair)
    else:
        morphism = PairMorphism.identity(pair)
    validation = check_pair_morphism(morphism, trials=args.trials, seed=args.seed)
    emit(validation)
    if not validation.passed:
        return False
    sn_report = check_morphism_respects_sn(morphism, trials=args.trials, seed=args.seed)
    emit(sn_report)
    all_passed = sn_report.passed
    rng = sampling.rng_for(args.seed)
    for n in range(2, (args.n or 4) + 1):
        report = None
        for _ in range(args.trials):
            sample = [
                sampling.random_homogeneous(
                    morphism.source, rng, rng.randint(0, min(2, morphism.source.dim))
                )
                for _ in range(n)
            ]
            lhs = associated_exterior_morphism(morphism, n_bracket(morphism.source, sample))
            rhs = n_bracket(
                morphism.target, [associated_exterior_morphism(morphism, v) for v in sample]
            )
            residual = lhs - rhs
            if not residual.is_zero():
                report = BracketReport.failure(
                    "morphism-strict",
                    str(residual),
                    witness=[str(v) for v in sample],
                    n=n,
                    seed=args.seed,
                )
                break
        report = report or BracketReport.success("morphism-strict", n=n, seed=args.seed)
        emit(report)
        all_passed &= report.passed
    return all_passed


def _load_morphism_document(path: str, default_source: LieRinehartPair) -> PairMorphism:
    try:
        doc = read_document(Path(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise PairDocumentError(f"cannot read morphism document: {exc}") from exc
    target_spec = doc.get("target")
    if target_spec is None:
        target = default_source
    elif isinstance(target_spec, str) and target_spec.startswith("builtin:"):
        target = builtin_pair(target_spec[len("builtin:") :])
    elif isinstance(target_spec, dict):
        target = load_pair(target_spec)
    else:
        target = load_pair(str(target_spec))
    return load_morphism(doc, default_source, target)


def _run_ce_square_zero(pair, args, emit) -> bool:
    from . import sampling
    from .linfty import ce_differential

    rng = sampling.rng_for(args.seed)
    report = None
    for _ in range(args.trials):
        sample = sampling.random_multivector(pair, rng)
        residual = ce_differential(pair, ce_differential(pair, sample))
        if not residual.is_zero():
            report = BracketReport.failure(
                "ce-square-zero", str(residual), witness=[str(sample)], seed=args.seed
            )
            break
    report = report or BracketReport.success("ce-square-zero", seed=args.seed)
    emit(report)
    return report.passed


def _run_combinatorial(args, emit) -> bool:
    all_passed = True
    for n in range(2, args.max_n + 1):
        value = composition_identity_lhs(n)
        passed = value == Fraction(1, 2)
        report = (
            BracketReport.success("combinatorial", n=n)
            if passed
            else BracketReport.failure("combinatorial", str(value - Fraction(1, 2)), n=n)
        )
        report.residual = str(value - Fraction(1, 2))
        emit(report)
        all_passed &= passed
    return all_passed


def _cmd_check(pair, args, parser) -> int:
    emit = lambda report: _emit(report, args.json)
    suite = args.suite
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.n is not None and not 2 <= args.n <= 8:
        parser.error("--n must lie in 2..8")
    if not 2 <= args.max_n <= 20:
        parser.error("--max-n must lie in 2..20")
    if suite == "combinatorial":
        return EXIT_OK if _run_combinatorial(args, emit) else EXIT_VIOLATION
    pair = _require_pair(pair, parser)
    if suite == "leibniz":
        report = check_leibniz(pair, trials=args.trials, seed=args.seed)
        emit(report)
        return EXIT_OK if report.passed else EXIT_VIOLATION
    if suite == "jacobi-antisym":
        report = check_antisym_jacobi(pair, trials=args.trials, seed=args.seed)
        emit(report)
        return EXIT_OK if report.passed else EXIT_VIOLATION
    if suite == "jacobi-sym":
        report = check_sym_jacobi(pair, trials=args.trials, seed=args.seed)
        emit(report)
        return EXIT_OK if report.passed else EXIT_VIOLATION
    if suite == "poisson":
        report = check_poisson(pair, trials=args.trials, seed=args.seed)
        emit(report)
        return EXIT_OK if report.passed else EXIT_VIOLATION
    if suite == "weak-jacobi":
        return EXIT_OK if _run_weak_jacobi(pair, args, emit) else EXIT_VIOLATION
    if suite == "morphism-injection":
        return EXIT_OK if _run_morphism_injection(pair, args, emit) else EXIT_VIOLATION
    if suite == "morphism-strict":
        return EXIT_OK if _run_morphism_strict(pair, args, emit) else EXIT_VIOLATION
    if suite == "ce-square-zero":
        if not pair.is_trivial_scalars:
            parser.error("ce-square-zero is defined only for trivial-scalar pairs")
        return EXIT_OK if _run_ce_square_zero(pair, args, emit) else EXIT_VIOLATION
    raise AssertionError(suite)


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

    sub.add_parser("info", help="summarize the loaded pair")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        pair = _load_pair_argument(args.pair, validate=not args.no_validate)
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
            result = evaluate(parse(args.expression, loaded), loaded)
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
