"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse/domain error, 3 cross-validation
discrepancy (or internal inconsistency), 4 oracle budget exhausted. Every
error is a single machine-parsable ``error: <reason>`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .catalogs import load_catalog
from .characterization import theorem31_decide
from .errors import BudgetExceededError, DomainError, InternalCheckError, PotgraphError
from .graphs import havel_hakimi_realize
from .oracle import DEFAULT_BUDGET, STRATEGIES, STRATEGY_EMBED, oracle_potentially
from .sequences import is_graphic_eg, is_graphic_kw, parse_sequence
from .survey import cross_validate, render_report, sigma_empirical

__all__ = ["build_parser", "run_cli", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_DISCREPANCY = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the CLI contract reserves 2 for domain
    # errors and uses 1 for usage, so intercept
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="potgraph",
        description=(
            "Decide whether degree sequences have realizations containing "
            "the 6-vertex wheel (K6 minus a 5-cycle), and verify the "
            "closed-form decision against an exhaustive oracle."
        ),
    )
    parser.add_argument(
        "--catalog",
        metavar="DIR",
        default=None,
        help="exception-catalog directory (default: packaged data)",
    )
    parser.add_argument(
        "--budget",
        metavar="N",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"oracle node budget per sequence (default: {DEFAULT_BUDGET})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graphic", help="test graphicality by both methods")
    p.add_argument("sequence")

    p = sub.add_parser("check", help="closed-form feasibility verdict with trace")
    p.add_argument("sequence")

    p = sub.add_parser("oracle", help="exhaustive-search verdict plus witness file")
    p.add_argument("sequence")
    p.add_argument("--strategy", choices=STRATEGIES, default=STRATEGY_EMBED)
    p.add_argument(
        "--witness",
        metavar="FILE",
        default=None,
        help="witness path (default: witness_<sequence>.txt when the verdict is positive)",
    )
    p.add_argument(
        "--no-witness-file",
        action="store_true",
        help="do not write a witness file",
    )

    p = sub.add_parser("realize", help="print one realization as an edge list")
    p.add_argument("sequence")
    p.add_argument(
        "--contain",
        action="store_true",
        help="realization containing the wheel pattern (oracle witness) instead of Havel-Hakimi",
    )
    p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("survey", help="cross-validate all graphic sequences of length n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--out", metavar="FILE", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--strategy", choices=STRATEGIES, default=STRATEGY_EMBED)
    p.add_argument("--jobs", type=int, default=1, help="parallel oracle workers")
    p.add_argument(
        "--allow-zeros",
        action="store_true",
        help="admit zero terms (stripped with a warning before evaluation)",
    )

    p = sub.add_parser("sigma", help="empirical sigma for length n (oracle)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default=STRATEGY_EMBED)

    return parser


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_graphic(args, catalog, budget) -> int:
    seq = parse_sequence(args.sequence)
    eg = is_graphic_eg(seq)
    kw = is_graphic_kw(seq)
    agree = eg == kw
    print(
        f"sequence={seq.render()} eg={str(eg).lower()} kw={str(kw).lower()} "
        f"agree={str(agree).lower()}"
    )
    return EXIT_OK if agree else EXIT_DISCREPANCY


def _cmd_check(args, catalog, budget) -> int:
    seq = parse_sequence(args.sequence)
    report = theorem31_decide(seq, catalog)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _cmd_oracle(args, catalog, budget) -> int:
    seq = parse_sequence(args.sequence)
    verdict = oracle_potentially(seq, args.strategy, budget)
    witness_file: Optional[str] = None
    if verdict.potentially and not args.no_witness_file:
        witness_file = args.witness or f"witness_{seq.render()}.txt"
        _write(witness_file, verdict.witness.to_text())
    print(
        json.dumps(
            {
                "sequence": seq.render(),
                "potentially": verdict.potentially,
                "strategy": verdict.strategy,
                "nodes_explored": verdict.nodes_explored,
                "witness_file": witness_file,
            },
            indent=2,
        )
    )
    return EXIT_OK


def _cmd_realize(args, catalog, budget) -> int:
    seq = parse_sequence(args.sequence)
    if args.contain:
        verdict = oracle_potentially(seq, STRATEGY_EMBED, budget)
        if not verdict.potentially:
            raise DomainError(
                f"({seq}) has no realization containing the pattern"
            )
        graph = verdict.witness
    else:
        graph = havel_hakimi_realize(seq)
    text = graph.to_text()
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_survey(args, catalog, budget) -> int:
    report = cross_validate(
        args.n,
        args.oracle,
        budget=budget,
        catalog=catalog,
        strategy=args.strategy,
        jobs=args.jobs,
        allow_zeros=args.allow_zeros,
    )
    text = render_report(report, args.format)
    if args.out is None:
        print(text, end="")
    else:
        _write(args.out, text)
        print(f"report written to {args.out}")
    return EXIT_DISCREPANCY if report.discrepancies else EXIT_OK


def _cmd_sigma(args, catalog, budget) -> int:
    print(sigma_empirical(args.n, budget, args.strategy))
    return EXIT_OK


_COMMANDS = {
    "graphic": _cmd_graphic,
    "check": _cmd_check,
    "oracle": _cmd_oracle,
    "realize": _cmd_realize,
    "survey": _cmd_survey,
    "sigma": _cmd_sigma,
}


def run_cli(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        catalog = load_catalog(args.catalog) if args.catalog else None
        return _COMMANDS[args.command](args, catalog, args.budget)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    except (PotgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
