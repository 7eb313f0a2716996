"""Command-line front end.

Exit codes: 0 success, 1 usage or parse problem, 2 construction failure,
3 verification or table mismatch (locate too, on a file that is not
orientable), 4 window not found.
"""

from __future__ import annotations

import argparse
import sys

from . import oracle
from .bounds import ledger_bound, period_upper_bound
from .constructions import ConstructionRecipe, Method, generate
from .errors import ConstructionError, DomainError, ResourceCapError
from .sequences import (
    OrientableSequence,
    parse_symbols,
    read_sequence_file,
    write_sequence_file,
)
from .tables import DEFAULT_CELL_CAP, TABLE_NAMES, compute_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRUCTION = 2
EXIT_VERIFICATION = 3
EXIT_NOT_FOUND = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this project reserves 2 for
    construction failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="oseq",
                     description="Construct, check, and tabulate orientable "
                                 "sequences over Z_k.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a sequence and write it to a file")
    p.add_argument("--method", required=True,
                   choices=[m.value for m in Method])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=None,
                   help="block width for method a_t")
    p.add_argument("--out", default=None,
                   help="output path (default os_<method>_k<k>_n<n>.txt)")

    p = sub.add_parser("verify", help="check a sequence file")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="window length override (default from header)")
    p.add_argument("--k", type=int, default=None,
                   help="alphabet size override (default from header)")

    p = sub.add_parser("bound", help="print the period upper bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ledger", action="store_true",
                   help="also print the exclusion-ledger breakdown")

    p = sub.add_parser("table", help="recompute a reference table")
    p.add_argument("--which", required=True, choices=list(TABLE_NAMES))
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable records")
    p.add_argument("--strict", action="store_true",
                   help="fail on skipped cells too")
    p.add_argument("--cell-cap", type=int, default=DEFAULT_CELL_CAP,
                   help="edge budget per cell before skipping")
    p.add_argument("--workers", type=int, default=1,
                   help="process pool size for cell computation")

    p = sub.add_parser("locate", help="find a window in a sequence file")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--window", required=True,
                   help="digits for k <= 10, comma-separated otherwise")
    return parser


def _cmd_generate(args) -> int:
    recipe = ConstructionRecipe(Method(args.method), args.k, args.n, t=args.t)
    try:
        seq = generate(recipe)
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    bound = period_upper_bound(args.k, args.n)
    out = args.out or f"os_{args.method}_k{args.k}_n{args.n}.txt"
    write_sequence_file(out, seq)
    note = "meets bound" if seq.period == bound else f"ratio {seq.period / bound:.4f}"
    print(f"wrote {out}: k={args.k} n={args.n} period={seq.period} "
          f"bound={bound} ({note})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    parsed = read_sequence_file(args.path)
    n = parsed.n if args.n is None else args.n
    k = parsed.k if args.k is None else args.k
    verdict = oracle.verify(parsed.symbols, n, k)
    if verdict.accepted:
        print(f"ok: k={k} n={n} period={parsed.period}")
        return EXIT_OK
    return _report_rejection(verdict)


def _report_rejection(verdict: oracle.VerifyResult) -> int:
    detail = verdict.message
    if verdict.i is not None:
        detail += f" (kind={verdict.kind}, i={verdict.i}, j={verdict.j})"
    print(f"rejected: {detail}", file=sys.stderr)
    return EXIT_VERIFICATION


def _cmd_bound(args) -> int:
    report = ledger_bound(args.k, args.n)
    print(report.closed_form_bound)
    if args.ledger:
        print(f"ledger edge bound: {report.ledger_edge_bound}")
        for name, value in report.ledger_terms.items():
            print(f"  {name}: {value}")
    return EXIT_OK


def _cmd_table(args) -> int:
    result = compute_table(args.which, args.max_k, args.max_n,
                           cell_cap=args.cell_cap, workers=args.workers)
    sys.stdout.write(result.to_json() + "\n" if args.json else result.text())
    if result.mismatches():
        print(f"{len(result.mismatches())} cell(s) disagree with the bundled "
              f"reference values", file=sys.stderr)
        return EXIT_VERIFICATION
    if args.strict and result.skipped():
        print(f"{len(result.skipped())} cell(s) skipped under --strict",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_locate(args) -> int:
    parsed = read_sequence_file(args.path)
    n, k = parsed.n, parsed.k
    try:
        window = parse_symbols(args.window, k)
    except ValueError as exc:
        print(f"bad window: {exc}", file=sys.stderr)
        return EXIT_USAGE
    verdict = oracle.verify(parsed.symbols, n, k)
    if not verdict.accepted:
        return _report_rejection(verdict)
    seq = OrientableSequence(k=k, n=n, period=parsed.period,
                             symbols=parsed.symbols)
    hit = oracle.locate(seq, window)
    if hit is None:
        print("not found")
        return EXIT_NOT_FOUND
    print(f"position {hit.position} {hit.direction.value}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "table": _cmd_table,
    "locate": _cmd_locate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, ResourceCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
