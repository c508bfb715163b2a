"""Command-line front end.

Subcommands:
    element  parse an expression, evaluate it in an engine, print the
             normal form
    basis    enumerate the colored-matrix basis (optionally one block)
    mult     structure constants of a product of two basis vectors
    tables   the full multiplication table, with optional disk cache
    verify   run a named check suite

Exit codes: 0 success, 1 a verification check failed, 2 usage error, a
guard past its cap, an unusable cache directory, or stdout closed before
the output was complete.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .affine import AffineAlgebra, affine_to_json
from .cache import load as cache_load, resolve_cache_dir, store as cache_store
from .expressions import ExprError, evaluate_text
from .guards import GuardError, check_guard
from .hecke import HeckeAlgebra, element_to_json
from .schur import (
    SchurContext,
    matrix_from_json,
    matrix_to_json,
    module_dimension,
    multiply_basis,
)
from .verify import SUITE_NAMES, SuiteParams, exit_code_for, run_suite
from .wreath import colored_col_sums, colored_row_sums, group_by_row_sums


def _composition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError(f"negative part in {text!r}")
    return parts


def _at_least(low: int):
    """The argparse type of an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"not an integer >= {low}: {text!r}")
        return value
    return parse


def _matrix_arg(text: str) -> tuple:
    try:
        return matrix_from_json(json.loads(text))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(f"not a colored-matrix JSON literal: {text!r}")


def _add_grid_flags(sp: argparse.ArgumentParser, *, with_n: bool = True, size=int) -> None:
    """--m, --n, --r (of type ``size``), --guard and --format."""
    sp.add_argument("--m", type=size, default=2, help="number of colors / parameters")
    if with_n:
        sp.add_argument("--n", type=size, default=2, help="matrix side of the basis grid")
    sp.add_argument("--r", type=size, default=2, help="rank (number of strands)")
    sp.add_argument("--guard", type=_at_least(0), default=None, help="enumeration size cap")
    sp.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr, exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cyclo",
        description="Exact computation in cyclotomic Hecke and slim q-Schur algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("element", help="evaluate an expression to normal form")
    sp.add_argument("expr", help="e.g. 'T1*T1' or 'x(2,1)*L3^2'; "
                    "an expression starting with '-' goes after '--'")
    _add_grid_flags(sp, with_n=False)
    sp.add_argument(
        "--affine", action="store_true", help="evaluate in the affine engine (X, not L)"
    )

    sp = sub.add_parser("basis", help="enumerate the colored-matrix basis")
    _add_grid_flags(sp)
    sp.add_argument("--lambda", dest="lam", type=_composition, default=None,
                    help="row-margin composition, e.g. 2,1")
    sp.add_argument("--mu", type=_composition, default=None,
                    help="column-margin composition")

    sp = sub.add_parser("mult", help="structure constants of Phi_A * Phi_B")
    _add_grid_flags(sp)
    sp.add_argument("--A", type=_matrix_arg, required=True,
                    help='colored matrix JSON, e.g. "[[[0,1],[0,0]],[[0,0],[0,1]]]"')
    sp.add_argument("--B", type=_matrix_arg, required=True)

    sp = sub.add_parser("tables", help="full multiplication table")
    _add_grid_flags(sp)
    sp.add_argument("--cache-dir", default=None,
                    help="cache directory (default: $CYCLO_CACHE_DIR, else off)")

    sp = sub.add_parser("verify", help="run a named check suite")
    sp.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    # A suite on an empty grid would pass its checks on nothing.
    _add_grid_flags(sp, size=_at_least(1))
    sp.add_argument("--lambda", dest="lam", type=_composition, default=None,
                    help="echoed in the report's params; no check reads it")
    sp.add_argument("--mu", type=_composition, default=None,
                    help="echoed in the report's params; no check reads it")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=_at_least(1), default=3)
    sp.add_argument("--exact", action="store_true",
                    help="certify ranks over the exact ring instead of modularly")
    return parser


# -- subcommand bodies -----------------------------------------------------


def _cmd_element(args) -> int:
    if args.affine:
        alg: HeckeAlgebra | AffineAlgebra = AffineAlgebra(args.r, nvars=args.m)
    else:
        alg = HeckeAlgebra(args.m, args.r)
    elem = evaluate_text(args.expr, alg, args.guard)
    if args.format == "json":
        data = affine_to_json(elem) if args.affine else element_to_json(elem)
        print(json.dumps(data, indent=1, sort_keys=True))
    else:
        print(str(elem))
    return 0


def _cmd_basis(args) -> int:
    ctx = SchurContext(args.m, args.n, args.r)
    if (args.lam is None) != (args.mu is None):
        print("error: --lambda and --mu must be given together", file=sys.stderr)
        return 2
    if args.lam is not None:
        matrices = ctx.basis_block(args.lam, args.mu, args.guard)
    else:
        matrices = ctx.basis(args.guard)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "m": args.m,
                    "n": args.n,
                    "r": args.r,
                    "count": len(matrices),
                    "matrices": [matrix_to_json(A) for A in matrices],
                },
                sort_keys=True,
            )
        )
    else:
        for A in matrices:
            print(
                f"{json.dumps(matrix_to_json(A))}  "
                f"ro={list(colored_row_sums(A))} co={list(colored_col_sums(A))}"
            )
        print(f"count: {len(matrices)} (closed form: {ctx.rank()})")
    return 0


def _product_entries(ctx: SchurContext, A, B, polys: dict, mats: dict) -> list[dict]:
    """The product's terms; ``polys`` and ``mats`` keep the rendering of
    each distinct constant and matrix for the whole command."""
    entries = []
    for C, c in sorted(multiply_basis(ctx, A, B).items()):
        poly, text = polys.get(c) or polys.setdefault(c, c.json_and_text())
        C_json = mats.get(C) or mats.setdefault(C, matrix_to_json(C))
        entries.append({"C": C_json, "poly": poly, "text": text})
    return entries


def _cmd_mult(args) -> int:
    ctx = SchurContext(args.m, args.n, args.r)
    ctx.check_matrix(args.A)
    ctx.check_matrix(args.B)
    lam = colored_row_sums(args.A)
    what = f"module x_lambda H at lambda {list(lam)}"
    check_guard(module_dimension(ctx, lam), args.guard, what)
    entries = _product_entries(ctx, args.A, args.B, {}, {})
    if args.format == "json":
        print(json.dumps({"terms": entries}, sort_keys=True))
    else:
        if not entries:
            print("0")
        for item in entries:
            print(f"({item['text']}) * Phi{item['C']}")
    return 0


def _cmd_tables(args) -> int:
    params = {"m": args.m, "n": args.n, "r": args.r}
    directory = resolve_cache_dir(args.cache_dir)
    payload = cache_load(directory, "mult-table", params)
    if payload is None:
        ctx = SchurContext(args.m, args.n, args.r)
        basis = ctx.basis(args.guard)
        by_ro = group_by_row_sums(basis)
        pairs = sum(len(by_ro.get(colored_col_sums(A), ())) for A in basis)
        check_guard(pairs, args.guard, "composable pairs of the multiplication table")
        products, polys, mats = [], {}, {}
        for i, A in enumerate(basis):
            for j in by_ro.get(colored_col_sums(A), ()):
                entries = _product_entries(ctx, A, basis[j], polys, mats)
                products.append({"A": i, "B": j, "terms": entries})
        payload = {
            "basis": [matrix_to_json(A) for A in basis],
            "products": products,
        }
        cache_store(directory, "mult-table", params, payload)
    if args.format == "json":
        print(json.dumps({**params, **payload}, sort_keys=True))
    else:
        print(f"basis size: {len(payload['basis'])}")
        print(f"nonzero products: {len(payload['products'])}")
        shown: dict[int, str] = {}  # id of a C list -> its text; payload keeps each list alive
        for row in payload["products"]:
            terms = " + ".join(
                f"({text})*Phi[{shown.get(id(C)) or shown.setdefault(id(C), str(C))}]"
                for text, C in ((t["text"], t["C"]) for t in row["terms"])
            ) or "0"
            print(f"Phi[{row['A']}] * Phi[{row['B']}] = {terms}")
    return 0


def _cmd_verify(args) -> int:
    params = SuiteParams(
        m=args.m,
        n=args.n,
        r=args.r,
        lam=args.lam,
        mu=args.mu,
        seed=args.seed,
        trials=args.trials,
        guard=args.guard,
        exact=args.exact,
    )
    report = run_suite(args.suite, params)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for check in report["checks"]:
            line = f"{check['check']}: {check['status']} ({check['seconds']}s)"
            if check["status"] != "pass":
                line += f" witness: {check['witness']}"
            print(line)
        print(
            f"suite {report['suite']}: {report['status'].upper()} "
            f"in {report['seconds']}s ({len(report['checks'])} checks)"
        )
    return exit_code_for(report)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "element": _cmd_element,
        "basis": _cmd_basis,
        "mult": _cmd_mult,
        "tables": _cmd_tables,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ExprError, GuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull, so the
        # interpreter's final flush of what is left does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before it was complete", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. a --cache-dir that is a file, or lies under one
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
