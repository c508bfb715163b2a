"""Record the reference outputs the benchmark checks results against.

    PYTHONPATH=src python3 perfbench/record_refs.py [schur-table|verify-all ...]

Writes perfbench/refs/schur_table.json (the basis of S(3; 2, 2) and, for
every composable pair of it, a digest of the pair's structure constants,
so a table built in any order can be checked) and
perfbench/refs/verify_all.json (the `cyclo verify --suite all` report that
verify-all runs, with every `seconds` field removed).  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from cycloschur import cli, schur

import workloads as wl


def record_schur_table() -> None:
    ctx = schur.SchurContext(wl.TABLE_M, wl.TABLE_N, wl.TABLE_R)
    basis = ctx.basis()
    products = {}
    for i, A in enumerate(basis):
        for j, B in enumerate(basis):
            if wl.colored_col_sums(A) == wl.colored_row_sums(B):
                products[f"{i},{j}"] = wl.product_digest(schur.multiply_basis(ctx, A, B))
    write("schur_table.json", {
        **wl.SchurTable.params,
        "basis": [schur.matrix_to_json(A) for A in basis],
        "products": products,
    })


def record_verify_all() -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(wl.verify_argv(wl.VERIFY_SEED))
    if code != 0:
        raise SystemExit(f"verify seed {wl.VERIFY_SEED} exited {code}")
    reports = {str(wl.VERIFY_SEED): wl.strip_seconds(json.loads(out.getvalue()))}
    write("verify_all.json", {"grid": list(wl.VERIFY_GRID), "reports": reports})


def write(name: str, data: dict) -> None:
    """JSON with one line per top-level key and per entry of a dict value."""
    lines = []
    for key, value in sorted(data.items()):
        if isinstance(value, dict):
            entries = ",\n".join(
                f"  {json.dumps(k)}: {wl.canonical(v)}" for k, v in sorted(value.items()))
            lines.append(f" {json.dumps(key)}: {{\n{entries}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {wl.canonical(value)}")
    wl.REF_DIR.mkdir(exist_ok=True)
    with open(wl.REF_DIR / name, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    targets = sys.argv[1:] or ["schur-table", "verify-all"]
    for target in targets:
        {"schur-table": record_schur_table, "verify-all": record_verify_all}[target]()
