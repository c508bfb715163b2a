"""Golden outputs of the `cyclo` CLI, compared byte for byte.

Each case runs ``cli.main`` in-process and compares its stdout with
``tests/golden/<name>.txt`` and its exit code and stderr with
``tests/golden/exits.json``.  The verify report carries wall-clock
``seconds`` fields; they are removed before the comparison and nothing
else is touched.  Three larger tables, on grids with several weights, are
pinned by the SHA-256 of their output (``TABLE_DIGESTS``).

Re-record after an intended change of output with

    PYTHONPATH=src python3 tests/test_golden.py --record

and review the diff of ``tests/golden/`` like any other change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from cycloschur.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CYCLO_EXPR = "sigma(2)*x(2,1)*L3 + q^-2*u1*T1*L1 - (T2+u2)^2"
AFFINE_EXPR = "sigma(2)*X1^-1*x(2,1) + q^-2*u2*T2*X3^2 - (T1+u1)*X2"
MATRIX_A = "[[[0,0],[1,0]],[[1,0],[0,0]]]"
MATRIX_B = MATRIX_A

CASES: dict[str, list[str]] = {
    "element_cyclo_text": ["element", CYCLO_EXPR, "--m", "2", "--r", "3"],
    "element_cyclo_json": ["element", CYCLO_EXPR, "--m", "2", "--r", "3",
                           "--format", "json"],
    "element_affine_text": ["element", AFFINE_EXPR, "--m", "2", "--r", "3",
                            "--affine"],
    "element_affine_json": ["element", AFFINE_EXPR, "--m", "2", "--r", "3",
                            "--affine", "--format", "json"],
    "element_cyclo_sigma_range": ["element", "sigma(9)", "--m", "2", "--r", "3"],
    "element_affine_sigma_range": ["element", "sigma(9)", "--m", "2", "--r", "3",
                                   "--affine"],
    "basis_full_text": ["basis", "--m", "2", "--n", "2", "--r", "2"],
    "basis_full_json": ["basis", "--m", "2", "--n", "2", "--r", "2",
                        "--format", "json"],
    "basis_block_text": ["basis", "--m", "2", "--n", "2", "--r", "3",
                         "--lambda", "2,1", "--mu", "1,2"],
    "basis_block_json": ["basis", "--m", "2", "--n", "2", "--r", "3",
                         "--lambda", "2,1", "--mu", "1,2", "--format", "json"],
    "mult_text": ["mult", "--m", "2", "--n", "2", "--r", "2",
                  "--A", MATRIX_A, "--B", MATRIX_B],
    "mult_json": ["mult", "--m", "2", "--n", "2", "--r", "2",
                  "--A", MATRIX_A, "--B", MATRIX_B, "--format", "json"],
    "tables_text": ["tables", "--m", "2", "--n", "1", "--r", "3"],
    "tables_json": ["tables", "--m", "2", "--n", "1", "--r", "3",
                    "--format", "json"],
    "verify_all_json": ["verify", "--suite", "all", "--m", "2", "--n", "2",
                        "--r", "2", "--format", "json"],
}


def _strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


def run_case(name: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one case, with timings removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(CASES[name])
    stdout = out.getvalue()
    if name.startswith("verify"):
        stdout = json.dumps(_strip_seconds(json.loads(stdout)), sort_keys=True) + "\n"
    return code, stdout, err.getvalue()


@pytest.fixture(autouse=True)
def _no_cache_dir(monkeypatch):
    monkeypatch.delenv("CYCLO_CACHE_DIR", raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, stdout, stderr = run_case(name)
    exits = json.loads((GOLDEN_DIR / "exits.json").read_text(encoding="utf-8"))
    assert {"exit": code, "stderr": stderr} == exits[name]
    assert stdout == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


# sha256 of `cyclo tables --format json` on grids of several weights, whose
# products cross blocks; the `tables_*` cases above have a single weight.
TABLE_DIGESTS = {
    (2, 2, 3): "7b6b7b8829e8ecac4487cd2cd382a2dbf28c81df327b154a17b84f222183a29f",
    # Every weight has a zero part: each product is re-indexed from its squeeze.
    (2, 3, 2): "3ec8e98dea56f3277092b6e45db5902f6a918f6ca1d9f76b512c6866202b7e3e",
    (3, 2, 2): "c091c87fbdb7370a85571da6f9739adec3952142d8f5c8037d88a6b57a1a9805",
}


@pytest.mark.parametrize("grid", sorted(TABLE_DIGESTS))
def test_tables_json_digest(grid):
    m, n, r = map(str, grid)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["tables", "--m", m, "--n", n, "--r", r, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == TABLE_DIGESTS[grid]


def record() -> None:
    os.environ.pop("CYCLO_CACHE_DIR", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    exits = {}
    for name in sorted(CASES):
        code, stdout, stderr = run_case(name)
        exits[name] = {"exit": code, "stderr": stderr}
        (GOLDEN_DIR / f"{name}.txt").write_text(stdout, encoding="utf-8")
    (GOLDEN_DIR / "exits.json").write_text(
        json.dumps(exits, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 tests/test_golden.py --record")
    record()
