"""Golden outputs of the `cyclo` CLI, compared byte for byte.

Each case runs ``cli.main`` in-process and compares its stdout with
``tests/golden/<name>.txt`` and its exit code and stderr with
``tests/golden/exits.json``.  The verify report carries wall-clock
``seconds`` fields; they are removed before the comparison and nothing
else is touched.  Three larger tables, on grids with several weights, are
pinned by the SHA-256 of their output (``TABLE_DIGESTS``), as are verify
reports on larger grids and guards (``VERIFY_DIGESTS``) and the random
draws of the verify suites (``DRAW_LOG_DIGEST``).

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
import random
import sys
import types
from pathlib import Path

import pytest

from cycloschur import verify
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


# sha256 of `cyclo verify --format json` without its `seconds` fields, by
# (suite, m, n, r, seed, guard); guard None is the default.  Guard 50 skips
# most checks at (3, 3, 2), so its digest pins the `skipped(guard)` messages.
VERIFY_DIGESTS = {
    ("all", 3, 3, 2, 0, 50): "d153c0833bb30c578ccd9af3ead577791b322e6607ff3f0034b6b7581188f113",
    ("all", 3, 3, 2, 0, 377): "1c6a03845bb47ac2267c7967fadb8a7244c8b6b564eb51832e25969c20570443",
    ("all", 2, 2, 3, 7, None): "6ac55373057dc2130b4264c89abbed6cfb31df8abbb2a6e0fcc00e6fcc752136",
    ("all", 3, 2, 2, 5, None): "48964420216eecc98647ddc7438b7e991d83c7fa6eafc80a0c3cd0f14538d179",
    ("schur-mult", 3, 3, 3, 4, None): "fc09234f2a480eabec8d01ef4afc7eba7b935e3f1365c27ed9bcfda267bb217b",
    ("epsilon", 2, 2, 3, 3, None): "20c714af8a71d3751168b20bc7a78f78b5f972cd94f5fa8d7d28e9df98b3d07f",
    ("pbw", 2, 1, 3, 11, None): "c495d9ee570f4ceb4b823db23d1b222915cce446d2750bc4ca1ec4ba3b6477e7",
}


def verify_digest(suite: str, m: int, n: int, r: int, seed: int, guard: int | None) -> str:
    argv = ["verify", "--suite", suite, "--m", str(m), "--n", str(n), "--r", str(r),
            "--seed", str(seed), "--format", "json"]
    if guard is not None:
        argv += ["--guard", str(guard)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    report = json.dumps(_strip_seconds(json.loads(out.getvalue())), sort_keys=True)
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(VERIFY_DIGESTS, key=str))
def test_verify_json_digest(case):
    assert verify_digest(*case) == VERIFY_DIGESTS[case]


# sha256 of every getrandbits(k) draw, with its result, of the random
# streams that `run_suite("all", ...)` makes at these (m, n, r, seed), per
# stream in creation order; streams that draw nothing are left out.  A
# report can stay the same when its checks draw from other streams.
DRAW_LOG_DIGEST = "b7d4812b0af10ecca800dd47042f63862c86bc60475eb0d5a281a9d45e78f174"


def test_verify_random_draws(monkeypatch):
    logs: list[list[tuple[int, int]]] = []

    class Logged(random.Random):
        def __init__(self, seed):
            self.log = []
            logs.append(self.log)
            super().__init__(seed)

        def getrandbits(self, k):
            bits = super().getrandbits(k)
            self.log.append((k, bits))
            return bits

    monkeypatch.setattr(verify, "random", types.SimpleNamespace(Random=Logged))
    for m, n, r, seed in [(3, 3, 2, 0), (2, 2, 3, 7), (3, 2, 2, 5)]:
        verify.run_suite("all", verify.SuiteParams(m=m, n=n, r=r, seed=seed))
    drawn = json.dumps([log for log in logs if log])
    assert hashlib.sha256(drawn.encode()).hexdigest() == DRAW_LOG_DIGEST


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
