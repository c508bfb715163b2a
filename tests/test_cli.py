"""Command-line front end, result cache, and suite runner reports."""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import cycloschur
from cycloschur import cache, verify
from cycloschur.cli import main
from cycloschur.schur import SchurContext
from cycloschur.verify import CHECKS, SUITE_NAMES, SuiteParams, exit_code_for, run_suite


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verify_in_subprocess(suite: str, *flags: str) -> dict:
    """The JSON report of `cyclo verify`, run in a separate process so that a
    hang fails the test at the 10 s bound; the command must exit 0."""
    env = dict(os.environ)
    src = str(Path(cycloschur.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "cycloschur.cli", "verify", "--suite", suite, *flags,
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# -- element ---------------------------------------------------------------


def test_element_text_output(capsys):
    code, out, _ = run_cli(capsys, "element", "T1*T1", "--m", "2", "--r", "2")
    assert code == 0
    assert "T[2,1]" in out and "q" in out


def test_element_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "element", "L1^2", "--m", "2", "--r", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 2 and data["r"] == 2
    assert len(data["terms"]) == 2  # a multiple of L1 plus a scalar


def test_element_affine_laurent(capsys):
    code, out, _ = run_cli(
        capsys, "element", "X1^-1", "--affine", "--r", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"][0]["a"] == [-1, 0]


def test_element_bad_expression_exits_2(capsys):
    code, _, err = run_cli(capsys, "element", "T1*", "--r", "2")
    assert code == 2
    assert "error" in err


def test_element_context_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "element", "X1", "--r", "2")
    assert code == 2
    assert "cyclotomic engine" in err


def test_element_symmetrizer_guard_exits_2(capsys):
    # x(9) sums over all 9! = 362,880 permutations; the guard stops it first
    code, out, err = run_cli(
        capsys, "element", "x(9)", "--m", "1", "--r", "9", "--guard", "10"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "362880" in err
    code, out, _ = run_cli(
        capsys, "element", "x(2,1)", "--m", "1", "--r", "3", "--guard", "2"
    )
    assert code == 0 and out.count("T[") == 1


def test_closed_stdout_pipe_exits_2_without_traceback():
    # x(7) prints about 115 kB, more than a pipe buffer holds, so the
    # write after the reader has gone fails with EPIPE
    env = dict(os.environ)
    src = str(Path(cycloschur.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycloschur.cli", "element", "x(7)",
         "--m", "1", "--r", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def _assert_one_line_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "expr,flags",
    [
        ("T1^100000", ("--guard", "1000")),
        ("(T1^1000)^1000", ("--guard", "1000")),
        ("u1^3000000000", ()),
    ],
    ids=["flat", "nested", "default-guard"],
)
def test_element_power_guard_exits_2(capsys, expr, flags):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "element", expr, "--m", "2", "--r", "2", *flags)
    assert time.perf_counter() - start < 5
    _assert_one_line_error(code, out, err)
    assert "exponent" in err


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 2000 + "T1" + ")" * 2000,
        "+".join(["T1"] * 2000),
        "(-" * 2000 + "q" + ")" * 2000,
    ],
    ids=["parentheses", "sum-chain", "negations"],
)
def test_element_deep_nesting_exits_2(capsys, expr):
    code, out, err = run_cli(capsys, "element", expr, "--m", "1", "--r", "2")
    _assert_one_line_error(code, out, err)
    assert "nested deeper" in err


def test_element_product_chain_guard_exits_2(capsys):
    # 14 factors count as the exponent 14, as (...)^14 does
    factor = "(T1+T2+L1+L3+u1)"
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "element", "*".join([factor] * 14), "--m", "2", "--r", "3", "--guard", "8"
    )
    assert time.perf_counter() - start < 5
    _assert_one_line_error(code, out, err)
    assert "exponent has size 14" in err
    # nested powers multiply the count: (a*a)^3 counts 6
    code, out, err = run_cli(
        capsys, "element", f"({factor}*{factor})^3", "--m", "2", "--r", "3", "--guard", "5"
    )
    _assert_one_line_error(code, out, err)
    assert "exponent has size 6" in err
    # scalar factors are not counted
    code, out, _ = run_cli(
        capsys, "element", f"2*q*u1^2*{factor}*{factor}", "--m", "2", "--r", "3",
        "--guard", "2",
    )
    assert code == 0 and out


def test_unknown_flag_exits_2(capsys):
    assert run_cli(capsys, "element", "T1", "--bogus")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("element", "-T1", "--r", "2"),
        ("element", "T1", "--bogus"),
        ("element", "T1", "--r", "two"),
        ("bogus",),
        (),
    ],
    ids=["leading-minus", "unknown-flag", "bad-int", "bad-command", "no-command"],
)
def test_usage_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    _assert_one_line_error(code, out, err)


def test_expression_starting_with_minus_goes_after_double_dash(capsys):
    code, out, _ = run_cli(capsys, "element", "--r", "2", "--", "-T1")
    assert code == 0 and out == "(-1)*T[2,1]\n"


# -- basis / mult ----------------------------------------------------------


def test_basis_count_matches_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--m", "2", "--n", "2", "--r", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["matrices"]) == math.comb(8 + 1, 2)


def test_basis_block_filtering(capsys):
    code, out, _ = run_cli(
        capsys,
        "basis", "--m", "1", "--n", "2", "--r", "2",
        "--lambda", "1,1", "--mu", "2,0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_basis_block_requires_both_margins(capsys):
    code, _, err = run_cli(
        capsys, "basis", "--m", "1", "--n", "2", "--r", "2", "--lambda", "1,1"
    )
    assert code == 2 and "together" in err


def test_basis_guard_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "basis", "--m", "3", "--n", "2", "--r", "3", "--guard", "5"
    )
    assert code == 2 and "error" in err


def test_basis_block_guard_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "basis", "--m", "2", "--n", "2", "--r", "3",
        "--lambda", "2,1", "--mu", "1,2", "--guard", "1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_basis_block_guard_bounds_the_whole_block(capsys):
    # the block has 14 matrices spread over several entry-sum matrices,
    # none of which alone has more than 8
    argv = ("basis", "--m", "2", "--n", "2", "--r", "3",
            "--lambda", "2,1", "--mu", "1,2")
    code, out, err = run_cli(capsys, *argv, "--guard", "8")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, *argv, "--guard", "14", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 14


def test_mult_identity_is_unit(capsys):
    ident = "[[[1],[0]],[[0],[1]]]"
    code, out, _ = run_cli(
        capsys,
        "mult", "--m", "1", "--n", "2", "--r", "2",
        "--A", ident, "--B", ident, "--format", "json",
    )
    assert code == 0
    terms = json.loads(out)["terms"]
    assert len(terms) == 1 and terms[0]["text"] == "1"


def test_mult_incompatible_margins_prints_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "mult", "--m", "1", "--n", "2", "--r", "2",
        "--A", "[[[2],[0]],[[0],[0]]]", "--B", "[[[1],[0]],[[0],[1]]]",
    )
    assert code == 0 and out.strip() == "0"


def test_mult_guard_exits_2(capsys):
    # the product lives in x_(1,1) H, of rank 2!/1 * 2^2 = 8 over R
    A = "[[[0,0],[1,0]],[[1,0],[0,0]]]"
    argv = ("mult", "--m", "2", "--n", "2", "--r", "2", "--A", A, "--B", A)
    code, out, err = run_cli(capsys, *argv, "--guard", "0")
    _assert_one_line_error(code, out, err)
    assert "size 8" in err
    code, out, _ = run_cli(capsys, *argv, "--guard", "8")
    assert code == 0 and out.count("Phi") == 8


@pytest.mark.parametrize(
    "grid,matrix",
    [
        # two colors at m = 1
        (("1", "2", "2"), "[[[0,0],[1,0]],[[1,0],[0,0]]]"),
        # a 2 x 2 matrix at n = 1
        (("2", "1", "2"), "[[[0,0],[1,0]],[[1,0],[0,0]]]"),
        # entries summing to 3 at r = 2, and a negative entry
        (("1", "2", "2"), "[[[2],[0]],[[0],[1]]]"),
        (("1", "1", "2"), "[[[-1]]]"),
    ],
)
def test_mult_rejects_matrices_outside_the_algebra(capsys, grid, matrix):
    m, n, r = grid
    argv = ("mult", "--m", m, "--n", n, "--r", r)
    code, out, err = run_cli(capsys, *argv, "--A", matrix, "--B", matrix)
    _assert_one_line_error(code, out, err)
    assert f"is not a basis matrix of S({m}; {n}, {r})" in err
    ident = "[[[" + r + "]]]" if n == "1" else None
    if ident is not None:  # the other operand alone is also checked
        code, out, err = run_cli(capsys, *argv, "--A", ident, "--B", matrix)
        _assert_one_line_error(code, out, err)


@pytest.mark.parametrize(
    "lam,mu", [("2,0", "3"), ("2,0,0", "2,0"), ("1,1", "2,1"), ("3,0", "2,0")]
)
def test_basis_rejects_margins_outside_the_algebra(capsys, lam, mu):
    code, out, err = run_cli(
        capsys, "basis", "--m", "2", "--n", "2", "--r", "2", "--lambda", lam, "--mu", mu
    )
    _assert_one_line_error(code, out, err)
    assert "is not a composition of 2 into 2 parts" in err


def test_mult_malformed_matrix_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "mult", "--m", "1", "--n", "2", "--r", "2", "--A", "junk", "--B", "[]"
    )
    assert code == 2


@pytest.mark.parametrize("matrix", ["[[[true]]]", '[[["1"]]]', "[[[1.5]]]", "[[[-0.5]]]"])
def test_mult_takes_only_json_integers(capsys, matrix):
    # Each entry used to pass through int(): the first three ran as [[[1]]]
    # and exited 0, and -0.5 was reported as [[[0]]].
    argv = ("mult", "--m", "1", "--n", "1", "--r", "1", "--A", matrix, "--B", "[[[1]]]")
    code, out, err = run_cli(capsys, *argv)
    _assert_one_line_error(code, out, err)
    assert "not a colored-matrix JSON literal" in err


# -- tables and cache ------------------------------------------------------


def test_tables_guard_bounds_the_products(capsys):
    # S(1; 2, 2) has 10 basis vectors and 34 composable pairs
    argv = ("tables", "--m", "1", "--n", "2", "--r", "2", "--format", "json")
    code, out, err = run_cli(capsys, *argv, "--guard", "10")
    _assert_one_line_error(code, out, err)
    assert "composable pairs" in err and "size 34" in err
    code, out, _ = run_cli(capsys, *argv, "--guard", "34")
    assert code == 0 and len(json.loads(out)["basis"]) == 10


def test_tables_cache_round_trip(tmp_path, capsys):
    args = ("tables", "--m", "1", "--n", "2", "--r", "2", "--format", "json")
    code1, cold, _ = run_cli(capsys, *args, "--cache-dir", str(tmp_path))
    code2, warm, _ = run_cli(capsys, *args, "--cache-dir", str(tmp_path))
    code3, off, _ = run_cli(capsys, *args)
    assert code1 == code2 == code3 == 0
    assert cold == warm == off
    assert list(tmp_path.glob("mult-table-*.json"))


def test_tables_corrupt_cache_is_ignored(tmp_path, capsys):
    args = ("tables", "--m", "1", "--n", "2", "--r", "2", "--format", "json",
            "--cache-dir", str(tmp_path))
    _, good, _ = run_cli(capsys, *args)
    entry = next(tmp_path.glob("mult-table-*.json"))
    entry.write_text('{"kind": "mult-table", "payload": {"basis": [], "products": []}}')
    code, again, _ = run_cli(capsys, *args)
    assert code == 0 and again == good


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_tables_unusable_cache_dir_exits_2(tmp_path, capsys, monkeypatch, below, via):
    # A regular file as the cache directory, or a directory under one: the
    # table is computed, then storing it fails with an OSError.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    directory = str(blocker / below) if below else str(blocker)
    argv = ["tables", "--m", "1", "--n", "1", "--r", "1"]
    if via == "flag":
        argv += ["--cache-dir", directory]
    else:
        monkeypatch.setenv(cache.ENV_VAR, directory)
    code, out, err = run_cli(capsys, *argv)
    _assert_one_line_error(code, out, err)
    assert "not-a-dir" in err


def test_cache_store_load_roundtrip(tmp_path):
    payload = {"values": [1, 2, 3]}
    cache.store(tmp_path, "demo", {"k": 1}, payload)
    assert cache.load(tmp_path, "demo", {"k": 1}) == payload
    assert cache.load(tmp_path, "demo", {"k": 2}) is None
    assert cache.load(None, "demo", {"k": 1}) is None


def test_cache_key_carries_schema_and_version(tmp_path, monkeypatch):
    payload = {"values": [1, 2, 3]}
    cache.store(tmp_path, "demo", {"k": 1}, payload)
    assert cache.load(tmp_path, "demo", {"k": 1}) == payload
    with monkeypatch.context() as patch:
        patch.setattr(cache, "CACHE_SCHEMA", cache.CACHE_SCHEMA + 1)
        assert cache.load(tmp_path, "demo", {"k": 1}) is None
    with monkeypatch.context() as patch:
        patch.setattr(cache, "__version__", cache.__version__ + ".dev1")
        assert cache.load(tmp_path, "demo", {"k": 1}) is None
    assert cache.load(tmp_path, "demo", {"k": 1}) == payload


def test_cache_misses_an_entry_written_by_changed_code(tmp_path):
    """A copy of the package writes an entry; it is served here while the
    copy's source is byte-identical, and missed once one byte changes.  The
    copy reads its source on its first store, not at import."""
    store = ("import sys; from pathlib import Path; from cycloschur import cache, cli; "
             "assert cache._source_digest.cache_info().currsize == 0; "
             "cache.store(Path(sys.argv[1]), 'demo', {'k': 1}, {'v': 1})")
    for changed in (False, True):
        copy = tmp_path / f"copy-{changed}" / "cycloschur"
        shutil.copytree(Path(cache.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if changed:
            source = bytearray((copy / "wreath.py").read_bytes())
            source[3] ^= 0x20  # "The wreath product" -> "the wreath product"
            (copy / "wreath.py").write_bytes(source)
        entries = tmp_path / f"entries-{changed}"
        subprocess.run([sys.executable, "-c", store, str(entries)], check=True,
                       env=dict(os.environ, PYTHONPATH=str(copy.parent)))
        assert len(list(entries.glob("demo-*.json"))) == 1
        assert (cache.load(entries, "demo", {"k": 1}) is None) == changed


def test_cache_detects_payload_tampering(tmp_path):
    cache.store(tmp_path, "demo", {"k": 1}, {"v": 1})
    path = next(tmp_path.glob("demo-*.json"))
    data = json.loads(path.read_text())
    data["payload"]["v"] = 999
    path.write_text(json.dumps(data))
    assert cache.load(tmp_path, "demo", {"k": 1}) is None


def test_cache_entry_is_one_compact_canonical_document(tmp_path):
    payload = {"values": [1, 2, 3], "text": "(q^-1)*Phi"}
    cache.store(tmp_path, "demo", {"k": 1}, payload)
    data = next(tmp_path.glob("demo-*.json")).read_bytes()
    entry = json.loads(data)
    assert entry["payload"] == payload and entry["kind"] == "demo"
    assert data == cache.canonical(entry).encode()


def test_cache_flipped_byte_hides_the_entry(tmp_path):
    payload = {"values": [1, 22, 333], "text": "u1*q"}
    cache.store(tmp_path, "demo", {"k": 1}, payload)
    path = next(tmp_path.glob("demo-*.json"))
    data = path.read_bytes()
    start = data.index(b'"payload":')
    # every byte of the payload, and of the header before it
    for i in range(len(data)):
        for mask in (0x01, 0x20, 0xFF):
            bad = bytearray(data)
            bad[i] ^= mask
            path.write_bytes(bytes(bad))
            assert cache.load(tmp_path, "demo", {"k": 1}) is None, (i >= start, i, mask)
    path.write_bytes(data)
    assert cache.load(tmp_path, "demo", {"k": 1}) == payload


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    assert cache.resolve_cache_dir(None) is None
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    assert cache.resolve_cache_dir(None) == tmp_path
    assert cache.resolve_cache_dir(str(tmp_path / "x")) == tmp_path / "x"
    assert cache.resolve_cache_dir("") is None


# -- verify ----------------------------------------------------------------


def test_verify_suite_names_cover_contract():
    # In the order `all` runs its suites in, and of the CLI's --suite choices.
    assert SUITE_NAMES == (
        "pbw", "straighten", "basis", "rank", "commutative",
        "schur-mult", "typeb", "poincare", "epsilon", "affine-sym",
    )


# Every check of the table, in run order, with the SuiteParams fields of
# its report.
CHECK_TABLE = [
    ("pbw.count", ("m", "r")),
    ("pbw.quadratic", ("m", "r")),
    ("pbw.braid", ("m", "r")),
    ("pbw.cyclotomic", ("m", "r")),
    ("pbw.roundtrip", ("m", "r")),
    ("pbw.assoc", ("m", "r")),
    ("pbw.tau-anti", ("m", "r")),
    ("straighten.closed-form", ("m", "r")),
    ("straighten.exchange", ("m", "r")),
    ("straighten.jm-commute", ("m", "r")),
    ("basis.count", ("m", "n", "r")),
    ("basis.eigen", ("m", "n", "r")),
    ("basis.hom-dims", ("m", "n", "r")),
    ("rank.blocks", ("m", "n", "r", "trials", "exact")),
    ("commutative.pairs", ("m", "r")),
    ("schur-mult.unit", ("m", "n", "r")),
    ("schur-mult.reconstruct", ("m", "n", "r")),
    ("schur-mult.assoc", ("m", "n", "r")),
    ("typeb.coset-basis", ("r", "n")),
    ("typeb.shifted", ("r", "n")),
    ("typeb.example", ("r", "n")),
    ("typeb.routes", ("r", "n")),
    ("typeb.group-algebra", ("r", "n")),
    ("poincare.length-sum", ("m", "r")),
    ("poincare.morita", ("m", "r")),
    ("epsilon.multiplicative", ("m", "r")),
    ("epsilon.basis-map", ("m", "r", "n")),
    ("affine-sym.symmetrizer", ("r",)),
]


def test_verify_check_table():
    assert [(check_id, fields) for check_id, fields, _ in CHECKS] == CHECK_TABLE
    # Each check's report carries exactly its fields, with their values.
    p = SuiteParams(m=1, n=1, r=1, seed=3, trials=2)
    report = run_suite("all", p)
    got = {c["check"]: c["params"] for c in report["checks"]}
    assert got == {
        check_id: {field: getattr(p, field) for field in fields}
        for check_id, fields in CHECK_TABLE
    }


def test_run_suite_builds_each_suites_own_algebras(monkeypatch):
    built = []
    for cls in (verify.HeckeAlgebra, verify.AffineAlgebra):
        def build(*args, cls=cls, **kwargs):
            built.append((cls.__name__, args, kwargs))
            return cls(*args, **kwargs)

        monkeypatch.setattr(verify, cls.__name__, build)
    run_suite("all", SuiteParams(m=2, n=1, r=2))
    # pbw, straighten and epsilon each build H(2, 2); epsilon's affine
    # algebra has the u parameters, affine-sym's has none.
    assert built == [
        ("HeckeAlgebra", (2, 2), {}),
        ("HeckeAlgebra", (2, 2), {}),
        ("HeckeAlgebra", (2, 2), {}),
        ("AffineAlgebra", (2,), {"nvars": 2}),
        ("AffineAlgebra", (2,), {}),
    ]


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nope", SuiteParams())


def test_run_suite_deterministic_given_seed():
    def strip(report):
        report = dict(report)
        report.pop("seconds")
        report["checks"] = [
            {k: v for k, v in c.items() if k != "seconds"} for c in report["checks"]
        ]
        return report

    a = run_suite("pbw", SuiteParams(m=2, r=2, seed=5))
    b = run_suite("pbw", SuiteParams(m=2, r=2, seed=5))
    assert strip(a) == strip(b)


def test_schur_mult_assoc_runs_every_triple_asked_for():
    # Every draw composes (the basis holds the diagonal matrix of each
    # weight), so 250 trials are 250 triples; the check once stopped after
    # 200 draws and passed with fewer.
    report = run_suite("schur-mult", SuiteParams(m=1, n=1, r=1, trials=250))
    (check,) = [c for c in report["checks"] if c["check"] == "schur-mult.assoc"]
    assert (check["status"], check["witness"]) == ("pass", {"triples": 250})


def test_run_suite_all_trivial_grid_fast():
    report = run_suite("all", SuiteParams(m=1, n=1, r=1))
    assert report["status"] == "pass"
    assert report["seconds"] < 1.0
    ids = [c["check"] for c in report["checks"]]
    assert ids == sorted(ids)


def test_run_suite_guard_reports_skip_not_failure():
    report = run_suite("rank", SuiteParams(m=3, n=2, r=3, guard=5))
    assert report["status"] == "pass"
    assert report["checks"][0]["status"] == "skipped(guard)"


GRID_999 = ("--m", "9", "--n", "9", "--r", "9", "--guard", "5")


@pytest.mark.parametrize(
    "suite,flags",
    [
        ("straighten", GRID_999),
        ("poincare", GRID_999),
        ("affine-sym", GRID_999),
        ("epsilon", ("--m", "3", "--n", "1", "--r", "5", "--guard", "100")),
        ("typeb", ("--m", "2", "--n", "1", "--r", "7", "--guard", "5")),
        ("all", GRID_999),
    ],
)
def test_verify_checks_the_guard_before_the_work(suite, flags):
    # Each of these ran for minutes before its suite checked --guard.
    report = verify_in_subprocess(suite, *flags)
    hanging = ("straighten.", "poincare.", "affine-sym.", "epsilon.", "typeb.shifted")
    checks = [c for c in report["checks"] if c["check"].startswith(hanging)]
    assert checks
    assert all(c["status"] == "skipped(guard)" for c in checks), checks


@pytest.mark.parametrize(
    "suite,guard,guarded",
    [
        # 15 basis vectors: 225 ordered pairs of multiply_basis calls
        ("commutative", "100", ("commutative.pairs",)),
        # 30 products in each of unit and reconstruct, 160 bounding assoc
        ("schur-mult", "20", ("schur-mult.unit", "schur-mult.reconstruct",
                              "schur-mult.assoc")),
        # the normal-form basis of H(3, 4) has 1,944 monomials
        ("basis", "20", ("basis.hom-dims",)),
    ],
)
def test_verify_checks_product_counts_against_the_guard(suite, guard, guarded):
    # Each of these ran past 15 s at (m, n, r) = (3, 1, 4) before it checked
    # --guard; commutative ran past 300 s without one.
    report = verify_in_subprocess(suite, "--m", "3", "--n", "1", "--r", "4", "--guard", guard)
    status = {c["check"]: c["status"] for c in report["checks"]}
    assert all(status[check] == "skipped(guard)" for check in guarded), status


def test_verify_checks_epsilon_trials_against_the_guard():
    # The normal-form basis of H(2, 4) has 384 monomials, so this passed the
    # guard and then straightened its five trials for 107 s.
    report = verify_in_subprocess("epsilon", "--m", "2", "--n", "2", "--r", "4", "--guard", "384")
    status = {c["check"]: c["status"] for c in report["checks"]}
    assert status["epsilon.multiplicative"] == "skipped(guard)", status


def test_verify_charges_the_product_of_the_epsilon_images():
    # At (2, 1, 3) the trials charge 5 x 64 and the straightening of trial 0
    # 432: both within 1,000.  Its images have 25 and 42 private terms, and
    # their product, 1,050 term pairs, was not charged.
    report = verify_in_subprocess("epsilon", "--m", "2", "--n", "1", "--r", "3", "--guard", "1000")
    [check] = [c for c in report["checks"] if c["check"] == "epsilon.multiplicative"]
    assert check["status"] == "skipped(guard)", check
    assert check["witness"] == "product of images in trial 0 has size 1050, exceeding guard 1000"


def test_verify_charges_exact_rank_its_elimination():
    # Bareiss on the blocks of S(3; 3, 3) is estimated at 20,789,865 units
    # (rows x columns x min of the two, per block); it passed the default
    # guard and ran 79 s.  (3, 3, 2) is estimated at 75,087 and still runs.
    report = verify_in_subprocess("rank", "--m", "3", "--n", "3", "--r", "3", "--exact")
    status = {c["check"]: c["status"] for c in report["checks"]}
    assert status["rank.blocks"] == "skipped(guard)", status
    report = run_suite("rank", SuiteParams(m=3, n=3, r=2, exact=True))
    assert [c["status"] for c in report["checks"]] == ["pass"]


TRIAL_LOOPS = [
    ("pbw", ("pbw.roundtrip", "pbw.assoc", "pbw.tau-anti")),
    ("straighten", ("straighten.jm-commute",)),
    ("rank", ("rank.blocks",)),
    ("epsilon", ("epsilon.multiplicative",)),
]


@pytest.mark.parametrize("suite,checks", TRIAL_LOOPS)
@pytest.mark.parametrize("guard", [("--guard", "10"), ()], ids=["guard-10", "default-guard"])
def test_verify_checks_trial_counts_against_the_guard(suite, checks, guard):
    # At 10^8 trials each of these loops ran until killed, past 10 s at
    # --guard 10 and past 20 s at the default guard.
    report = verify_in_subprocess(
        suite, "--m", "1", "--n", "1", "--r", "1", "--trials", "100000000", *guard
    )
    status = {c["check"]: c["status"] for c in report["checks"]}
    assert all(status[check] == "skipped(guard)" for check in checks), status


@pytest.mark.parametrize("suite,checks", TRIAL_LOOPS)
def test_trial_cost_has_a_floor(suite, checks):
    # A trial whose size estimate reads 1 still costs time: 10^6 trials at
    # (1, 1, 1) passed the default guard and ran past 8 s (pbw, epsilon).
    report = verify_in_subprocess(
        suite, "--m", "1", "--n", "1", "--r", "1", "--trials", "1000000"
    )
    status = {c["check"]: c["status"] for c in report["checks"]}
    assert all(status[check] == "skipped(guard)" for check in checks), status


@pytest.mark.parametrize("suite", ["pbw", "rank", "all"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_trials_below_one(capsys, suite, trials):
    # --trials 0 exited 2 from inside rank.blocks on --suite all, 0 on pbw,
    # and --suite epsilon reported "trials": -5.
    argv = ("verify", "--suite", suite, "--m", "1", "--n", "1", "--r", "1")
    code, out, err = run_cli(capsys, *argv, "--trials", trials)
    _assert_one_line_error(code, out, err)
    assert "--trials" in err


@pytest.mark.parametrize("suite", SUITE_NAMES + ("all",))
@pytest.mark.parametrize("flag", ["--m", "--n", "--r"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_rejects_an_empty_grid(capsys, suite, flag, value):
    # --suite typeb --n 0 --r 2 and --suite pbw --n 0 exited 0 with checks
    # passed on nothing; --suite typeb --n 1 --r 0 and --suite poincare
    # --m 1 --r 0 exited 2 with a message about another parameter.
    argv = ["verify", "--suite", suite]
    for name in ("--m", "--n", "--r"):
        argv += [name, value if name == flag else "1"]
    code, out, err = run_cli(capsys, *argv)
    _assert_one_line_error(code, out, err)
    assert f"argument {flag}:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("element", "T1", "--m", "2", "--r", "2"),
        ("basis", "--m", "2", "--r", "2"),
        ("mult", "--A", "[[[1]]]", "--B", "[[[1]]]", "--m", "1", "--n", "1", "--r", "1"),
        ("tables", "--m", "2", "--r", "2"),
        ("verify", "--suite", "pbw", "--m", "2", "--r", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_negative_guard_exits_2(capsys, argv):
    # verify --suite pbw --guard -1 exited 0 with "suite pbw: PASS" and every
    # check skipped(guard); the other commands took the value as well.
    code, out, err = run_cli(capsys, *argv, "--guard", "-1")
    _assert_one_line_error(code, out, err)
    assert err == "error: argument --guard: not an integer >= 0: '-1'\n"
    _, _, err = run_cli(capsys, *argv, "--guard", "0")  # drawn by the fuzz tests
    assert "argument --guard" not in err


# S(3; 3, 2) has 378 basis matrices.  Every check that enumerates them skips
# at guard 377; at 378 only the associativity bound, 3,790 products, is over.
SCHUR_332_CHECKS = (
    "basis.count", "basis.eigen", "basis.hom-dims", "epsilon.basis-map", "rank.blocks",
    "schur-mult.assoc", "schur-mult.reconstruct", "schur-mult.unit",
)


@pytest.mark.parametrize(
    "guard,skipped", [(377, SCHUR_332_CHECKS), (378, ("schur-mult.assoc",))]
)
def test_shared_context_keeps_the_guard_boundary(guard, skipped):
    report = run_suite("all", SuiteParams(m=3, n=3, r=2, seed=0, guard=guard))
    got = tuple(c["check"] for c in report["checks"] if c["status"] != "pass")
    assert got == skipped
    assert all(c["status"] == "skipped(guard)" for c in report["checks"] if c["check"] in skipped)


def test_run_suite_builds_one_context_per_grid_and_run(monkeypatch):
    built = []
    init = SchurContext.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SchurContext, "__init__", counting_init)
    runs = []
    for _ in range(2):
        built.clear()
        run_suite("all", SuiteParams(m=3, n=3, r=2))
        grid = [weakref.ref(ctx) for ctx in built if (ctx.m, ctx.n, ctx.r) == (3, 3, 2)]
        assert len(grid) == 1
        runs.append(grid[0])
    built.clear()
    gc.collect()
    # Each run built its own context, and none outlived its run.
    assert runs[0]() is None and runs[1]() is None


def test_verify_cli_rank_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "rank", "--m", "2", "--n", "2", "--r", "2"
    )
    assert code == 0
    assert "rank.blocks: pass" in out
    assert "PASS" in out


def test_verify_cli_json_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "commutative", "--m", "2", "--r", "2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["checks"][0]["check"] == "commutative.pairs"


def test_verify_cli_failure_exit_one(capsys, monkeypatch):
    import cycloschur.cli as cli_mod

    def fake_run_suite(name, params):
        return {
            "suite": name,
            "params": params.to_dict(),
            "status": "fail",
            "checks": [
                {"check": "x.y", "params": {}, "status": "fail",
                 "witness": {"bad": 1}, "seconds": 0.0}
            ],
            "seconds": 0.0,
        }

    monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "rank")
    assert code == 1
    assert "witness" in out


def test_exit_code_mapping():
    assert exit_code_for({"status": "pass"}) == 0
    assert exit_code_for({"status": "fail"}) == 1


def test_verify_cli_typeb_example_present(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "typeb", "--r", "3", "--n", "2"
    )
    assert code == 0
    assert "typeb.example: pass" in out
