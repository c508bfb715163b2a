"""Fuzz the `cyclo` command line: every input ends in exit 0 or 2.

For `element`, expressions are drawn from the grammar (plus raw strings
over its alphabet, for syntax errors) with small exponents and shallow
nesting.  For `mult` and `tables`, colored matrices are drawn with sizes
that may or may not match the grid (plus raw strings, for malformed
JSON), on tiny grids.  `verify` runs every suite and `all`; `basis` takes
`--lambda/--mu` of any length and sum, negative parts included.  The flags
come from small ranges that include invalid values.  A small --guard must
keep each run short.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from unittest import mock

from hypothesis import given, settings, strategies as st

from cycloschur.cli import main
from cycloschur.verify import SUITE_NAMES

_SECONDS_PER_EXAMPLE = 10

_INDEX = st.integers(0, 4)

_ATOMS = st.one_of(
    st.builds("{}{}".format, st.sampled_from("TLXu"), _INDEX),
    st.just("q"),
    st.integers(0, 12).map(str),
    st.builds("sigma({})".format, _INDEX),
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
        lambda parts: "x(" + ",".join(map(str, parts)) + ")"
    ),
)


def _exprs(depth: int) -> st.SearchStrategy[str]:
    if depth == 0:
        return _ATOMS
    inner = _exprs(depth - 1)
    return st.one_of(
        inner,
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*"), inner),
        st.builds("({})^{}".format, inner, st.integers(-2, 4)),
        st.builds("(-{})".format, inner),
    )


_EXPRESSIONS = st.one_of(
    _exprs(3),
    st.text(alphabet="TLXuqsigmx()+-*^,0123 ", max_size=16),
)


def _run(argv: list[str]) -> None:
    """Run the CLI with no cache directory; assert the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("CYCLO_CACHE_DIR", None)
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    assert elapsed < _SECONDS_PER_EXAMPLE, argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    expr=_EXPRESSIONS,
    m=st.integers(-1, 2),
    r=st.integers(-1, 3),
    guard=st.integers(0, 8),
    affine=st.booleans(),
    fmt=st.sampled_from(["text", "json"]),
)
def test_element_exits_0_or_2_without_traceback(expr, m, r, guard, affine, fmt):
    argv = ["element", "--m", str(m), "--r", str(r), "--guard", str(guard),
            "--format", fmt]
    if affine:
        argv.append("--affine")
    argv += ["--", expr]  # so that an expression starting with '-' is not a flag
    _run(argv)


def _colored_matrix(side: int, colors: int, low: int = 0) -> st.SearchStrategy[str]:
    """JSON of a side x side matrix whose entries list `colors` counts."""
    entry = st.lists(st.integers(low, 2), min_size=colors, max_size=colors)
    row = st.lists(entry, min_size=side, max_size=side)
    return st.lists(row, min_size=side, max_size=side).map(json.dumps)


_GRID = {
    "m": st.integers(0, 2),
    "n": st.integers(0, 2),
    "r": st.integers(0, 3),
    "fmt": st.sampled_from(["text", "json"]),
}


def _grid_argv(command: str, m, n, r, guard, fmt) -> list[str]:
    return [command, "--m", str(m), "--n", str(n), "--r", str(r),
            "--guard", str(guard), "--format", fmt]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), guard=st.integers(0, 40), **_GRID)
def test_mult_exits_0_or_2_without_traceback(data, m, n, r, guard, fmt):
    # Matrices of the grid's shape (basis vectors when the entries happen
    # to sum to r), of other shapes with negative entries, or not JSON.
    matrices = st.one_of(
        _colored_matrix(n, m),
        st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
            lambda shape: _colored_matrix(*shape, low=-1)
        ),
        st.text(alphabet="[]0123,-", max_size=12),
    )
    A, B = data.draw(matrices, label="A"), data.draw(matrices, label="B")
    _run(_grid_argv("mult", m, n, r, guard, fmt) + ["--A", A, "--B", B])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(guard=st.integers(0, 500), **_GRID)
def test_tables_exits_0_or_2_without_traceback(m, n, r, guard, fmt):
    _run(_grid_argv("tables", m, n, r, guard, fmt))


# Grids for `verify` and `basis`, negative sizes included.
_WIDE_GRID = {
    "m": st.integers(-1, 2),
    "n": st.integers(-1, 2),
    "r": st.integers(-1, 3),
    "guard": st.integers(0, 10),
    "fmt": st.sampled_from(["text", "json"]),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(suite=st.sampled_from(SUITE_NAMES + ("all",)), exact=st.booleans(), **_WIDE_GRID)
def test_verify_exits_0_or_2_without_traceback(suite, exact, m, n, r, guard, fmt):
    # Exit 1 (a failed check) would be a wrong result, so it fails here too.
    argv = _grid_argv("verify", m, n, r, guard, fmt) + ["--suite", suite]
    if exact:
        argv.append("--exact")
    _run(argv)


_PARTS = st.one_of(
    st.none(),
    st.lists(st.integers(-1, 3), max_size=4).map(lambda parts: ",".join(map(str, parts))),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lam=_PARTS, mu=_PARTS, **_WIDE_GRID)
def test_basis_exits_0_or_2_without_traceback(lam, mu, m, n, r, guard, fmt):
    # `--lambda=-1,4`, so that a negative first part is not read as a flag.
    argv = _grid_argv("basis", m, n, r, guard, fmt)
    if lam is not None:
        argv.append(f"--lambda={lam}")
    if mu is not None:
        argv.append(f"--mu={mu}")
    _run(argv)
