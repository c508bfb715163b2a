"""Fuzz the `cyclo element` command line: every input ends in exit 0 or 2.

Expressions are drawn from the grammar (plus raw strings over its
alphabet, for syntax errors) with small exponents and shallow nesting,
and the flags from small ranges that include invalid values.  A small
--guard must keep each run short.
"""

from __future__ import annotations

import contextlib
import io
import time

from hypothesis import given, settings, strategies as st

from cycloschur.cli import main

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
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    assert elapsed < _SECONDS_PER_EXAMPLE, argv
