"""Squeezed products and basis vectors against the unsqueezed path.

A zero part of a weight adds no position to S_lam, so b_A = b_{A*} for A*,
A with its zero rows and columns moved to the end, and ``multiply_basis``
computes each product of squeezed matrices once per context, then puts the
zero rows and columns back.  A wrong squeeze could break both sides of
``schur-mult.reconstruct`` in the same way, so the evidence is here: every
product and basis vector against ``tests/squeeze_oracle.py``, which keys
every memo on the matrices as given.
"""

from __future__ import annotations

import random

import pytest
from squeeze_oracle import Unsqueezed

from cycloschur.hecke import module_coords
from cycloschur.schur import SchurContext, b_element_of, multiply_basis, tail_of
from cycloschur.wreath import colored_col_sums, colored_row_sums

SAMPLE_233 = 500


def composable_pairs(ctx: SchurContext) -> list:
    by_rows: dict = {}
    for B in ctx.basis():
        by_rows.setdefault(colored_row_sums(B), []).append(B)
    return [(A, B) for A in ctx.basis() for B in by_rows.get(colored_col_sums(A), ())]


def test_every_product_of_332_matches_the_unsqueezed_path():
    ctx, oracle = SchurContext(3, 3, 2), Unsqueezed(3, 3, 2)
    pairs = composable_pairs(ctx)
    random.Random(21).shuffle(pairs)
    seen: dict = {}
    for A, B in pairs:
        got = multiply_basis(ctx, A, B)
        assert got == oracle.multiply_basis(A, B), (A, B)
        # Each matrix returned is one object, whichever pair returned it.
        assert all(seen.setdefault(C, C) is C for C in got)
    # 25,758 composable pairs, 954 distinct squeezed pairs computed.
    assert (len(pairs), len(ctx._products)) == (25758, 954)


def test_a_sample_of_233_matches_the_unsqueezed_path():
    ctx, oracle = SchurContext(2, 3, 3), Unsqueezed(2, 3, 3)
    pairs = random.Random(233).sample(composable_pairs(ctx), SAMPLE_233)
    for A, B in pairs:
        assert multiply_basis(ctx, A, B) == oracle.multiply_basis(A, B), (A, B)


@pytest.mark.parametrize("grid", [(2, 3, 2), (3, 3, 2)])
def test_basis_vectors_equal_those_of_the_unsqueezed_matrix(grid):
    ctx = SchurContext(*grid)
    alg = ctx.hecke
    for A in ctx.basis():
        b = b_element_of(alg, A)
        assert ctx.b_element(A) == b, A
        assert ctx.tail(A) == tail_of(alg, A), A
        assert ctx.b_coords(A) == module_coords(b, colored_row_sums(A)), A
    # 378 basis matrices of (3, 3, 2) share the memos of 42 squeezed ones.
    assert len(ctx._tails) == len({ctx.squeezed(A) for A in ctx.basis()})
    if grid == (3, 3, 2):
        assert (len(ctx.basis()), len(ctx._tails)) == (378, 42)


def test_squeezed_moves_zero_rows_and_columns_to_the_end():
    ctx = SchurContext(2, 3, 2)
    A = ((0, 0), (0, 0), (0, 0)), ((0, 1), (0, 0), (1, 0)), ((0, 0), (0, 0), (0, 0))
    S = ctx.squeezed(A)
    assert S == (((0, 1), (1, 0), (0, 0)), ((0, 0),) * 3, ((0, 0),) * 3)
    assert ctx.squeezed(S) is S
    # Another matrix with the same squeeze gets the same object.
    assert ctx.squeezed((A[1], A[0], A[2])) is S
    assert ctx.margins(S) == ((2, 0, 0), (1, 1, 0))


def test_editing_a_result_leaves_later_calls_unchanged():
    ctx, oracle = SchurContext(3, 2, 2), Unsqueezed(3, 2, 2)
    pairs = composable_pairs(ctx)
    # Pairs whose squeezes coincide share one memoised product; a pair of
    # weights without zero parts is its own squeeze.
    by_squeeze: dict = {}
    for A, B in pairs:
        by_squeeze.setdefault((ctx.squeezed(A), ctx.squeezed(B)), []).append((A, B))
    shared = max(by_squeeze.values(), key=len)
    own = next(
        (A, B) for A, B in pairs if all(ctx.margins(A)[0] + ctx.margins(A)[1] + ctx.margins(B)[1])
    )
    assert own == (ctx.squeezed(own[0]), ctx.squeezed(own[1]))
    assert len(shared) > 1
    expected = {pair: oracle.multiply_basis(*pair) for pair in shared + [own]}
    for A, B in expected:
        got = multiply_basis(ctx, A, B)
        assert got == expected[(A, B)]
        C = next(iter(got))
        got[C] = got[C] + got[C]
        got[(("x",),)] = got.pop(C)
        got.clear()
    for A, B in expected:
        assert multiply_basis(ctx, A, B) == expected[(A, B)]
        assert multiply_basis(ctx, A, B) is not multiply_basis(ctx, A, B)
