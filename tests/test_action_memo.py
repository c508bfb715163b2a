"""multiply_basis through the memo of b_A's right action, against the H path.

``multiply_basis`` reads the x_lam H coordinates of b_A T_w L^a from a memo
on the context (``SchurContext._actions``), sums them against the
coefficients of tail(B) and eliminates.  The oracle is the path it
replaced: the product b_A * tail(B) formed in H over u, then
``express_in_hom_basis`` on it, each on a context of its own, so that no
memo is shared between the two sides.
"""

from __future__ import annotations

import random

import pytest

from cycloschur.hecke import HeckeAlgebra
from cycloschur.ring import RingElem
from cycloschur.schur import (
    NotInSpanError,
    SchurContext,
    express_in_hom_basis,
    multiply_basis,
)
from cycloschur.wreath import colored_col_sums, colored_row_sums

FRESH_SAMPLE = 12


def composable_pairs(ctx: SchurContext) -> list:
    basis = ctx.basis()
    return [(A, B) for A in basis for B in basis if colored_col_sums(A) == colored_row_sums(B)]


def oracle_table(ctx: SchurContext) -> dict:
    """Every composable product, by the H-side path, on ctx alone."""
    return {
        (A, B): express_in_hom_basis(
            ctx, ctx.b_element(A) * ctx.tail(B), colored_row_sums(A), colored_col_sums(B)
        )
        for A, B in composable_pairs(ctx)
    }


def assert_memo_matches(make_ctx, seed: int, fresh_sample: int = FRESH_SAMPLE) -> None:
    """Shuffled on one context, then a sample each on a context of its own."""
    expected = oracle_table(make_ctx())
    pairs = list(expected)
    random.Random(seed).shuffle(pairs)
    ctx = make_ctx()
    for A, B in pairs:
        assert multiply_basis(ctx, A, B) == expected[(A, B)], (A, B)
    # The memo holds one row per squeezed left factor, and reads back what
    # it stored.
    assert set(ctx._actions) == {ctx.squeezed(A) for A, _ in pairs}
    for A, B in pairs[:fresh_sample]:
        assert multiply_basis(ctx, A, B) == expected[(A, B)]
        assert multiply_basis(make_ctx(), A, B) == expected[(A, B)]


@pytest.mark.parametrize("grid, seed", [((3, 2, 2), 1), ((2, 2, 3), 2), ((3, 1, 3), 3)])
def test_memo_matches_the_hecke_path(grid, seed):
    assert_memo_matches(lambda: SchurContext(*grid), seed)


def test_memo_interns_keys_and_coefficients():
    ctx = SchurContext(3, 1, 2)
    for A, B in composable_pairs(ctx):
        multiply_basis(ctx, A, B)
    first: dict = {}
    for row in ctx._actions.values():
        for entry in row.values():
            assert isinstance(entry, tuple)
            for key, c in entry:
                # an equal module key or coefficient is the same object
                assert first.setdefault(key, key) is key
                assert first.setdefault(c, c) is c


def test_element_outside_span_raises_on_every_call():
    ctx = SchurContext(2, 2, 2)
    pairs = composable_pairs(ctx)
    expected = {(A, B): multiply_basis(ctx, A, B) for A, B in pairs}
    assert ctx._actions
    z = ctx.hecke.x_lambda((2, 0)) * ctx.hecke.gen_L(1)
    for _ in range(3):
        with pytest.raises(NotInSpanError):
            express_in_hom_basis(ctx, z, (2, 0), (2, 0))
    # An element of another algebra, here the one over free e_1, e_2, is
    # not accepted.
    over_e = HeckeAlgebra(2, 2, overflow=[RingElem.u_var(1, 2), -RingElem.u_var(2, 2)])
    with pytest.raises(ValueError, match="context's algebra"):
        express_in_hom_basis(ctx, over_e.x_lambda((2, 0)), (2, 0), (2, 0))
    # The failed eliminations leave the memo and the products as they were.
    for A, B in pairs:
        assert multiply_basis(ctx, A, B) == expected[(A, B)]
