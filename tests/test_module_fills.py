"""Rows of b_A's right action, filled on module coordinates, against H.

``SchurContext._action_row`` reaches b_A T_w L^a from the longest prefix of
its word already in the row and applies the remaining letters through the
context's module step tables.  The oracle (``tests/action_oracle.py``)
straightens b_A in H and reads the module coordinates off the normal form.
Every row entry must equal it, for every basis matrix and every PBW
monomial, whatever order the keys are asked for in; and each node of a
row must be computed by exactly one module step.
"""

from __future__ import annotations

import random

import pytest
import action_oracle as oracle

from cycloschur import schur
from cycloschur.permutations import identity, simple
from cycloschur.schur import SchurContext

GRIDS = [(3, 2, 2), (2, 2, 3), (3, 1, 3), (1, 3, 3), (2, 3, 2)]


def _all_at_once(ctx, A, keys):
    ctx._action_row(A, keys)


def _shuffled(ctx, A, keys):
    keys = list(keys)
    random.Random(len(keys)).shuffle(keys)
    for key in keys:
        ctx._action_row(A, [key])


def _reversed(ctx, A, keys):
    for key in reversed(keys):
        ctx._action_row(A, [key])


ORDERS = {"all-at-once": _all_at_once, "shuffled": _shuffled, "reversed": _reversed}


@pytest.fixture(scope="module", params=GRIDS, ids=lambda g: "-".join(map(str, g)))
def expected(request):
    """(grid, PBW monomials, {A: oracle entries}), on a context of its own."""
    ctx = SchurContext(*request.param)
    keys = list(ctx.hecke.pbw_basis())
    return request.param, keys, {A: oracle.action_entries(ctx, A, keys) for A in ctx.basis()}


@pytest.fixture
def module_steps(monkeypatch):
    """A counter of the module steps the fills make (algebra steps not counted)."""
    count = [0]
    apply_steps = schur._apply_steps

    def counted(*args):
        count[0] += 1
        return apply_steps(*args)

    monkeypatch.setattr(schur, "_apply_steps", counted)
    return count


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_every_row_entry_equals_the_oracle(expected, module_steps, order):
    grid, keys, entries = expected
    ctx = SchurContext(*grid)
    for A, want in entries.items():
        ORDERS[order](ctx, A, keys)
        row = ctx._actions[A]
        assert all(dict(row[key]) == want[key] for key in keys), A
    # No node is straightened twice: each module step stores one new entry,
    # and only the (id, 0) entries, b_A itself, are stored without a step.
    root = (identity(ctx.r), (0,) * ctx.r)
    assert module_steps[0] == sum(len(row) - (root in row) for row in ctx._actions.values())


def test_fills_resume_from_stored_prefixes(module_steps):
    ctx = SchurContext(2, 2, 3)
    A = ctx.basis()[-1]
    w = simple(1, 3) * simple(2, 3)  # word (1, 2)
    ctx._action_row(A, [(w, (0, 0, 1))])  # T_1, T_2, then L_3
    assert module_steps[0] == 3
    assert set(ctx._actions[A]) == {
        (identity(3), (0, 0, 0)),
        (simple(1, 3), (0, 0, 0)),
        (w, (0, 0, 0)),
        (w, (0, 0, 1)),
    }
    ctx._action_row(A, [(w, (1, 0, 1)), (simple(1, 3), (0, 0, 0))])  # one more L_1
    assert module_steps[0] == 4

