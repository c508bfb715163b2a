"""Independent oracle for the hom-basis elimination: the greedy loop.

``greedy_eliminate`` is how ``cycloschur.schur`` re-expanded an element of
x_lam H in the basis {b_C} before it swept a precomputed list of leading
terms: on every pass it takes the greatest remaining module term under
``order_key`` (representative length, pulled-back exponent), rebuilds the
colored matrix leading there from the term alone (``recover_matrix``), and
subtracts f b_C in full, leading term included.  Nothing is memoised and
nothing is enumerated; a term that is no leading pattern, a matrix with the
wrong margins, or more passes than the module has basis vectors raise
``NotInSpanError``.  The tests compare the sweep against it.
"""

from __future__ import annotations

from typing import Sequence

from cycloschur.permutations import (
    Composition,
    Permutation,
    ddot_inverse,
    left_coset_factor,
    nu_of,
    theta,
)
from cycloschur.schur import NotInSpanError, SchurContext, module_dimension
from cycloschur.wreath import ColoredMatrix


def order_key(mu: Composition):
    """The order of module terms (d2, c) under column margins mu."""

    def key(item: tuple[Permutation, tuple[int, ...]]):
        d2, c = item
        _, v = left_coset_factor(d2, mu)
        return (d2.length(), v.inv().apply_to_tuple(c), d2.im, c)

    return key


def suffix_diffs(ahat: Sequence[int]) -> tuple[int, ...] | None:
    """Invert per-block suffix sums; None if not nonincreasing/nonnegative."""
    k = len(ahat)
    if any(x < 0 for x in ahat):
        return None
    for t in range(k - 1):
        if ahat[t] < ahat[t + 1]:
            return None
    return tuple((ahat[t] - (ahat[t + 1] if t + 1 < k else 0)) for t in range(k))


def recover_matrix(
    ctx: SchurContext,
    lam: Composition,
    mu: Composition,
    d2: Permutation,
    c: tuple[int, ...],
) -> tuple[ColoredMatrix, Permutation]:
    """Rebuild the colored matrix whose leading module term is (d2, c).

    Raises NotInSpanError when the term cannot be a leading term: wrong
    representative, non-monotone exponent block, or color overflow.
    """
    d, v = left_coset_factor(d2, mu)
    size = theta(lam, d, mu)
    vs = ctx.hecke.coset_reps_within(mu, nu_of(size))
    max_len = max(x.length() for x in vs)
    longest = [x for x in vs if x.length() == max_len]
    if len(longest) != 1:
        raise AssertionError("longest coset representative is not unique")
    if v != longest[0]:
        raise NotInSpanError(f"term at {d2.im} pairs with {v.im}, not the longest representative")
    e = v.inv().apply_to_tuple(c)
    n_rows, n_cols = len(size), len(size[0]) if size else 0
    entries: dict[tuple[int, int], tuple[int, ...]] = {}
    offset = 0
    for j in range(n_cols):
        for i in range(n_rows):
            k = size[i][j]
            ahat = e[offset : offset + k]
            offset += k
            diffs = suffix_diffs(ahat)
            if diffs is None or sum(diffs) > ctx.m - 1:
                raise NotInSpanError(
                    f"exponent block {ahat} at cell ({i + 1},{j + 1}) is not a leading pattern"
                )
            entries[(i, j)] = ddot_inverse(diffs, ctx.m)
    C = tuple(tuple(entries[(i, j)] for j in range(n_cols)) for i in range(n_rows))
    return C, v


def greedy_eliminate(
    ctx: SchurContext, coords: dict, lam: Composition, mu: Composition, b_coords
) -> dict:
    """Coordinates of the module element ``coords`` (consumed) in the
    (lam, mu) block, against ``b_coords(C)``, by the greedy loop."""
    key = order_key(mu)
    out: dict = {}
    budget = module_dimension(ctx, lam) + 1
    while coords:
        budget -= 1
        if budget < 0:
            raise NotInSpanError("triangular elimination failed to terminate")
        d2, c = max(coords, key=key)
        f = coords[(d2, c)]
        C, _ = recover_matrix(ctx, lam, mu, d2, c)
        if ctx.margins(C) != (lam, mu):
            raise NotInSpanError("recovered matrix has wrong margins")
        _add(out, C, f)
        for k, coeff in b_coords(C).items():
            _add(coords, k, -(coeff * f))
    return out


def _add(out: dict, key, c) -> None:
    """out[key] += c by ``RingElem.__add__``, a zero sum deleted: a keyed sum
    of its own, sharing no accumulation code with the sweep it checks."""
    total = out.pop(key, None)
    total = c if total is None else total + c
    if not total.is_zero():
        out[key] = total
