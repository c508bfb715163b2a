"""Shared independent oracle: move T_i through L-powers one factor at a time.

Works formally over natural exponents with no polynomial reduction, using
only the elementary two-term exchange moves; both the finite and affine
engine tests compare their closed-form straightening against this.
``kernel_t_column`` keeps the step column of T_i as the kernel once summed
it, for the step-column tests.
"""

from __future__ import annotations

from cycloschur.hecke import _swap_positions
from cycloschur.ring import RingElem, _collect, add_products


def oracle_move(b: tuple[int, ...], i: int, nvars: int):
    """X^b T_i as {(has_T, exponents): RingElem}, one L-factor at a time.

    Elementary moves used:
    L_i T_i = T_i L_{i+1} + (1-q) L_{i+1},
    L_{i+1} T_i = T_i L_i + (q-1) L_{i+1},
    L_j T_i = T_i L_j for j != i, i+1.
    """
    one = RingElem.one(nvars)
    q = RingElem.q_power(1, nvars)
    if all(x == 0 for x in b):
        return {(True, b): one}
    j = next(k for k, x in enumerate(b) if x > 0) + 1  # 1-indexed
    b_less = tuple(x - 1 if k + 1 == j else x for k, x in enumerate(b))
    out: dict = {}

    def add(key, c):
        cur = out.get(key)
        new = c if cur is None else cur + c
        if new.is_zero():
            out.pop(key, None)
        else:
            out[key] = new

    def bump(vec, pos):
        return tuple(x + 1 if k + 1 == pos else x for k, x in enumerate(vec))

    if j == i:
        for (has_T, c), coeff in oracle_move(b_less, i, nvars).items():
            add((has_T, bump(c, i + 1)), coeff)
        add((False, bump(b_less, i + 1)), one - q)
    elif j == i + 1:
        for (has_T, c), coeff in oracle_move(b_less, i, nvars).items():
            add((has_T, bump(c, i)), coeff)
        add((False, bump(b_less, i + 1)), q - one)
    else:
        for (has_T, c), coeff in oracle_move(b_less, i, nvars).items():
            add((has_T, bump(c, j)), coeff)
    return out


def kernel_t_column(alg, key, i: int) -> dict:
    """T_w M^a * T_i as ``hecke._t_column`` built it before it wrote its
    column plainly: every term of the three-case rule, the t = 0
    correction included, summed by the kernel into fresh totals."""
    w, a = key
    ai, aj = a[i - 1], a[i]
    head, tail = a[: i - 1], a[i + 1 :]
    a_sw, wsi = head + (aj, ai) + tail, _swap_positions(w, i)
    if w.im[i - 1] < w.im[i]:
        items = [((wsi, a_sw), alg._one)]
    else:
        items = [((w, a_sw), alg._qm1), ((wsi, a_sw), alg._q)]
    if ai < aj:
        items += [((w, head + (aj - t, ai + t) + tail), alg._qm1) for t in range(1, aj - ai + 1)]
    elif ai > aj:
        neg_qm1 = -alg._qm1
        items += [((w, head + (aj + t, ai - t) + tail), neg_qm1) for t in range(ai - aj)]
    acc: dict = {}
    add_products(acc, items, alg._one)
    return _collect(acc)
