"""Independent oracle for the minimal coset representatives.

These are the five constructions ``cycloschur.permutations`` used before
every representative became the placement of a label word: ``coset_reps``
picks each block's positions by a recursion over combinations,
``coset_reps_within`` splits nu into groups per part of mu, lifts each
group's representatives and multiplies them together, and the two coset
factorizations and ``theta_inverse`` hand out values in their own loops.
The tests compare the placement-based code against them.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Sequence

from cycloschur.permutations import (
    IntMatrix,
    Permutation,
    blocks,
    check_composition,
    col_sums,
    identity,
    row_sums,
)


def coset_reps(lam: Sequence[int]) -> list[Permutation]:
    """Minimal-length representatives of the right cosets S_lam d.

    Built constructively: choose which positions receive the values of each
    block, then fill each block's values in increasing position order.
    Sorted by (length, one-line word).
    """
    lam = check_composition(lam)
    r = sum(lam)
    blks = blocks(lam)
    reps: list[Permutation] = []

    def rec(avail: tuple[int, ...], bi: int, im: dict[int, int]):
        if bi == len(blks):
            reps.append(Permutation(tuple(im[p] for p in range(1, r + 1))))
            return
        blk = list(blks[bi])
        for chosen in itertools.combinations(avail, len(blk)):
            new_im = dict(im)
            for pos, val in zip(chosen, blk):
                new_im[pos] = val
            rest = tuple(p for p in avail if p not in set(chosen))
            rec(rest, bi + 1, new_im)

    rec(tuple(range(1, r + 1)), 0, {})
    reps.sort(key=lambda d: (d.length(), d.im))
    return reps


def right_coset_factor(
    w: Permutation, lam: Sequence[int]
) -> tuple[Permutation, Permutation]:
    """Factor w = u * d with u in S_lam and d the minimal rep of S_lam w."""
    lam = check_composition(lam)
    winv = w.inv()
    im = [0] * w.size
    for blk in blocks(lam):
        vals = list(blk)
        positions = sorted(winv(v) for v in vals)
        for pos, val in zip(positions, vals):
            im[pos - 1] = val
    d = Permutation(tuple(im))
    u = w * d.inv()
    return u, d


def left_coset_factor(
    w: Permutation, mu: Sequence[int]
) -> tuple[Permutation, Permutation]:
    """Factor w = d * v with v in S_mu and d the minimal rep of w S_mu."""
    mu = check_composition(mu)
    im = [0] * w.size
    for blk in blocks(mu):
        positions = list(blk)
        vals = sorted(w(p) for p in positions)
        for pos, val in zip(positions, vals):
            im[pos - 1] = val
    d = Permutation(tuple(im))
    v = d.inv() * w
    return d, v


def theta_inverse(A: IntMatrix) -> Permutation:
    """The minimal-length representative of the double coset encoded by A.

    For each column block (positions) taken in increasing order, assign the
    values of row block 1, then row block 2, ..., each in increasing order;
    each row block hands out its values column by column.
    """
    lam = row_sums(A)
    mu = col_sums(A)
    r = sum(lam)
    lam_blocks = blocks(lam)
    mu_blocks = blocks(mu)
    # next value to hand out from each row block
    next_val = [b.start for b in lam_blocks]
    im = [0] * r
    for j, cb in enumerate(mu_blocks):
        positions = list(cb)
        pos_idx = 0
        for i in range(len(A)):
            for _ in range(A[i][j]):
                im[positions[pos_idx] - 1] = next_val[i]
                next_val[i] += 1
                pos_idx += 1
    return Permutation(tuple(im))


def coset_reps_within(
    mu: Sequence[int], nu: Sequence[int]
) -> list[Permutation]:
    """Minimal right-coset representatives of S_nu inside S_mu.

    Requires nu to refine mu (consecutive groups of nu parts sum to the mu
    parts).  Built blockwise and multiplied together; lengths add across
    blocks since supports are disjoint.
    """
    mu = check_composition(mu)
    nu = check_composition(nu)
    r = sum(mu)
    # split nu into groups matching mu
    groups: list[tuple[int, ...]] = []
    idx = 0
    for part in mu:
        grp: list[int] = []
        total = 0
        while total < part:
            if idx >= len(nu):
                raise ValueError(f"{nu} does not refine {mu}")
            grp.append(nu[idx])
            total += nu[idx]
            idx += 1
        if total != part:
            raise ValueError(f"{nu} does not refine {mu}")
        # absorb zero parts that follow, to keep alignment canonical
        while idx < len(nu) and nu[idx] == 0:
            grp.append(0)
            idx += 1
        groups.append(tuple(grp))
    while idx < len(nu) and nu[idx] == 0:
        idx += 1
    if idx != len(nu):
        raise ValueError(f"{nu} does not refine {mu}")

    per_block: list[list[Permutation]] = []
    offset = 0
    for part, grp in zip(mu, groups):
        local = coset_reps(grp)
        lifted = []
        for d in local:
            im = list(range(1, r + 1))
            for k, v in enumerate(d.im):
                im[offset + k] = offset + v
            lifted.append(Permutation(tuple(im)))
        per_block.append(lifted)
        offset += part
    out = []
    for combo in itertools.product(*per_block):
        prod = reduce(lambda a, b: a * b, combo, identity(r))
        out.append(prod)
    out.sort(key=lambda d: (d.length(), d.im))
    return out
