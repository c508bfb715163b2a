"""Minimal coset representatives as placements of label words.

``coset_reps``, ``coset_reps_within``, both coset factorizations and
``theta_inverse`` are all built by ``permutations._placed``.  The oracle is
the five constructions they replaced (``tests/coset_oracle.py``): on a full
small grid both must give the same permutations in the same order, and
pairs that do not refine must raise the same error.
"""

from __future__ import annotations

import pytest
import coset_oracle as oracle

from cycloschur import permutations
from cycloschur.permutations import (
    Permutation,
    all_perms,
    compositions,
    matrices_with_margins,
)


def _compositions_upto(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every composition of at most ``total`` into at most ``parts`` parts."""
    return [
        lam for r in range(total + 1) for k in range(parts + 1) for lam in compositions(r, k)
    ]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as err:
        return ("ValueError", str(err))


def test_coset_reps_within_matches_oracle():
    refining = 0
    for mu in _compositions_upto(5, 3):
        for nu in _compositions_upto(5, 5):
            got = _outcome(permutations.coset_reps_within, mu, nu)
            assert got == _outcome(oracle.coset_reps_within, mu, nu), (mu, nu)
            refining += isinstance(got, list)
    assert refining > 1000  # the grid is not all error cases


def test_coset_reps_matches_oracle():
    for lam in _compositions_upto(6, 4):
        assert permutations.coset_reps(lam) == oracle.coset_reps(lam), lam


def test_coset_factors_match_oracle():
    for r in range(6):
        lams = [lam for k in range(4) for lam in compositions(r, k)]
        for w in all_perms(r):
            for lam in lams:
                assert permutations.right_coset_factor(w, lam) == oracle.right_coset_factor(
                    w, lam
                ), (w.im, lam)
                assert permutations.left_coset_factor(w, lam) == oracle.left_coset_factor(
                    w, lam
                ), (w.im, lam)


def test_theta_inverse_matches_oracle():
    for r in range(6):
        comps = [lam for k in range(4) for lam in compositions(r, k)]
        for lam in comps:
            for mu in comps:
                for A in matrices_with_margins(lam, mu):
                    assert permutations.theta_inverse(A) == oracle.theta_inverse(A), A


def test_coset_reps_within_counts_past_the_grid():
    # |S_8| / |S_2|^4 and |S_4 x S_4| / |S_2 x S_2 x S_1 x S_3|
    assert len(permutations.coset_reps_within((8,), (2, 2, 2, 2))) == 2520
    assert len(permutations.coset_reps_within((4, 4), (2, 2, 1, 3))) == 24


@pytest.mark.parametrize("lam", [(3,), (1, 2), (2, 1), (1,)])
@pytest.mark.parametrize("factor", ["right_coset_factor", "left_coset_factor"])
def test_coset_factors_reject_a_composition_of_another_size(factor, lam):
    # A label word longer than w is cut short by w's positions; placed as it
    # is, it would give a permutation of the wrong block sizes.
    with pytest.raises((ValueError, IndexError)):
        getattr(permutations, factor)(Permutation((2, 1)), lam)
