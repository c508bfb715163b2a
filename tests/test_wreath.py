"""Tests for the wreath product and colored matrix correspondence."""

from __future__ import annotations

import itertools
import math

import pytest

from cycloschur.guards import GuardError
from cycloschur.permutations import (
    Permutation,
    compositions,
    identity,
    young_subgroup,
)
from cycloschur.wreath import (
    ColoredPerm,
    a_ddot,
    colored_col_sums,
    colored_count,
    colored_from_uncolored,
    colored_identity,
    colored_inverse,
    colored_matrix_of,
    colored_mul,
    colored_row_sums,
    colored_simple,
    colored_size,
    colored_t,
    colored_word,
    double_coset_rep,
    enumerate_colored,
    enumerate_colored_with_margins,
    enumerate_wreath,
    j_supported,
    nu_colored,
    tilde_offsets,
)


def test_products_equal_the_validated_construction():
    """colored_mul builds its product without validating again; each product
    over (Z/2) wr S_3 and (Z/3) wr S_2 equals the validated construction of
    its definition, (w o v)(i) = w(v(i))."""
    for m, r in ((2, 3), (3, 2)):
        elems = list(enumerate_wreath(m, r))
        for w, v in itertools.product(elems, repeat=2):
            colors = tuple((v.colors[i] + w.colors[v.perm(i + 1) - 1]) % m for i in range(r))
            im = tuple(w.perm(v.perm(i)) for i in range(1, r + 1))
            expected = ColoredPerm(m, colors, Permutation(im))
            got = colored_mul(w, v)
            assert type(got) is ColoredPerm and got == expected and hash(got) == hash(expected)
            assert (got.m, got.colors, got.perm) == (m, colors, expected.perm)
    with pytest.raises(ValueError):
        colored_mul(colored_identity(2, 2), colored_identity(3, 2))
    for bad in ((2, (0, 2), identity(2)), (2, (0,), identity(2)), (3, (0, -1), identity(2))):
        with pytest.raises(ValueError):
            ColoredPerm(*bad)


def test_group_axioms_exhaustive_small():
    m, r = 2, 2
    elems = list(enumerate_wreath(m, r))
    assert len(elems) == m**r * math.factorial(r) == 8
    e = colored_identity(m, r)
    for w in elems:
        assert colored_mul(w, e) == w
        assert colored_mul(e, w) == w
        assert colored_mul(w, colored_inverse(w)) == e
    for a in elems:
        for b in elems:
            for c in elems[:3]:
                assert colored_mul(colored_mul(a, b), c) == colored_mul(
                    a, colored_mul(b, c)
                )


def test_generator_relations():
    m, r = 3, 3
    t1 = colored_t(1, m, r)
    # t_1 has order m
    x = t1
    for _ in range(m - 1):
        x = colored_mul(x, t1)
    assert x.is_identity()
    # s_i t_i s_i = t_{i+1}
    s1 = colored_simple(1, m, r)
    lhs = colored_mul(colored_mul(s1, t1), s1)
    assert lhs == colored_t(2, m, r)
    # t's commute
    t2 = colored_t(2, m, r)
    assert colored_mul(t1, t2) == colored_mul(t2, t1)
    # s_1 commutes with t_3
    t3 = colored_t(3, m, r)
    assert colored_mul(s1, t3) == colored_mul(t3, s1)


def test_type_b_braid_relation():
    # m = 2: (s_0 s_1)^4 = 1, i.e. s0 s1 s0 s1 = s1 s0 s1 s0
    m, r = 2, 2
    s0 = colored_simple(0, m, r)
    s1 = colored_simple(1, m, r)
    lhs = colored_word([0, 1, 0, 1], m, r)
    rhs = colored_word([1, 0, 1, 0], m, r)
    assert lhs == rhs
    assert colored_mul(s0, s0).is_identity()
    assert colored_mul(s1, s1).is_identity()


def test_apply_and_composition_agree():
    # (w o v)(i) must equal w applied to v(i), colors adding along the way
    m, r = 3, 3
    import random

    rng = random.Random(4)
    elems = list(enumerate_wreath(m, r))
    for _ in range(50):
        w, v = rng.choice(elems), rng.choice(elems)
        wv = colored_mul(w, v)
        for i in range(1, r + 1):
            cv, val = v.apply(i)
            cw, val2 = w.apply(val)
            assert wv.apply(i) == ((cv + cw) % m, val2)


def test_colored_matrix_golden():
    # n=2, m=2, r=3 worked example: the representative of
    # [[(0,0),(1,0)],[(1,1),(0,0)]] is the word s0 s1 s0 s2
    A = (((0, 0), (1, 0)), ((1, 1), (0, 0)))
    assert colored_size(A) == ((0, 1), (2, 0))
    assert colored_row_sums(A) == (1, 2)
    assert colored_col_sums(A) == (2, 1)
    assert nu_colored(A) == (0, 0, 1, 1, 1, 0, 0, 0)
    rep = double_coset_rep(A)
    expected = colored_word([0, 1, 0, 2], 2, 3)
    assert rep == expected
    assert rep.colors == (1, 0, 1)
    assert rep.perm == Permutation((2, 3, 1))
    assert colored_matrix_of((1, 2), rep, (2, 1)) == A


def test_tilde_offsets():
    A = (((0, 0), (1, 0)), ((1, 1), (0, 0)))
    assert tilde_offsets(A) == {(0, 0): 0, (1, 0): 0, (0, 1): 2, (1, 1): 3}


def test_j_supported():
    A = (((0, 0), (1, 0)), ((1, 1), (0, 0)))
    # (0,1) has colors (1,0): one color-1 unit; (1,0) has (1,1): mixed
    assert j_supported(A) == [(0, 1), (1, 0)]
    B = (((0, 2),),)
    assert j_supported(B) == []


def test_a_ddot_large_golden():
    # n=2, m=3, r=11 worked example, entrywise reindexing
    A = (
        ((1, 1, 1), (1, 0, 2)),
        ((1, 1, 0), (1, 2, 0)),
    )
    dd = a_ddot(A)
    assert dd[0][0] == (1, 1, 0)
    assert dd[0][1] == (2, 0, 0)
    assert dd[1][0] == (1, 1)
    assert dd[1][1] == (1, 0, 1)
    assert colored_size(A) == ((3, 3), (2, 3))
    from cycloschur.permutations import nu_of

    assert nu_of(colored_size(A)) == (3, 2, 3, 3)


def test_enumerate_colored_counts():
    for n, r, m in [(2, 2, 2), (2, 3, 2), (2, 2, 3), (1, 3, 3)]:
        mats = list(enumerate_colored(n, r, m))
        assert len(mats) == colored_count(n, r, m), (n, r, m)
        assert len(set(mats)) == len(mats)
    assert colored_count(2, 2, 2) == 36
    assert colored_count(2, 3, 2) == 120
    assert colored_count(2, 2, 3) == 78


def test_enumerate_colored_guard():
    with pytest.raises(GuardError):
        list(enumerate_colored(10, 50, 10, guard=1000))


def test_colored_matrix_constant_on_double_cosets():
    m, r, n = 2, 3, 2
    for lam in compositions(r, n):
        for mu in compositions(r, n):
            for A in enumerate_colored_with_margins(lam, mu, m):
                rep = double_coset_rep(A)
                assert colored_matrix_of(lam, rep, mu) == A, (lam, mu, A)
                for u in young_subgroup(lam):
                    for v in young_subgroup(mu):
                        g = colored_mul(
                            colored_mul(colored_from_uncolored(u, m), rep),
                            colored_from_uncolored(v, m),
                        )
                        assert colored_matrix_of(lam, g, mu) == A


def test_colored_bijection_exhaustive():
    # every group element's matrix is realized, classes partition the group
    for m, r in [(2, 2), (3, 2), (2, 3)]:
        n = 2
        for lam in compositions(r, n):
            for mu in compositions(r, n):
                buckets: dict = {}
                for g in enumerate_wreath(m, r):
                    A = colored_matrix_of(lam, g, mu)
                    assert colored_row_sums(A) == lam
                    assert colored_col_sums(A) == mu
                    buckets.setdefault(A, set()).add(g)
                expected = set(enumerate_colored_with_margins(lam, mu, m))
                assert set(buckets) == expected, (m, r, lam, mu)
                # buckets really are the double cosets of the representative
                for A, members in buckets.items():
                    rep = double_coset_rep(A)
                    coset = {
                        colored_mul(
                            colored_mul(colored_from_uncolored(u, m), rep),
                            colored_from_uncolored(v, m),
                        )
                        for u in young_subgroup(lam)
                        for v in young_subgroup(mu)
                    }
                    assert coset == members, (m, r, lam, mu, A)


def test_stabilizer_is_young_subgroup_of_nu():
    # rep^{-1} S_lam rep  intersect  S_mu  =  S_{nu_colored(A)}
    m, r, n = 2, 3, 2
    for lam in compositions(r, n):
        for mu in compositions(r, n):
            for A in enumerate_colored_with_margins(lam, mu, m):
                rep = double_coset_rep(A)
                nu = nu_colored(A)
                stab = set()
                for x in young_subgroup(mu):
                    g = colored_mul(
                        colored_mul(rep, colored_from_uncolored(x, m)),
                        colored_inverse(rep),
                    )
                    if not any(g.colors) and any(
                        g.perm == u for u in young_subgroup(lam)
                    ):
                        stab.add(x)
                assert stab == set(young_subgroup(nu)), (lam, mu, A)
