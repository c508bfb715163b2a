"""Tests for symmetric group combinatorics.

Oracles: brute-force enumeration over whole symmetric groups at r <= 4-5,
exhaustive checks of minimality / additivity / bijectivity properties that
the constructive algorithms are supposed to guarantee.
"""

from __future__ import annotations

import copy
import gc
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cycloschur
from cycloschur.permutations import (
    Permutation,
    all_perms,
    blocks,
    col_sums,
    compositions,
    coset_reps,
    coset_reps_within,
    ddot,
    ddot_inverse,
    double_coset_factor,
    identity,
    j_set,
    left_coset_factor,
    matrices_with_margins,
    nu_of,
    partial_sums,
    reduced_word,
    right_coset_factor,
    row_sums,
    simple,
    theta,
    theta_inverse,
    young_subgroup,
    young_subgroup_size,
)


# -- oracles ---------------------------------------------------------------


def from_word(word, r: int) -> Permutation:
    """The product s_{word[0]} * s_{word[1]} * ..., left to right."""
    return reduce(lambda w, i: w * simple(i, r), word, identity(r))


def is_right_coset_rep(d: Permutation, lam) -> bool:
    """d^{-1}(i) < d^{-1}(i+1) on the Young subgroup's generators."""
    dinv = d.inv()
    return all(dinv(i) < dinv(i + 1) for i in j_set(lam))


def is_left_coset_rep(d: Permutation, mu) -> bool:
    return all(d(i) < d(i + 1) for i in j_set(mu))


def double_coset_reps(lam, mu) -> list[Permutation]:
    return [theta_inverse(A) for A in matrices_with_margins(lam, mu)]


# -- group structure -------------------------------------------------------


def test_composition_convention():
    # (u * v)(i) = u(v(i))
    u = Permutation((2, 3, 1))
    v = Permutation((1, 3, 2))
    w = u * v
    for i in (1, 2, 3):
        assert w(i) == u(v(i))


def test_simple_as_left_and_right_factor():
    w = Permutation((3, 1, 4, 2))
    s2 = simple(2, 4)
    right = w * s2
    assert right.im == (3, 4, 1, 2)  # swap positions 2, 3
    left = s2 * w
    assert left.im == (2, 1, 4, 3)  # swap values 2, 3


def test_inverse_and_length():
    for w in all_perms(4):
        assert (w * w.inv()).is_identity()
        assert w.length() == w.inv().length()
    assert Permutation((4, 3, 2, 1)).length() == 6


# -- interning -------------------------------------------------------------


def test_equal_words_give_one_object():
    for t in itertools.permutations(range(1, 5)):
        assert Permutation(t) is Permutation(list(t)) is Permutation(im=iter(t))
    assert simple(2, 3) * simple(2, 3) is identity(3)
    assert Permutation((3, 1, 2)).inv().inv() is Permutation((3, 1, 2))
    # a word of equal floats names the same permutation, stored as ints
    w = Permutation((5.0, 3.0, 1.0, 2.0, 4.0))
    assert w is Permutation((5, 3, 1, 2, 4))
    assert all(type(v) is int for v in w.im)
    assert len({Permutation(t) for t in itertools.permutations(range(1, 4))} | {identity(3)}) == 6


def test_intern_table_releases_unused_words():
    from cycloschur.permutations import _INTERNED

    gc.collect()  # earlier tests' garbage cycles may still hold permutations
    before = len(_INTERNED)
    perms = list(all_perms(8))
    assert len(_INTERNED) >= 40320
    w = perms[12345]
    im, word = w.im, w.word()
    del perms
    # Only the live permutation keeps its entry, and stays the one object.
    assert len(_INTERNED) <= before + 1
    assert Permutation(im) is w and w.word() == word
    del w
    assert len(_INTERNED) == before
    assert Permutation(im).im == im


def test_invalid_word_raises_every_time():
    for bad in ((1, 1, 3), (0, 1), (2, 3), (1.5, 2)):
        for _ in range(3):
            with pytest.raises(ValueError):
                Permutation(bad)


def test_permutation_is_immutable():
    w = Permutation((2, 1))
    with pytest.raises(AttributeError):
        w.im = (1, 2)
    with pytest.raises(AttributeError):
        setattr(w, "extra", 1)
    with pytest.raises(AttributeError):
        del w.im
    assert w.im == (2, 1) and w is Permutation((2, 1))
    assert repr(w) == "Permutation(im=(2, 1))"


def test_ordering_follows_one_line_words():
    perms4 = list(all_perms(4))
    random.Random(0).shuffle(perms4)
    assert [w.im for w in sorted(perms4)] == sorted(w.im for w in perms4)
    for u, v in itertools.product(perms4[:8], repeat=2):
        assert (u < v, u <= v, u > v, u >= v) == (
            u.im < v.im, u.im <= v.im, u.im > v.im, u.im >= v.im
        )
    with pytest.raises(TypeError):
        identity(2) < (1, 2)


def test_copies_and_pickles_return_the_same_object():
    for w in all_perms(3):
        assert copy.copy(w) is w
        assert copy.deepcopy(w) is w
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(w, protocol)) is w
    terms = {(Permutation((2, 3, 1)), (0, 1, 0)): 5}
    (key,) = copy.deepcopy(terms)
    assert key[0] is Permutation((2, 3, 1))


def test_memoised_word_matches_reduced_word():
    for r in range(1, 6):
        for w in all_perms(r):
            assert w.word() == reduced_word(w)
            assert w.word() is w.word()
            inversions = sum(
                1 for i, j in itertools.combinations(range(r), 2) if w.im[i] > w.im[j]
            )
            assert w.length() == inversions


def _fresh_cli(argv: list[str], hash_seed: str) -> str:
    """stdout of one cyclo invocation in a new interpreter, timings removed."""
    from test_golden import _strip_seconds

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(cycloschur.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "cycloschur.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "verify":
        return json.dumps(_strip_seconds(json.loads(proc.stdout)), sort_keys=True)
    return proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "typeb", "--format", "json"],
        ["tables", "--m", "2", "--n", "1", "--r", "3", "--format", "json"],
    ],
    ids=["verify-typeb", "golden-tables_json"],
)
def test_output_does_not_depend_on_addresses(argv):
    # Permutations hash by identity, so a set of them iterates in an order
    # that follows memory addresses; two fresh interpreters lay objects out
    # differently, and must print the same bytes.
    first, second = (_fresh_cli(argv, seed) for seed in ("1", "2"))
    assert first == second
    if argv[0] == "tables":
        golden = Path(__file__).resolve().parent / "golden" / "tables_json.txt"
        assert first == golden.read_text()


def test_from_word_left_to_right():
    # word (1, 2) means s_1 * s_2
    w = from_word([1, 2], 3)
    assert w == simple(1, 3) * simple(2, 3)
    assert w.im == (2, 3, 1)


def test_reduced_word_golden():
    assert reduced_word(Permutation((3, 2, 1))) == (1, 2, 1)
    assert reduced_word(identity(3)) == ()
    assert reduced_word(simple(2, 4)) == (2,)


def test_reduced_word_is_reduced_and_lex_smallest():
    # brute force: all words of minimal length, for every w with r <= 4
    for r in (2, 3, 4):
        for w in all_perms(r):
            word = reduced_word(w)
            assert from_word(word, r) == w
            assert len(word) == w.length()
            if w.length() <= 4 and r <= 4:
                candidates = [
                    seq
                    for seq in itertools.product(range(1, r), repeat=w.length())
                    if from_word(seq, r) == w
                ]
                assert word == min(candidates), f"{w.im}: {word}"


def test_descents_match_length_change():
    for w in all_perms(4):
        for i in range(1, 4):
            s = simple(i, 4)
            assert w.has_left_descent(i) == ((s * w).length() < w.length())
            assert (w.im[i - 1] > w.im[i]) == ((w * s).length() < w.length())


def test_apply_to_tuple_right_action():
    a = ("a", "b", "c", "d")
    for v in all_perms(4):
        for w in all_perms(4):
            assert v.apply_to_tuple(a) == tuple(a[v(i) - 1] for i in range(1, 5))
            assert w.apply_to_tuple(v.apply_to_tuple(a)) == (v * w).apply_to_tuple(a)
            break
        break
    # full right-action check on a smaller group
    b = (10, 20, 30)
    for v in all_perms(3):
        for w in all_perms(3):
            assert w.apply_to_tuple(v.apply_to_tuple(b)) == (v * w).apply_to_tuple(b)


# -- compositions and Young subgroups --------------------------------------


def test_partial_sums_and_jset():
    assert partial_sums((1, 2)) == (1, 3)
    assert j_set((1, 2)) == frozenset({2})
    assert j_set((3,)) == frozenset({1, 2})
    assert j_set((1, 1, 1)) == frozenset()
    assert [list(b) for b in blocks((1, 2))] == [[1], [2, 3]]


def test_young_subgroup():
    lam = (2, 1, 2)
    elems = list(young_subgroup(lam))
    assert len(elems) == young_subgroup_size(lam) == 4
    gens = {simple(i, 5) for i in j_set(lam)}
    # closure check: S_lam is generated by its interior simples
    group = {identity(5)}
    frontier = {identity(5)}
    while frontier:
        new = {w * s for w in frontier for s in gens} - group
        group |= new
        frontier = new
    assert set(elems) == group


def test_compositions_golden():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(compositions(4, 3))) == math.comb(4 + 2, 2)


def test_capped_enumerations_match_brute_force():
    # itertools.product lists tuples in lex order, so filtering it is the oracle.
    for r in range(6):
        for n in range(5):
            brute = [x for x in itertools.product(range(r + 1), repeat=n) if sum(x) == r]
            assert list(compositions(r, n)) == brute, (r, n)
    for r in range(5):
        for lam in compositions(r, 3):
            for mu in compositions(r, 2):
                rows = [x for x in itertools.product(range(r + 1), repeat=2)]
                brute = [
                    A for A in itertools.product(rows, repeat=3)
                    if tuple(map(sum, A)) == lam and tuple(map(sum, zip(*A))) == mu
                ]
                assert list(matrices_with_margins(lam, mu)) == brute, (lam, mu)


# -- coset representatives -------------------------------------------------


def test_coset_reps_counts():
    for lam in [(1, 2), (2, 2), (3, 1), (1, 1, 2)]:
        r = sum(lam)
        expected = math.factorial(r) // young_subgroup_size(lam)
        assert len(coset_reps(lam)) == expected, lam


def test_coset_reps_minimality_oracle():
    # scan the full group: reps are exactly the unique minimal elements
    for r in (2, 3, 4):
        for n_parts in (1, 2, 3):
            for lam in compositions(r, n_parts):
                reps = set(coset_reps(lam))
                subgroup = list(young_subgroup(lam))
                seen = set()
                for w in all_perms(r):
                    coset = [u * w for u in subgroup]
                    min_len = min(x.length() for x in coset)
                    minimal = [x for x in coset if x.length() == min_len]
                    assert len(minimal) == 1, (lam, w.im)
                    seen.add(minimal[0])
                    # additivity at the minimal rep
                    d = minimal[0]
                    for u in subgroup:
                        assert (u * d).length() == u.length() + d.length()
                assert reps == seen, lam


def test_right_coset_factor():
    for lam in [(2, 1), (1, 2), (2, 2), (1, 1, 2)]:
        r = sum(lam)
        subgroup = set(young_subgroup(lam))
        for w in all_perms(r):
            u, d = right_coset_factor(w, lam)
            assert u * d == w
            assert u in subgroup
            assert is_right_coset_rep(d, lam)
            assert u.length() + d.length() == w.length()


def test_left_coset_factor():
    for mu in [(2, 1), (1, 2), (2, 2), (1, 1, 2)]:
        r = sum(mu)
        subgroup = set(young_subgroup(mu))
        for w in all_perms(r):
            d, v = left_coset_factor(w, mu)
            assert d * v == w
            assert v in subgroup
            assert is_left_coset_rep(d, mu)
            assert d.length() + v.length() == w.length()


# -- matrix correspondence -------------------------------------------------


def test_theta_golden():
    lam, mu = (1, 2), (2, 1)
    A = theta(lam, identity(3), mu)
    assert A == ((1, 0), (1, 1))
    assert nu_of(A) == (1, 1, 0, 1)
    assert nu_of(((3, 3), (2, 3))) == (3, 2, 3, 3)
    assert row_sums(A) == lam and col_sums(A) == mu


def test_theta_constant_on_double_cosets():
    lam, mu = (2, 1), (1, 2)
    for w in all_perms(3):
        A = theta(lam, w, mu)
        for u in young_subgroup(lam):
            for v in young_subgroup(mu):
                assert theta(lam, u * w * v, mu) == A


def test_theta_inverse_bijection():
    for r in (2, 3, 4):
        for lam in compositions(r, 2):
            for mu in compositions(r, 2):
                reps = double_coset_reps(lam, mu)
                mats = list(matrices_with_margins(lam, mu))
                assert len(reps) == len(mats)
                for A in mats:
                    d = theta_inverse(A)
                    assert theta(lam, d, mu) == A, (lam, mu, A)
                    assert is_right_coset_rep(d, lam)
                    assert is_left_coset_rep(d, mu)
                # reps really are the double-coset minima
                seen = set()
                for w in all_perms(r):
                    coset = {
                        u * w * v
                        for u in young_subgroup(lam)
                        for v in young_subgroup(mu)
                    }
                    d = min(coset, key=lambda x: x.length())
                    seen.add(d)
                assert seen == set(reps), (lam, mu)


def test_unique_double_coset_factorization():
    for lam, mu in [((2, 1), (1, 2)), ((2, 2), (2, 2)), ((1, 3), (2, 2))]:
        r = sum(lam)
        for w in all_perms(r):
            u, d, v = double_coset_factor(w, lam, mu)
            assert u * d * v == w
            assert u.length() + d.length() + v.length() == w.length()
            A = theta(lam, d, mu)
            vs = coset_reps_within(mu, nu_of(A))
            assert v in vs, (w.im, lam, mu)


def test_coset_reps_within_describes_dlam_cap_coset():
    # the minimal right-coset reps inside a double coset are exactly d * v
    for lam, mu in [((2, 1), (1, 2)), ((2, 2), (1, 2, 1))]:
        r = sum(lam)
        for d in double_coset_reps(lam, mu):
            A = theta(lam, d, mu)
            expected = {
                x
                for x in coset_reps(lam)
                if double_coset_factor(x, lam, mu)[1] == d
            }
            got = {d * v for v in coset_reps_within(mu, nu_of(A))}
            assert got == expected, (lam, mu, d.im)


def test_coset_reps_within_refinement_required():
    with pytest.raises(ValueError):
        coset_reps_within((2, 2), (3, 1))


# -- composition reindexing ------------------------------------------------


def test_ddot_golden():
    assert ddot((2, 3, 1)) == (0, 1, 0, 0, 1, 0)
    # two parts: indicator at the first part
    assert ddot((2, 2)) == (0, 1, 0, 0)
    assert ddot((0, 4)) == (0, 0, 0, 0)
    assert ddot((4, 0)) == (0, 0, 0, 1)
    assert ddot((3,)) == (0, 0, 0)
    assert ddot(()) == ()
    assert ddot((0, 0, 0)) == ()


def test_ddot_bijection_exhaustive():
    for m in range(1, 7):
        for k in range(0, 7):
            seen = set()
            for lam in compositions(k, m):
                dd = ddot(lam)
                assert len(dd) == k
                assert sum(dd) <= m - 1, (lam, dd)
                assert ddot_inverse(dd, m) == lam, (lam, dd)
                seen.add(dd)
            # surjective onto k-tuples with sum < m
            all_targets = {
                t for t in itertools.product(range(m), repeat=k) if sum(t) <= m - 1
            }
            assert seen == all_targets, (m, k)


# -- property tests --------------------------------------------------------


@st.composite
def perms(draw, r: int = 5):
    im = draw(st.permutations(list(range(1, r + 1))))
    return Permutation(tuple(im))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(perms(), perms())
def test_inverse_antihomomorphism(u, v):
    assert (u * v).inv() == v.inv() * u.inv()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(perms())
def test_reduced_word_roundtrip(w):
    word = reduced_word(w)
    assert from_word(word, 5) == w
    assert len(word) == w.length()
