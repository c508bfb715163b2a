"""Signed-permutation layer: reduced words, coset sums, and the m = 2
comparison identities between hom-basis vectors and double-coset T-sums."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import pytest

from cycloschur.guards import GuardError
from cycloschur.hecke import HeckeAlgebra
from cycloschur.permutations import coset_reps, identity, simple
from cycloschur.ring import RingElem
from cycloschur.schur import SchurContext, b_element_of
from cycloschur import typeb
from cycloschur.typeb import (
    coset_sum,
    d_i_word,
    double_coset_keys,
    example_matrix,
    flip_word,
    group_element_key,
    group_specialize,
    group_values,
    matrix_double_coset,
    route_product,
    shifted_d_word,
    signed_poincare,
    signed_words,
    t_element,
    t_of,
    tau_word,
    typeb_algebra,
    uncolored_subgroup,
    verify_group_algebra_basis,
    verify_route_agreement,
    verify_shifted_coset_identity,
    verify_single_row_coset_basis,
    verify_worked_example,
)
from cycloschur.wreath import (
    colored_identity,
    colored_inverse,
    colored_mul,
    colored_simple,
    colored_word,
    enumerate_colored,
    nu_colored,
)


def d_i_element(i: int, r: int):
    """The signed permutation of the word d_i_word(i)."""
    return colored_word(d_i_word(i), 2, r)


def signed_length(w) -> int:
    return len(signed_words(w.perm.size)[w])


def conjugation_pattern(i: int, r: int) -> bool:
    """d_i^{-1} s_j d_i is s_{i-j} below i, the long flip word at i, and
    s_j above i."""
    d = d_i_element(i, r)
    dinv = colored_inverse(d)
    for j in range(1, r):
        got = colored_mul(colored_mul(dinv, colored_simple(j, 2, r)), d)
        if j <= i - 1:
            want = colored_simple(i - j, 2, r)
        elif j == i:
            want = colored_word(
                tuple(range(0, i)) + (i,) + tuple(range(i - 1, -1, -1)), 2, r
            )
        else:
            want = colored_simple(j, 2, r)
        if got != want:
            return False
    return True


def poincare_product(r: int) -> dict[int, int]:
    poly = Counter({0: 1})
    for i in range(1, r + 1):
        nxt: Counter = Counter()
        for e, c in poly.items():
            for k in range(2 * i):
                nxt[e + k] += c
        poly = nxt
    return dict(poly)


# -- reduced words ---------------------------------------------------------


def test_signed_words_enumerate_whole_group():
    for r in (1, 2, 3):
        words = signed_words(r)
        assert len(words) == (2**r) * math.factorial(r)


def test_signed_words_reproduce_their_element():
    for r in (2, 3):
        for w, word in signed_words(r).items():
            assert colored_word(word, 2, r) == w


def test_signed_poincare_matches_product_formula():
    for r in (1, 2, 3, 4):
        assert signed_poincare(r) == poincare_product(r)


def test_signed_words_guard():
    with pytest.raises(GuardError):
        signed_words(9, guard=1000)


def test_signed_words_checks_the_guard_on_every_call():
    signed_words(3)
    with pytest.raises(GuardError, match="exceeding guard 10"):
        signed_words(3, guard=10)
    assert len(signed_words(3, guard=48)) == 48


def test_length_of_identity_and_generators():
    r = 3
    assert signed_length(colored_identity(2, r)) == 0
    for word in ((0,), (1,), (2,)):
        assert signed_length(colored_word(word, 2, r)) == 1


# -- engine products along words -------------------------------------------


def test_t_element_empty_word_is_one():
    alg = typeb_algebra(2)
    assert t_element(alg, ()) == alg.one()


def test_t_flip_quadratic_relation():
    # (T_0 + 1)(T_0 - q0) = 0 in the one-parameter engine
    alg = typeb_algebra(2)
    t0 = alg.gen_L(1)
    q0 = RingElem.u_var(1, 1)
    one = alg.one_c
    assert t0 * t0 == t0.scale(q0 - one) + alg.one().scale(q0)


def test_t_word_invariance_under_braid():
    # s0 s1 s0 s1 = s1 s0 s1 s0 at rank 2, and the T-products agree
    alg = typeb_algebra(2)
    assert colored_word((0, 1, 0, 1), 2, 2) == colored_word((1, 0, 1, 0), 2, 2)
    assert t_element(alg, (0, 1, 0, 1)) == t_element(alg, (1, 0, 1, 0))


def test_t_of_rejects_mismatched_rank():
    alg = typeb_algebra(2)
    with pytest.raises(ValueError):
        t_of(alg, colored_identity(2, 3))


def test_t_of_specializes_to_group_element():
    alg = typeb_algebra(3)
    for w in list(signed_words(3))[:40]:
        specialized = group_specialize(t_of(alg, w))
        assert specialized == {group_element_key(w): Fraction(1)}


# -- distinguished elements ------------------------------------------------


def test_tau_and_flip_words():
    assert tau_word(1) == (0,)
    assert tau_word(3) == (2, 1, 0)
    assert flip_word(1) == (0,)
    assert flip_word(3) == (2, 1, 0, 1, 2)
    assert shifted_d_word(0, 1) == (0,)
    assert shifted_d_word(2, 1) == flip_word(3)


def test_d_i_length_and_colors():
    r = 4
    for i in range(r + 1):
        d = d_i_element(i, r)
        assert signed_length(d) == i * (i + 1) // 2
        assert sum(1 for c in d.colors if c) == i


def test_conjugation_pattern():
    for r in (2, 3, 4):
        for i in range(r + 1):
            assert conjugation_pattern(i, r)


def test_minimal_coset_reps_of_two_part_subgroup():
    # The right coset representatives of the row subgroup S_(i, r-i) are
    # exactly the products (s_i .. s_{j_i - 1}) ... (s_1 .. s_{j_1 - 1})
    # over increasing sequences j_1 < ... < j_i.
    import itertools

    for r in (3, 4):
        for i in range(r + 1):
            built = set()
            for js in itertools.combinations(range(1, r + 1), i):
                w = identity(r)
                for t in range(i, 0, -1):
                    for k in range(t, js[t - 1]):
                        w = w * simple(k, r)
                built.add(w)
            assert built == set(coset_reps((i, r - i) if i < r else (r,)))


# -- coset sums ------------------------------------------------------------


def test_double_coset_size_via_stabilizer():
    A = example_matrix()
    coset = matrix_double_coset(A)
    nu = nu_colored(A)
    stab = math.prod(math.factorial(k) for k in nu)
    assert len(coset) == 2 * 2 // stab == 4


def test_uncolored_subgroup_rejects_bad_composition():
    with pytest.raises(ValueError):
        uncolored_subgroup((2, 2), 3)


def test_single_row_coset_basis_small():
    for r in (2, 3):
        rep = verify_single_row_coset_basis(r)
        assert rep["ok"], rep
        assert all(shifted_d_word(0, i) == d_i_word(i) for i in range(r + 1))
        # coset sizes: |S_r d_i S_r| = (r!)^2 / (i! (r-i)!)
        for case in rep["cases"]:
            i = case["i"]
            expect = math.factorial(r) ** 2 // (
                math.factorial(i) * math.factorial(r - i)
            )
            assert case["coset_size"] == expect


def test_single_row_coset_basis_generic_engine():
    rep = verify_single_row_coset_basis(3, alg=HeckeAlgebra(2, 3))
    assert rep["ok"], rep


def test_shifted_coset_identity_grid():
    for a, b in ((0, 2), (1, 1), (1, 2), (0, 3), (2, 1)):
        rep = verify_shifted_coset_identity(a, b, a + b)
        assert rep["ok"], rep


def test_shifted_coset_identity_embedded_rank():
    rep = verify_shifted_coset_identity(1, 2, 4)
    assert rep["ok"], rep


def test_shifted_coset_rejects_bad_window():
    with pytest.raises(ValueError):
        verify_shifted_coset_identity(2, 2, 3)


# -- the two product routes for b_A ----------------------------------------


def test_route_agreement_full_rank_two():
    rep = verify_route_agreement(2, 2)
    assert rep["ok"] and rep["checked"] == 36


def test_route_agreement_sampled_rank_three():
    rep = verify_route_agreement(2, 3, sample=15, seed=7)
    assert rep["ok"], rep["failures"]


def test_route_agreement_generic_engine():
    rep = verify_route_agreement(2, 2, alg=HeckeAlgebra(2, 2))
    assert rep["ok"]


def test_route_product_rejects_wrong_color_count():
    alg = HeckeAlgebra(3, 2)
    with pytest.raises(ValueError):
        route_product(alg, (((0, 0, 1), (0, 0, 0)), ((0, 0, 0), (0, 0, 1))))


# -- group algebra degeneration --------------------------------------------


def test_group_algebra_basis_small():
    for n, r in ((2, 2), (2, 3)):
        rep = verify_group_algebra_basis(n, r)
        assert rep["ok"] and rep["checked"] == math.comb(2 * n * n + r - 1, r)


@pytest.mark.parametrize("n, r", [(3, 2), (2, 3), (1, 4)])
def test_group_algebra_check_matches_its_oracles(n, r):
    """The pairs (x c.perm y, colors through y) are the keys of the validated
    products x c y, and the integer values at q = 1 are group_specialize's."""
    alg = HeckeAlgebra(2, r)
    for A in enumerate_colored(n, r, 2):
        assert double_coset_keys(A) == {group_element_key(w) for w in matrix_double_coset(A)}, A
        b = b_element_of(alg, A)
        values = group_values(b)
        assert values == group_specialize(b), A
        assert all(type(v) is int for v in values.values()), A
    # No b_A coefficient carries u here; L_r^2 reduces by the cyclotomic
    # relation, so this element's coefficients pin the values of u and q^-1.
    L = alg.gen_L(r)
    x = (L * L * b + L * b).scale(RingElem.q_power(-1, alg.nvars))
    assert group_values(x) == group_specialize(x)


def test_group_algebra_check_sees_a_missing_element(monkeypatch):
    keys = typeb.double_coset_keys
    monkeypatch.setattr(typeb, "double_coset_keys", lambda A: set(sorted(keys(A))[1:]))
    rep = verify_group_algebra_basis(1, 2)
    assert not rep["ok"] and len(rep["failures"]) == rep["checked"]


def test_group_specialize_generic_vs_typeb():
    # the same b_A, built in either engine, degenerates identically
    A = example_matrix()
    gen_ctx = SchurContext(2, 2, 3)
    assert group_specialize(gen_ctx.b_element(A)) == group_specialize(
        b_element_of(typeb_algebra(3), A)
    )


def test_group_specialize_rejects_three_colors():
    alg = HeckeAlgebra(3, 2)
    with pytest.raises(ValueError):
        group_specialize(alg.one())


# -- the worked rank-3 example ---------------------------------------------


def test_worked_example_all_identities():
    rep = verify_worked_example()
    assert rep["ok"], rep["checks"]


def test_worked_example_generic_engine():
    rep = verify_worked_example(alg=HeckeAlgebra(2, 3))
    assert rep["ok"], rep["checks"]


def test_worked_example_minimal_rep_words():
    # the three coset representatives appearing in the expansion
    r3 = signed_words(3)
    assert r3[colored_word((0, 1, 0, 2), 2, 3)] == (0, 1, 0, 2)
    d_prime = colored_word((1, 0, 1, 0, 2), 2, 3)
    d_dprime = colored_word((1, 2, 0, 1, 0, 2), 2, 3)
    assert signed_length(d_prime) == 5
    assert signed_length(d_dprime) == 6


def test_coset_sum_of_identity_is_one():
    alg = typeb_algebra(2)
    assert coset_sum(alg, [colored_identity(2, 2)]) == alg.one()
