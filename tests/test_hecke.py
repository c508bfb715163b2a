"""Tests for the cyclotomic Hecke algebra engine.

The straightening formula is checked against an independent one-step
oracle that moves a generator through one L-factor at a time using only
the two-term exchange relations, entirely formally (natural exponents, no
cyclotomic reduction).  Relations, associativity, the anti-automorphism,
module coordinates, and the block symmetric elements are then exercised on
exhaustive or seeded-random small cases.
"""

from __future__ import annotations

import itertools
import random

import pytest
from json_readers import element_from_json

from cycloschur.affine import AffineAlgebra
from cycloschur.hecke import (
    HeckeAlgebra,
    HeckeElement,
    _t_column,
    appendix_basis_coords,
    eigen_test,
    element_to_json,
    from_left_form,
    module_coords,
    sigma_ddot,
    sigma_elementary,
    sigma_nu,
    tau,
    to_left_form,
)
from cycloschur.permutations import (
    Permutation,
    all_perms,
    coset_reps,
    identity,
    reduced_word,
    simple,
)
from cycloschur.ring import RingElem, poincare_polynomial
from cycloschur.typeb import typeb_algebra


def q_pow(k: int, nvars: int) -> RingElem:
    return RingElem.q_power(k, nvars)


# -- independent straightening oracle --------------------------------------

from straightening_oracle import kernel_t_column, oracle_move


def test_engine_straightening_matches_oracle():
    # big m so the engine never reduces; pure formal comparison
    m, r = 5, 3
    alg = HeckeAlgebra(m, r)
    for b in itertools.product(range(4), repeat=r):
        x = alg.elem({(identity(r), b): alg.one_c})
        for i in (1, 2):
            got = x.rmul_gen_T(i)
            expected: dict = {}
            for (has_T, c), coeff in oracle_move(b, i, alg.nvars).items():
                key = (simple(i, r) if has_T else identity(r), c)
                cur = expected.get(key)
                expected[key] = coeff if cur is None else cur + coeff
            expected = {k: v for k, v in expected.items() if not v.is_zero()}
            assert got.terms == expected, (b, i)


COLUMN_ALGEBRAS = {
    "H(2,3)": (lambda: HeckeAlgebra(2, 3), range(2)),
    "H(3,3)": (lambda: HeckeAlgebra(3, 3), range(3)),
    "typeb(3)": (lambda: typeb_algebra(3), range(2)),
    "affine(3)": (lambda: AffineAlgebra(3), range(-2, 3)),
}


@pytest.mark.parametrize("name", COLUMN_ALGEBRAS)
def test_t_columns_match_the_kernel_summed_rule(name):
    # Every step column of T_i, on every monomial (affine: exponents -2..2),
    # equals the kernel's sum term for term and in order, and holds the
    # algebra's shared constants rather than fresh copies.
    build, exps = COLUMN_ALGEBRAS[name]
    alg = build()
    shared = {id(c) for c in (alg._one, alg._q, alg._qm1, alg._neg_qm1)}
    for w in all_perms(alg.r):
        for a in itertools.product(exps, repeat=alg.r):
            for i in range(1, alg.r):
                column = _t_column(alg, (w, a), i)
                assert list(column.items()) == list(kernel_t_column(alg, (w, a), i).items())
                assert {id(c) for c in column.values()} <= shared, (w, a, i)


# -- defining relations ----------------------------------------------------


@pytest.mark.parametrize("m,r", [(1, 3), (2, 3), (3, 2)])
def test_quadratic_and_braid_relations(m, r):
    alg = HeckeAlgebra(m, r)
    one = alg.one()
    for i in range(1, r):
        Ti = alg.gen_T(i)
        assert ((Ti + one) * (Ti - one.scale(alg.q))).is_zero()
    if r >= 3:
        T1, T2 = alg.gen_T(1), alg.gen_T(2)
        assert T1 * T2 * T1 == T2 * T1 * T2
    if r >= 4:
        assert alg.gen_T(1) * alg.gen_T(3) == alg.gen_T(3) * alg.gen_T(1)


@pytest.mark.parametrize("m,r", [(2, 3), (3, 2), (1, 2)])
def test_l_relations(m, r):
    alg = HeckeAlgebra(m, r)
    Ls = [alg.gen_L(j) for j in range(1, r + 1)]
    for a in range(r):
        for b in range(r):
            assert Ls[a] * Ls[b] == Ls[b] * Ls[a]
    # cyclotomic relation for L_1
    prod = alg.one()
    for k in range(1, m + 1):
        prod = prod * (Ls[0] - alg.scalar(alg.u_params[k - 1]))
    assert prod.is_zero()
    # T_i L_i T_i = q L_{i+1}, and T_i commutes with far L's
    for i in range(1, r):
        lhs = alg.gen_T(i) * Ls[i - 1] * alg.gen_T(i)
        assert lhs == Ls[i].scale(alg.q)
        for j in range(1, r + 1):
            if j not in (i, i + 1):
                assert alg.gen_T(i) * Ls[j - 1] == Ls[j - 1] * alg.gen_T(i)


def test_frozen_products():
    alg = HeckeAlgebra(2, 2)
    T1, L1, L2 = alg.gen_T(1), alg.gen_L(1), alg.gen_L(2)
    one = alg.one()
    # T1 * T1 = (q-1) T1 + q
    assert T1 * T1 == T1.scale(alg.qm1) + one.scale(alg.q)
    # L2 * T1 = T1 L1 + (q-1) L2
    assert L2 * T1 == T1 * L1 + L2.scale(alg.qm1)
    # L1^2 = (u1+u2) L1 - u1 u2
    u1 = RingElem.u_var(1, 2)
    u2 = RingElem.u_var(2, 2)
    assert L1 * L1 == L1.scale(u1 + u2) - one.scale(u1 * u2)


def test_inverse_of_T():
    # q^{-1}(T_i - (q-1)) inverts T_i
    alg = HeckeAlgebra(2, 3)
    for i in (1, 2):
        Ti = alg.gen_T(i)
        inv = (Ti - alg.one().scale(alg.qm1)).scale(q_pow(-1, alg.nvars))
        assert Ti * inv == alg.one()
        assert inv * Ti == alg.one()


def test_products_additive_lengths():
    alg = HeckeAlgebra(2, 3)
    for w in all_perms(3):
        for v in all_perms(3):
            if (w * v).length() == w.length() + v.length():
                assert alg.from_perm(w) * alg.from_perm(v) == alg.from_perm(w * v)


def test_jm_monomial_and_reduction():
    alg = HeckeAlgebra(2, 2)
    # exponents above m-1 reduce through the cyclotomic relation
    x = alg.jm_monomial((1, 0))
    assert x == alg.gen_L(1)
    big = alg.jm_monomial((2, 0))
    assert big == alg.gen_L(1) * alg.gen_L(1)
    assert all(e < 2 for (_, a) in big.terms for e in a)


@pytest.mark.parametrize("m,r", [(2, 3), (3, 2)])
def test_jm_monomial_matches_ascending_generator_product(m, r):
    # jm_monomial applies L_r first; the ascending product applies L_1 first
    alg = HeckeAlgebra(m, r)
    for a in itertools.product(range(2 * m + 1), repeat=r):
        expected = alg.one()
        for j, e in enumerate(a, start=1):
            for _ in range(e):
                expected = expected.rmul_gen_L(j)
        assert alg.jm_monomial(a) == expected, a


def test_m1_jm_elements_are_typea():
    # at m = 1, L_2 = u1 q^{-1}((q-1) T_1 + q)
    alg = HeckeAlgebra(1, 2)
    u1 = RingElem.u_var(1, 1)
    L2 = alg.gen_L(2)
    expected = (
        alg.gen_T(1).scale(u1 * alg.qm1 * q_pow(-1, 1)) + alg.one().scale(u1)
    )
    assert L2 == expected
    assert alg.gen_L(1) == alg.one().scale(u1)


def test_associativity_seeded_random():
    rng = random.Random(20260823)
    for m, r in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        alg = HeckeAlgebra(m, r)
        basis = list(alg.pbw_basis())
        for _ in range(40):
            x, y, z = (
                alg.elem({rng.choice(basis): alg.one_c}) for _ in range(3)
            )
            assert (x * y) * z == x * (y * z), (m, r)


def test_distributivity_and_scalars():
    alg = HeckeAlgebra(2, 2)
    x = alg.gen_T(1) + alg.gen_L(2).scale(alg.q)
    y = alg.gen_L(1) - alg.one()
    z = alg.gen_T(1) * alg.gen_L(1)
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x
    c = RingElem.u_var(2, 2)
    assert (x.scale(c)) * y == (x * y).scale(c)


# -- anti-automorphism and left form ---------------------------------------


def test_tau_fixes_generators():
    alg = HeckeAlgebra(2, 3)
    for i in (1, 2):
        assert tau(alg.gen_T(i)) == alg.gen_T(i)
    for j in (1, 2, 3):
        assert tau(alg.gen_L(j)) == alg.gen_L(j)


def test_tau_antihomomorphism_and_involution():
    rng = random.Random(7)
    alg = HeckeAlgebra(2, 3)
    basis = list(alg.pbw_basis())
    for _ in range(25):
        x = alg.elem({rng.choice(basis): alg.one_c, rng.choice(basis): alg.q})
        y = alg.elem({rng.choice(basis): alg.one_c})
        assert tau(x * y) == tau(y) * tau(x)
        assert tau(tau(x)) == x


def test_left_form_roundtrip():
    rng = random.Random(11)
    alg = HeckeAlgebra(3, 2)
    basis = list(alg.pbw_basis())
    for _ in range(20):
        x = alg.elem(
            {rng.choice(basis): alg.one_c, rng.choice(basis): alg.qm1}
        )
        assert from_left_form(to_left_form(x)) == x


def test_left_form_of_single_product():
    # L^a T_w is itself a left-basis monomial
    alg = HeckeAlgebra(2, 3)
    w = Permutation((2, 3, 1))
    a = (1, 0, 1)
    x = alg.jm_monomial(a)
    for letter in reduced_word(w):
        x = x.rmul_gen_T(letter)
    lf = to_left_form(x)
    assert lf.coeffs == {(a, w): alg.one_c}


# -- symmetrizers and cyclic modules ---------------------------------------


def test_x_lambda_eigenproperty_and_square():
    for m, lam in [(2, (2,)), (2, (3,)), (2, (2, 1)), (3, (1, 2))]:
        r = sum(lam)
        alg = HeckeAlgebra(m, r)
        x = alg.x_lambda(lam)
        from cycloschur.permutations import j_set

        for i in j_set(lam):
            assert eigen_test(x, i, "left")
            assert eigen_test(x, i, "right")
        expected = x.scale(poincare_polynomial(lam, alg.nvars))
        assert x * x == expected, lam


def test_module_coords_roundtrip():
    rng = random.Random(3)
    alg = HeckeAlgebra(2, 3)
    lam = (2, 1)
    basis = list(alg.pbw_basis())
    x_lam = alg.x_lambda(lam)
    for _ in range(10):
        h = alg.elem({rng.choice(basis): alg.one_c, rng.choice(basis): alg.q})
        x = x_lam * h
        coords = module_coords(x, lam)
        rebuilt = alg.zero()
        for (d, a), c in coords.items():
            mono = alg.from_perm(d) * alg.jm_monomial(a)
            rebuilt = rebuilt + (x_lam * mono).scale(c)
        assert rebuilt == x
        # representatives really are minimal
        for d, _ in coords:
            assert d in set(coset_reps(lam))


def test_module_coords_rejects_outsiders():
    alg = HeckeAlgebra(2, 2)
    with pytest.raises(ValueError):
        module_coords(alg.one(), (2,))


# -- block symmetric elements ----------------------------------------------


def test_sigma_nu_frozen_expansion():
    # nu = (1,2,1,3), exponents ((1),(1,1),(1),(1,0,1)):
    # L1 * (L2+L3)(L2 L3) * L4 * (L5+L6+L7)(L5 L6 L7)
    m, r = 3, 7
    alg = HeckeAlgebra(m, r)
    got = sigma_nu(alg, (1, 2, 1, 3), [(1,), (1, 1), (1,), (1, 0, 1)])
    expected_terms = {}
    for x in (2, 3):
        for y in (5, 6, 7):
            # monomial: L1 * Lx * (L2 L3) * L4 * Ly * (L5 L6 L7)
            vec = [0] * r
            vec[0] = 1
            vec[x - 1] += 1
            vec[1] += 1
            vec[2] += 1
            vec[3] += 1
            vec[y - 1] += 1
            vec[4] += 1
            vec[5] += 1
            vec[6] += 1
            key = (identity(r), tuple(vec))
            cur = expected_terms.get(key)
            expected_terms[key] = alg.one_c if cur is None else cur + alg.one_c
    assert got.terms == expected_terms


def test_sigma_interpolation_endpoints():
    # exponent tuple (0,..,0) gives 1; (0,..,0,1) gives the full product
    m, r = 2, 3
    alg = HeckeAlgebra(m, r)
    assert sigma_nu(alg, (r,), [(0,) * r]) == alg.one()
    full = sigma_nu(alg, (r,), [(0,) * (r - 1) + (1,)])
    assert full == alg.jm_monomial((1,) * r)


def test_sigma_commutes_with_T():
    m, r = 2, 3
    alg = HeckeAlgebra(m, r)
    for k in range(r + 1):
        sig = sigma_elementary(alg, k)
        for i in range(1, r):
            assert alg.gen_T(i) * sig == sig * alg.gen_T(i), (k, i)


def test_sigma_ddot_block_structure():
    # the large worked example: blocks (3,2,3,3) with reindexed exponents
    # (1,1,0), (1,1), (2,0,0), (1,0,1)
    m, r = 3, 11
    alg = HeckeAlgebra(m, r)
    A = (
        ((1, 1, 1), (1, 0, 2)),
        ((1, 1, 0), (1, 2, 0)),
    )
    got = sigma_ddot(alg, A)
    expected = sigma_nu(
        alg, (3, 2, 3, 3), [(1, 1, 0), (1, 1), (2, 0, 0), (1, 0, 1)]
    )
    assert got == expected
    # pure L-element with exponents under m
    for (w, a) in got.terms:
        assert w.is_identity()
        assert all(0 <= e < m for e in a)
    # per-block total degrees: e1 e2 -> 3, e1 e2 -> 3, e1^2 -> 2, e1 e3 -> 4
    for (_, a), c in got.terms.items():
        assert sum(a[:3]) == 3 and sum(a[3:5]) == 3
        assert sum(a[5:8]) == 2 and sum(a[8:11]) == 4


def test_sigma_ddot_small_golden():
    # the n=2, m=2, r=3 example: entries ddot to (0,), (1,), (1,1), ()
    alg = HeckeAlgebra(2, 3)
    A = (((0, 0), (1, 0)), ((1, 1), (0, 0)))
    got = sigma_ddot(alg, A)
    # nu(|A|) = (0,2,1,0); cells column-major carry ddot((0,0)) = (),
    # ddot((1,1)) = (1,0), ddot((1,0)) = (1,), ddot((0,0)) = ()
    expected = sigma_nu(alg, (0, 2, 1, 0), [(), (1, 0), (1,), ()])
    assert got == expected
    # = (L1 + L2) * L3
    manual = (alg.gen_L(1) + alg.gen_L(2)) * alg.gen_L(3)
    assert got == manual


# -- appendix basis --------------------------------------------------------


def test_appendix_coords_roundtrip():
    rng = random.Random(5)
    alg = HeckeAlgebra(2, 3)
    lam, mu = (2, 1), (1, 2)
    basis = list(alg.pbw_basis())
    for _ in range(8):
        x = alg.elem({rng.choice(basis): alg.one_c, rng.choice(basis): alg.qm1})
        coords = appendix_basis_coords(x, lam, mu)
        rebuilt = alg.zero()
        for (u, d, b, v), c in coords.items():
            prod = alg.from_perm(u * d) * alg.jm_monomial(b)
            for letter in reduced_word(v):
                prod = prod.rmul_gen_T(letter)
            rebuilt = rebuilt + prod.scale(c)
        assert rebuilt == x


def test_appendix_coords_of_pure_basis_vector():
    alg = HeckeAlgebra(2, 3)
    lam, mu = (2, 1), (2, 1)
    u = Permutation((2, 1, 3))
    d = Permutation((1, 3, 2))  # check: minimal double rep for some cell
    from cycloschur.permutations import double_coset_factor

    uu, dd, vv = double_coset_factor(u * d, lam, mu)
    x = alg.from_perm(u * d)
    coords = appendix_basis_coords(x, lam, mu)
    assert coords == {(uu, dd, (0, 0, 0), vv): alg.one_c}


# -- serialization ---------------------------------------------------------


def test_element_json_roundtrip():
    alg = HeckeAlgebra(2, 3)
    x = alg.gen_T(1) * alg.gen_L(2) - alg.one().scale(alg.qm1)
    data = element_to_json(x)
    assert element_from_json(alg, data) == x
    # canonical ordering of serialized terms
    keys = [(tuple(t["w"]), tuple(t["a"])) for t in data["terms"]]
    assert keys == sorted(keys)


def test_element_json_validates():
    alg = HeckeAlgebra(2, 3)
    data = element_to_json(alg.one())
    with pytest.raises(ValueError):
        element_from_json(HeckeAlgebra(3, 3), data)


# -- independent type-A comparison at m = 1 --------------------------------


def typea_multiply(
    x: dict[Permutation, RingElem], y: dict[Permutation, RingElem], r: int
) -> dict[Permutation, RingElem]:
    """Clean-room Hecke multiplication on the T_w basis (no L machinery)."""
    nvars = 1
    q = RingElem.q_power(1, nvars)
    qm1 = q - RingElem.one(nvars)
    out: dict[Permutation, RingElem] = {}

    def addin(w, c):
        cur = out.get(w)
        new = c if cur is None else cur + c
        if new.is_zero():
            out.pop(w, None)
        else:
            out[w] = new

    for w1, c1 in x.items():
        for w2, c2 in y.items():
            frontier = {w1: c1 * c2}
            for letter in reduced_word(w2):
                nxt: dict[Permutation, RingElem] = {}

                def put(w, c):
                    cur = nxt.get(w)
                    new = c if cur is None else cur + c
                    if new.is_zero():
                        nxt.pop(w, None)
                    else:
                        nxt[w] = new

                for w, c in frontier.items():
                    ws = w * simple(letter, r)
                    if ws.length() > w.length():
                        put(ws, c)
                    else:
                        put(w, c * qm1)
                        put(ws, c * q)
                frontier = nxt
            for w, c in frontier.items():
                addin(w, c)
    return out


def test_m1_matches_independent_typea():
    r = 3
    alg = HeckeAlgebra(1, r)
    zero_a = (0,) * r
    for w1 in all_perms(r):
        for w2 in all_perms(r):
            got = alg.from_perm(w1) * alg.from_perm(w2)
            expected = typea_multiply(
                {w1: RingElem.one(1)}, {w2: RingElem.one(1)}, r
            )
            assert got.terms == {(w, zero_a): c for w, c in expected.items()}, (
                w1.im,
                w2.im,
            )
