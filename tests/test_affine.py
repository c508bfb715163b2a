"""Tests for the affine engine and the evaluation onto the cyclotomic quotient."""

from __future__ import annotations

import itertools
import random

import pytest
from json_readers import affine_from_json, element_from_json
from straightening_oracle import oracle_move

from cycloschur.affine import (
    AffineAlgebra,
    affine_sigma,
    affine_to_json,
    coefficient_symmetry_check,
    epsilon_u,
)
from cycloschur.hecke import (
    HeckeAlgebra,
    element_to_json,
    sigma_nu,
)
from cycloschur.permutations import Permutation, identity, simple
from cycloschur.ring import RingElem


def test_quadratic_braid_exchange_relations():
    r = 3
    alg = AffineAlgebra(r)
    one = alg.one()
    for i in (1, 2):
        Ti = alg.gen_T(i)
        assert ((Ti + one) * (Ti - one.scale(alg.q))).is_zero()
    assert alg.gen_T(1) * alg.gen_T(2) * alg.gen_T(1) == alg.gen_T(2) * alg.gen_T(
        1
    ) * alg.gen_T(2)
    # T_i X_i T_i = q X_{i+1}
    for i in (1, 2):
        e_i = tuple(1 if k == i - 1 else 0 for k in range(r))
        e_next = tuple(1 if k == i else 0 for k in range(r))
        lhs = alg.gen_T(i) * alg.x_monomial(e_i) * alg.gen_T(i)
        assert lhs == alg.x_monomial(e_next).scale(alg.q)
    # far commutation and X-commutativity (also for inverses)
    assert alg.gen_T(1) * alg.x_monomial((0, 0, 1)) == alg.x_monomial(
        (0, 0, 1)
    ) * alg.gen_T(1)
    assert alg.x_monomial((1, 0, -2)) * alg.x_monomial((-1, 3, 0)) == alg.x_monomial(
        (0, 3, -2)
    )
    assert alg.x_monomial((1, 1, 1)) * alg.x_monomial((-1, -1, -1)) == alg.one()
    # a monomial checks its length rather than truncating
    with pytest.raises(ValueError, match="exponent vector length mismatch"):
        alg.gen_T(1) * alg.x_monomial((1,))


def test_straightening_matches_oracle_nonnegative():
    r = 3
    alg = AffineAlgebra(r)
    for b in itertools.product(range(3), repeat=r):
        x = alg.x_monomial(b)
        for i in (1, 2):
            got = x.rmul_gen_T(i)
            expected: dict = {}
            for (has_T, c), coeff in oracle_move(b, i, alg.nvars).items():
                key = (simple(i, r) if has_T else identity(r), c)
                cur = expected.get(key)
                expected[key] = coeff if cur is None else cur + coeff
            expected = {k: v for k, v in expected.items() if not v.is_zero()}
            assert got.terms == expected, (b, i)


def test_straightening_negative_exponents_via_central_shift():
    # X^(N,..,N) is central; shifting a signed vector into the positive
    # cone must commute with straightening
    r = 3
    alg = AffineAlgebra(r)
    N = 3
    shift = (N,) * r
    central = alg.x_monomial(shift)
    for i in (1, 2):
        assert central * alg.gen_T(i) == alg.gen_T(i) * central
    for b in [(-1, 0, 2), (-2, 1, -1), (0, -3, 1), (-1, -1, -1)]:
        for i in (1, 2):
            lhs = alg.x_monomial(b) * alg.gen_T(i) * central
            rhs = alg.x_monomial(tuple(x + N for x in b)) * alg.gen_T(i)
            assert lhs == rhs, (b, i)


def test_associativity_seeded_random():
    rng = random.Random(99)
    r = 3
    alg = AffineAlgebra(r)
    perms = list(
        Permutation(im) for im in itertools.permutations(range(1, r + 1))
    )
    for _ in range(40):
        def rand_elem():
            w = rng.choice(perms)
            a = tuple(rng.randrange(-2, 3) for _ in range(r))
            return alg.elem({(w, a): alg.one_c})

        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)


def test_epsilon_on_basis_monomials_is_identity():
    # exponents already in range map to the matching normal-form monomial
    m, r = 2, 3
    target = HeckeAlgebra(m, r)
    alg = AffineAlgebra(r, nvars=m)
    for a in itertools.product(range(m), repeat=r):
        for im in itertools.permutations(range(1, r + 1)):
            w = Permutation(im)
            x = alg.elem({(w, a): alg.one_c})
            got = epsilon_u(x, target)
            assert got.terms == {(w, a): target.one_c}, (im, a)


def test_epsilon_multiplicative_seeded():
    rng = random.Random(12)
    m, r = 2, 3
    target = HeckeAlgebra(m, r)
    alg = AffineAlgebra(r, nvars=m)
    perms = list(
        Permutation(im) for im in itertools.permutations(range(1, r + 1))
    )
    for _ in range(30):
        def rand_elem():
            w = rng.choice(perms)
            a = tuple(rng.randrange(0, 4) for _ in range(r))
            return alg.elem({(w, a): alg.one_c})

        x, y = rand_elem(), rand_elem()
        lhs = epsilon_u(x * y, target)
        rhs = epsilon_u(x, target) * epsilon_u(y, target)
        assert lhs == rhs


def test_epsilon_rejects_unsupported_negatives():
    m, r = 2, 2
    alg = AffineAlgebra(r, nvars=m)
    valid = alg.x_monomial((3, 1)) * alg.gen_T(1)
    not_inverse = RingElem.one(m)  # e_2(u) = u_1 u_2
    cases = [
        (alg.x_monomial((-1, 0)), None),  # no inverse supplied
        (alg.x_monomial((-1, 0)), not_inverse),
        (alg.x_monomial((0, -1)), not_inverse),
    ]
    for bad, em_inverse in cases:
        for x in (bad, valid + bad, bad + valid):
            target = HeckeAlgebra(m, r)
            with pytest.raises(ValueError):
                epsilon_u(x, target, em_inverse=em_inverse)
            # no straightening ran: the step tables are still empty
            assert not any(target._steps_T + target._steps_L), (x, em_inverse)


def test_epsilon_inverse_x1_with_verified_inverse():
    # parameters (q, -q^{-1}): e_2 = -1, which is invertible
    r = 2
    u_params = (RingElem.q_power(1, 0), RingElem.q_power(-1, 0).scale(-1))
    target = HeckeAlgebra(2, r, nvars=0, u_params=u_params)
    alg = AffineAlgebra(r, nvars=0)
    em_inv = RingElem.const(-1, 0)
    got = epsilon_u(alg.x_monomial((-1, 0)), target, em_inverse=em_inv)
    # L_1^{-1} = L_1 - e_1 here, since L_1(L_1 - e_1) = -e_2 = 1
    e1 = u_params[0] + u_params[1]
    expected = target.gen_L(1) - target.one().scale(e1)
    assert got == expected
    assert got * target.gen_L(1) == target.one()
    with pytest.raises(ValueError):
        epsilon_u(
            alg.x_monomial((-1, 0)), target, em_inverse=RingElem.one(0)
        )  # wrong inverse


def test_affine_sigma_matches_cyclotomic_through_epsilon():
    m, r = 3, 4
    target = HeckeAlgebra(m, r)
    alg = AffineAlgebra(r, nvars=m)
    cases = [
        ((4,), [(1, 0, 1, 0)]),
        ((2, 2), [(1, 1), (0, 1)]),
        ((1, 3), [(1,), (2, 0, 0)]),
    ]
    for nu, exps in cases:
        lhs = epsilon_u(affine_sigma(alg, nu, exps), target)
        rhs = sigma_nu(target, nu, exps)
        assert lhs == rhs, (nu, exps)


def test_affine_sigma_commutes_with_T():
    r = 3
    alg = AffineAlgebra(r)
    for k in (1, 2, 3):
        exps = tuple(1 if t == k else 0 for t in range(1, r + 1))
        sig = affine_sigma(alg, (r,), [exps])
        for i in (1, 2):
            assert alg.gen_T(i) * sig == sig * alg.gen_T(i), (k, i)


def test_symmetrizer_coefficient_symmetry():
    # x_(r) * sigma has coefficients constant in w and symmetric in a
    for r in (2, 3):
        alg = AffineAlgebra(r)
        x_full = alg.x_lambda((r,))
        exp_choices = [
            ex
            for ex in itertools.product(range(2), repeat=r)
            if sum(ex) <= 2
        ]
        for ex in exp_choices:
            z = x_full * affine_sigma(alg, (r,), [ex])
            assert coefficient_symmetry_check(z), (r, ex)


def test_symmetry_check_rejects_asymmetric():
    r = 2
    alg = AffineAlgebra(r)
    z = alg.x_monomial((1, 0))  # lone monomial: not constant in w
    assert not coefficient_symmetry_check(z)
    z2 = alg.x_lambda((r,)) * alg.x_monomial((1, 0))
    # symmetrized in w but not in a
    assert not coefficient_symmetry_check(z2)


def test_affine_json_roundtrip():
    r = 3
    alg = AffineAlgebra(r)
    x = alg.x_monomial((-2, 0, 1)) * alg.gen_T(2) + alg.one().scale(alg.qm1)
    data = affine_to_json(x)
    assert affine_from_json(alg, data) == x
    keys = [(tuple(t["w"]), tuple(t["a"])) for t in data["terms"]]
    assert keys == sorted(keys)


@pytest.mark.parametrize("engine", ["cyclotomic", "affine"])
@pytest.mark.parametrize("field,value", [("w", [3, 1, 2]), ("w", [1]), ("a", [1])])
def test_json_readers_reject_malformed_keys(engine, field, value):
    if engine == "cyclotomic":
        alg = HeckeAlgebra(2, 2)
        write, read = element_to_json, element_from_json
    else:
        alg = AffineAlgebra(2)
        write, read = affine_to_json, affine_from_json
    data = write(alg.gen_T(1))
    data["terms"][0][field] = value
    with pytest.raises(ValueError):
        read(alg, data)
