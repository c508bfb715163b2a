"""Engine products against the per-term oracle in ``product_oracle``.

The engine straightens through step tables kept on the algebra, shares
reduced-word and exponent prefixes within a product, and accumulates
coefficients in place; the oracle does none of that.  Each example also
multiplies again on the same algebra, so columns built by one product are
read back by the next.  ``epsilon_u`` is checked the same way against
the oracle's term-by-term, coefficient-first evaluation, and sigma(A) and
tail(A), multiplied out on exponent vectors, against the oracle's chain of
engine products.  tau and ``from_left_form``, which group the terms c L^a T_w
by a and multiply L^a by each group, are checked against the oracle's
product of L^a and T_w term by term, in the engine's private coordinates.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from product_oracle import _add, elementary, epsilon, product, rmul_L, rmul_T, tail
from product_oracle import sigma_nu as sigma_chain

from cycloschur.affine import AffineAlgebra, epsilon_u
from cycloschur.hecke import (
    HeckeAlgebra,
    HeckeElement,
    LeftForm,
    from_left_form,
    sigma_ddot,
    sigma_elementary,
    sigma_nu,
    tau,
)
from cycloschur.permutations import Permutation, all_perms, identity, nu_of, theta_inverse
from cycloschur.ring import ElementaryExpansion, RingElem
from cycloschur.schur import tail_of
from cycloschur.typeb import typeb_algebra
from cycloschur.wreath import a_ddot, colored_size, enumerate_colored


def coefficients(nvars: int):
    """Nonzero ring elements of one to three terms."""
    mons = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.tuples(*([st.integers(min_value=0, max_value=2)] * nvars)),
    )
    return (
        st.dictionaries(mons, st.integers(min_value=-3, max_value=3), min_size=1, max_size=3)
        .map(lambda terms: RingElem(nvars, terms))
        .filter(lambda c: not c.is_zero())
    )


@st.composite
def elements(draw, alg, exponents):
    """A dict {(w, a): c} of up to three terms."""
    perms = list(all_perms(alg.r))
    keys = st.tuples(st.sampled_from(perms), st.tuples(*([exponents] * alg.r)))
    return draw(st.dictionaries(keys, coefficients(alg.nvars), min_size=1, max_size=3))


def parameters(nvars: int):
    """Specialized cyclotomic parameters: constants, q^k and u_i, or zero."""
    choices = [RingElem.const(c, nvars) for c in (-1, 0, 1, 2)]
    choices += [RingElem.q_power(k, nvars) for k in (-1, 1)]
    choices += [RingElem.u_var(i, nvars) for i in range(1, nvars + 1)]
    return st.sampled_from(choices)


def assert_products_match(alg, x: dict, y: dict, affine: bool = False) -> None:
    ex, ey = alg.elem(x), alg.elem(y)
    first = (ex * ey).terms
    assert first == product(alg, x, y, affine)
    assert (ey * ex).terms == product(alg, y, x, affine)
    assert (ex * ey).terms == first


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_cyclotomic_products_match_oracle(data):
    m = data.draw(st.integers(1, 3), label="m")
    r = data.draw(st.integers(1, 3), label="r")
    alg = HeckeAlgebra(m, r)
    exps = st.integers(0, m - 1)
    x = data.draw(elements(alg, exps), label="x")
    y = data.draw(elements(alg, exps), label="y")
    assert_products_match(alg, x, y)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_specialized_products_match_oracle(data):
    m = data.draw(st.integers(1, 3), label="m")
    r = data.draw(st.integers(1, 3), label="r")
    nvars = data.draw(st.integers(0, 2), label="nvars")
    params = data.draw(st.lists(parameters(nvars), min_size=m, max_size=m), label="u")
    alg = HeckeAlgebra(m, r, nvars=nvars, u_params=params)
    exps = st.integers(0, m - 1)
    x = data.draw(elements(alg, exps), label="x")
    y = data.draw(elements(alg, exps), label="y")
    assert_products_match(alg, x, y)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_overflow_coefficients_match_u_params(data):
    # The algebra given its cyclotomic coefficients directly is the one
    # its parameters define: equal, and with the same products.
    m = data.draw(st.integers(1, 3), label="m")
    r = data.draw(st.integers(1, 3), label="r")
    nvars = data.draw(st.integers(0, 2), label="nvars")
    params = data.draw(st.lists(parameters(nvars), min_size=m, max_size=m), label="u")
    by_params = HeckeAlgebra(m, r, nvars=nvars, u_params=params)
    alg = HeckeAlgebra(m, r, nvars=nvars, overflow=by_params.overflow)
    assert alg == by_params and alg.u_params is None
    exps = st.integers(0, m - 1)
    x = data.draw(elements(alg, exps), label="x")
    y = data.draw(elements(alg, exps), label="y")
    assert (alg.elem(x) * alg.elem(y)).terms == product(by_params, x, y)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_symmetric_coordinates_expand_to_u_products(data):
    # Over free e_1..e_m (overflow[k-1] = (-1)^(k+1) e_k), a product expanded
    # by e_k -> e_k(u) is the oracle's product of the expanded factors.
    m = data.draw(st.integers(1, 3), label="m")
    r = data.draw(st.integers(1, 3), label="r")
    alg = HeckeAlgebra(m, r, overflow=[
        RingElem.u_var(k, m).scale((-1) ** (k + 1)) for k in range(1, m + 1)
    ])
    expand = ElementaryExpansion(m)
    exps = st.integers(0, m - 1)
    x = data.draw(elements(alg, exps), label="x")
    y = data.draw(elements(alg, exps), label="y")
    got = {k: expand(c) for k, c in (alg.elem(x) * alg.elem(y)).terms.items()}
    ux, uy = ({k: expand(c) for k, c in z.items()} for z in (x, y))
    assert got == product(HeckeAlgebra(m, r), ux, uy)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_affine_products_match_oracle(data):
    r = data.draw(st.integers(1, 3), label="r")
    alg = AffineAlgebra(r, nvars=data.draw(st.integers(0, 2), label="nvars"))
    exps = st.integers(-2, 2)
    x = data.draw(elements(alg, exps), label="x")
    y = data.draw(elements(alg, exps), label="y")
    assert_products_match(alg, x, y, affine=True)


def test_generator_steps_match_oracle_on_every_monomial():
    # Every column of every step table at (m, r) = (3, 3), built cold and
    # read warm, against the direct rules on a multi-term coefficient.
    alg = HeckeAlgebra(3, 3)
    c = RingElem(3, {(1, (1, 0, 0)): 2, (-1, (0, 0, 1)): -1})
    for _ in range(2):
        for w in all_perms(3):
            for a in itertools.product(range(3), repeat=3):
                x = alg.elem({(w, a): c})
                for i in (1, 2):
                    assert x.rmul_gen_T(i).terms == rmul_T(alg, x.terms, i)
                for j in (1, 2, 3):
                    assert x.rmul_gen_L(j).terms == rmul_L(alg, x.terms, j)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_epsilon_matches_oracle(data):
    m, r = data.draw(st.sampled_from([(1, 3), (2, 3), (3, 2), (2, 2)]), label="(m, r)")
    params = None
    if data.draw(st.booleans(), label="a zero parameter"):
        params = data.draw(st.lists(parameters(m), min_size=m, max_size=m), label="u")
        params[data.draw(st.integers(0, m - 1), label="zero at")] = RingElem.zero(m)
    target = HeckeAlgebra(m, r, u_params=params)
    aff = AffineAlgebra(r, nvars=m)
    x = data.draw(elements(aff, st.integers(0, 4)), label="x")
    expected = epsilon(target, x)
    for _ in range(2):
        assert epsilon_u(aff.elem(x), target).terms == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_epsilon_of_negative_x1_powers_matches_oracle(data):
    # (u_1, u_2) = (q, -q^-1): e_2(u) = -1 is its own inverse
    r = data.draw(st.integers(2, 3), label="r")
    minus_one = RingElem.const(-1, 0)
    u_params = (RingElem.q_power(1, 0), RingElem.q_power(-1, 0) * minus_one)
    target = HeckeAlgebra(2, r, nvars=0, u_params=u_params)
    aff = AffineAlgebra(r, nvars=0)
    exps = st.tuples(st.integers(-3, 4), *([st.integers(0, 4)] * (r - 1)))
    keys = st.tuples(st.sampled_from(list(all_perms(r))), exps)
    x = data.draw(st.dictionaries(keys, coefficients(0), min_size=1, max_size=3), label="x")
    got = epsilon_u(aff.elem(x), target, em_inverse=minus_one)
    assert got.terms == epsilon(target, x, minus_one)


# The generic cyclotomic engine (private e-coordinates), the type-B
# specialisation, and the affine engine, each at r = 3.
SIGMA_ALGEBRAS = {
    "generic-m2": HeckeAlgebra(2, 3),
    "generic-m3": HeckeAlgebra(3, 3),
    "typeb": typeb_algebra(3),
    "affine": AffineAlgebra(3, nvars=2),
}
SIGMA_CASES = [
    ((3,), [(2, 1, 1)]),  # exponents up to 4: overflows at m = 2 and 3
    ((1, 2), [(3,), (2, 2)]),  # L_1^3 and (L_2 + L_3)^2 (L_2 L_3)^2
    ((2, 1), [(1, 1), (2,)]),
    ((1, 1, 1), [(1,), (0,), (1,)]),
    ((3,), [(0, 0, 0)]),
    ((0, 3, 0), [(), (0, 1, 0), ()]),
]


@pytest.mark.parametrize("name", SIGMA_ALGEBRAS)
@pytest.mark.parametrize("nu,exps", SIGMA_CASES)
def test_sigma_nu_matches_the_product_chain(name, nu, exps):
    alg = SIGMA_ALGEBRAS[name]
    # A start other than 1, with T- and L- (X-) parts of its own.
    start = alg.monomial((1, 0, 1)) * alg.gen_T(2) + alg.gen_T(1).scale(alg.q)
    assert sigma_nu(alg, nu, exps)._terms == sigma_chain(alg, nu, exps)._terms
    got = sigma_nu(alg, nu, exps, start)._terms
    assert got == sigma_chain(alg, nu, exps, start)._terms


@pytest.mark.parametrize("name", SIGMA_ALGEBRAS)
def test_sigma_elementary_matches_the_monomial_sum(name):
    # (2, 2) repeats a position: e_2 is then L_2^2, which overflows at m = 2.
    alg = SIGMA_ALGEBRAS[name]
    for positions in ((1, 2, 3), (3, 1), (2, 2)):
        for k in range(len(positions) + 1):
            got = sigma_elementary(alg, k, positions)._terms
            assert got == elementary(alg, k, positions)._terms


@pytest.mark.parametrize(
    "alg,n,m",
    [
        (HeckeAlgebra(3, 2), 3, 3),
        (HeckeAlgebra(2, 3), 2, 2),
        (typeb_algebra(3), 2, 2),
        (AffineAlgebra(3, nvars=2), 2, 2),
        (AffineAlgebra(2, nvars=3), 2, 3),
    ],
    ids=["generic-332", "generic-223", "typeb-23", "affine-223", "affine-232"],
)
def test_sigma_ddot_and_tail_match_the_product_chain(alg, n, m):
    for A in enumerate_colored(n, alg.r, m):
        size = colored_size(A)
        d = alg.from_perm(theta_inverse(size))
        chain = sigma_chain(alg, nu_of(size), nu_of(a_ddot(A)))
        assert sigma_ddot(alg, A)._terms == chain._terms
        assert sigma_ddot(alg, A, d)._terms == (d * chain)._terms
        assert tail_of(alg, A)._terms == tail(alg, A)._terms


def test_sigma_nu_rejects_a_start_from_another_algebra():
    with pytest.raises(ValueError):
        sigma_nu(HeckeAlgebra(2, 3), (3,), [(1, 0, 0)], HeckeAlgebra(3, 3).one())


def left_oracle(alg, items) -> dict:
    """The sum of c L^a T_w over the triples (a, w, c), c private: one oracle
    product of L^a and T_w per triple, in the algebra's private ring."""
    private = SimpleNamespace(
        m=alg.m, nvars=alg._cvars, q=alg._q, one_c=alg._one, overflow=alg._overflow
    )
    zero, out = (0,) * alg.r, {}
    for a, w, c in items:
        for key, v in product(private, {(identity(alg.r), a): c}, {(w, zero): alg._one}).items():
            _add(out, key, v)
    return out


TAU_ALGEBRAS = [HeckeAlgebra(2, 3), HeckeAlgebra(3, 2), HeckeAlgebra(1, 4)]


@pytest.mark.parametrize("alg", TAU_ALGEBRAS, ids=repr)
def test_tau_matches_the_oracle_on_every_monomial(alg):
    # tau(T_w L^a) = L^a T_{w^-1}
    one = alg._one
    for w, a in alg.pbw_basis():
        got = tau(HeckeElement(alg, {(w, a): one}))._terms
        assert got == left_oracle(alg, [(a, w.inv(), one)])


@pytest.mark.parametrize("alg", TAU_ALGEBRAS, ids=repr)
def test_tau_of_three_term_sums_matches_the_oracle(alg):
    rng = random.Random(2024)
    basis = list(alg.pbw_basis())
    nv = alg.nvars
    coeffs = [RingElem.const(k, nv) * RingElem.q_power(e, nv)
              for k in (-2, 1, 3) for e in (-1, 0, 2)]
    coeffs += [RingElem.u_var(i, nv) for i in range(1, nv + 1)]
    for _ in range(20):
        x = alg.elem({key: rng.choice(coeffs) for key in rng.sample(basis, 3)})
        items = [(a, w.inv(), c) for (w, a), c in x._terms.items()]
        assert tau(x)._terms == left_oracle(alg, items)


def test_from_left_form_groups_by_exponent_and_matches_the_oracle():
    # Three w under a = (1, 0, 1), two under a = (0, 1, 1), one under a = 0.
    alg = HeckeAlgebra(2, 3)
    q, u1 = RingElem.q_power(1, 2), RingElem.u_var(1, 2)
    w1, w2, w3 = (Permutation(im) for im in ((2, 1, 3), (3, 1, 2), (3, 2, 1)))
    lf = LeftForm(alg, {
        ((1, 0, 1), w1): q, ((1, 0, 1), w2): u1, ((1, 0, 1), w3): q * u1,
        ((0, 1, 1), w1): RingElem.const(-1, 2), ((0, 1, 1), identity(3)): q,
        ((0, 0, 0), w3): u1 - q,
    })
    items = [(a, w, alg._lift(c)) for (a, w), c in lf.coeffs.items()]
    assert from_left_form(lf)._terms == left_oracle(alg, items)
