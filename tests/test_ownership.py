"""No operation writes a coefficient of its operands.

The kernel ``ring.add_products`` fills its totals in place, so every dict
it fills must own them: an operation that seeded the kernel with an
operand's coefficients (or with a memoised value) would change that
operand.  Each test records the packed fields (``_groups``, ``_slot``,
``_cbound``) of every coefficient its operands hold, privately and in
the memos they share, runs the operation and checks that none changed.
"""

from __future__ import annotations

import pytest

from cycloschur.affine import AffineAlgebra, epsilon_u
from cycloschur.hecke import (
    HeckeAlgebra,
    LeftForm,
    LinearCombination,
    appendix_basis_coords,
    from_left_form,
    tau,
    to_left_form,
)
from cycloschur.ring import RingElem
from cycloschur.schur import SchurContext, SchurElement, express_in_hom_basis


def coefficients(x) -> list[RingElem]:
    """Every ring element x holds: x itself, the private coefficients of an
    element, the values of a left form or of a (nested) dict or tuple."""
    if isinstance(x, RingElem):
        return [x]
    if isinstance(x, LinearCombination):
        x = x._terms
    elif isinstance(x, LeftForm):
        x = x.coeffs
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return [c for v in x for c in coefficients(v)]
    return []


def fields(c: RingElem) -> tuple:
    return dict(c._groups), c._slot, c._cbound


def untouched(call, *operands):
    """call(), after checking that it changed no coefficient of operands."""
    before = [(c, fields(c)) for x in operands for c in coefficients(x)]
    assert before, "no coefficient recorded"
    result = call()
    for c, recorded in before:
        assert fields(c) == recorded, c
    return result


@pytest.fixture(scope="module")
def hecke():
    """A generic algebra, two elements sharing monomials, and a scalar."""
    alg = HeckeAlgebra(2, 3)
    u1, u2, q = RingElem.u_var(1, 2), RingElem.u_var(2, 2), alg.q
    x = (
        alg.gen_T(1).scale(q + u1)
        + alg.gen_L(2).scale(u2)
        + alg.one().scale(q * q - u1)
        + alg.gen_T(2) * alg.gen_L(1)
    )
    y = alg.gen_T(1).scale(q) + alg.gen_L(1) * alg.gen_T(2) + alg.one().scale(u1 * u2)
    return alg, x, y, q - u2


def test_linear_operations(hecke):
    alg, x, y, c = hecke
    assert untouched(lambda: x + x, x) == x.scale(RingElem.const(2, 2))
    assert untouched(lambda: x + y, x, y) == y + x
    assert untouched(lambda: x - y, x, y) + y == x
    assert untouched(lambda: x - x, x).is_zero()
    assert untouched(lambda: x.scale(c), x, c) == alg.scalar(c) * x
    one = RingElem.one(2)
    total = untouched(lambda: alg.combination([(x, c), (y, one), (x, one)]), x, y, c)
    assert total == x.scale(c) + y + x
    assert untouched(lambda: x * y, x, y) == (x * y)


def test_actions_and_left_forms(hecke):
    alg, x, y, _ = hecke
    assert untouched(lambda: x.lmul_gen_T(1), x) == alg.gen_T(1) * x
    assert untouched(lambda: tau(tau(x)), x) == x
    lf = untouched(lambda: to_left_form(x), x)
    assert untouched(lambda: from_left_form(lf), lf) == x
    coords = untouched(lambda: appendix_basis_coords(x * y, (2, 1), (1, 2)), x, y)
    assert coords


def test_epsilon_u():
    aff, target = AffineAlgebra(3, nvars=2), HeckeAlgebra(2, 3)
    u1, q = RingElem.u_var(1, 2), aff.q
    x = (aff.x_monomial((1, 0, 1)) * aff.gen_T(1)).scale(q + u1) + aff.x_monomial((0, 1, 1))
    x = x + aff.gen_T(2).scale(u1) * aff.x_monomial((1, 1, 0))
    first = untouched(lambda: epsilon_u(x, target), x)
    # the memoised forms of L^a are shared between calls: they stay too
    assert untouched(lambda: epsilon_u(x, target), x, target._jm_row) == first


@pytest.fixture(scope="module")
def schur():
    """S(2; 2, 2), a weight pair whose b_C have terms below their leads, and
    one coefficient for each b_C of its block."""
    ctx = SchurContext(2, 2, 2)
    u1, u2, q = RingElem.u_var(1, 2), RingElem.u_var(2, 2), ctx.hecke.q
    lam, mu = (1, 1), (2, 0)
    return ctx, lam, mu, [u1 + u2, u1 * u2 - q, u2, q * u1 - RingElem.one(2)]


def test_schur_product(schur):
    ctx, lam, mu, cs = schur
    s = SchurElement(ctx, dict(zip(ctx.basis_block(lam, mu), cs)))
    t = SchurElement(ctx, dict(zip(ctx.basis_block(mu, lam), cs[::-1])))
    first = untouched(lambda: s * t, s, t)
    assert not first.is_zero()
    # a second product reads the memoised structure constants
    assert untouched(lambda: s * t, s, t, ctx._products) == first


def test_express_in_hom_basis_twice(schur):
    ctx, lam, mu, cs = schur
    block = ctx.basis_block(lam, mu)
    assert len(block) == len(cs)
    z = ctx.b_element(block[0]).scale(cs[0])
    for A, c in zip(block[1:], cs[1:]):
        z = z + ctx.b_element(A).scale(c)
    # module_coords(z) reads z's expanded coefficients: over the generic
    # algebra these are the memoised images of the expansion, and the
    # sweep adds into the coordinates below each lead
    images = ctx.hecke._expansion._images
    first = untouched(lambda: express_in_hom_basis(ctx, z, lam, mu), z, z.terms, images)
    second = untouched(lambda: express_in_hom_basis(ctx, z, lam, mu), z, z.terms, images)
    assert first == second == dict(zip(block, cs))
