"""Private e-coordinates of a generic cyclotomic Hecke algebra.

A ``HeckeAlgebra`` whose cyclotomic coefficients are the generic
(-1)^(k+1) e_k(u_1..u_m) keeps its coefficients privately over
Z[q^±1][e_1..e_m][u_1..u_nvars] (``_terms``) and expands them to u where
they are read (``terms``).  These tests pin down the three things that
make that invisible from outside: the expansion is not injective, so every
public read (``==``, ``is_zero``, ``terms``, ``str``, JSON, module
coordinates) goes through it; equal algebras share one coordinate system;
and the algebra's public ring values are the u-ring values they always
were, which the u-path oracle in ``product_oracle`` reads.
"""

from __future__ import annotations

import pytest

from cycloschur.affine import AffineAlgebra, epsilon_u
from cycloschur.hecke import (
    HeckeAlgebra,
    appendix_basis_coords,
    element_to_json,
    module_coords,
    to_left_form,
)
from cycloschur.permutations import identity
from cycloschur.ring import (
    U_EXP_MAX,
    ElementaryExpansion,
    RingElem,
    RingError,
    elementary_symmetric_params,
)
from cycloschur.schur import SchurContext, express_in_hom_basis
from cycloschur.typeb import typeb_algebra

U1, U2 = RingElem.u_var(1, 2), RingElem.u_var(2, 2)


def ghost_zero(alg: HeckeAlgebra):
    """(L_1 - u_1)(L_1 - u_2), zero in H, written as L_1^2 minus its
    expansion: privately (e_1 - u_1 - u_2) L_1 + (u_1 u_2 - e_2)."""
    r = alg.r
    one = identity(r)
    l1 = alg.gen_L(1)
    return l1 * l1 - alg.elem({
        (one, (1,) + (0,) * (r - 1)): U1 + U2,
        (one, (0,) * r): -(U1 * U2),
    })


def test_expansion_is_not_injective():
    alg = HeckeAlgebra(2, 1)
    x = ghost_zero(alg)
    assert x._terms  # its private coefficients are not zero ...
    # ... and every public read sees the zero element
    assert x.is_zero()
    assert x.terms == {}
    assert str(x) == "0"
    assert x == alg.zero() and alg.zero() == x
    assert element_to_json(x) == element_to_json(alg.zero())
    assert x + alg.one() == alg.one()


def test_public_reads_drop_ghost_coefficients():
    alg = HeckeAlgebra(2, 2)
    ghost = alg.x_lambda((2, 0)) * ghost_zero(alg)
    assert ghost._terms and ghost.is_zero()
    b = alg.x_lambda((2, 0)) * alg.gen_L(1)
    z = b + ghost
    assert z == b and str(z) == str(b) and z.terms == b.terms
    assert module_coords(z, (2, 0)) == module_coords(b, (2, 0))
    assert appendix_basis_coords(z, (2, 0), (1, 1)) == appendix_basis_coords(b, (2, 0), (1, 1))
    assert to_left_form(z) == to_left_form(b)
    # express_in_hom_basis lifts the element's public module coordinates,
    # so the ghost coefficients of a caller's element do not reach the
    # elimination.
    ctx = SchurContext(2, 2, 2)
    A = ctx.basis_block((2, 0), (2, 0))[-1]
    plus_ghost = ctx.b_element(A) + ctx.hecke.x_lambda((2, 0)) * ghost_zero(ctx.hecke)
    assert plus_ghost._terms != ctx.b_element(A)._terms
    assert express_in_hom_basis(ctx, plus_ghost, (2, 0), (2, 0)) == {A: RingElem.one(2)}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_equal_algebras_share_one_coordinate_system(r):
    generic = HeckeAlgebra(2, r)
    by_params = HeckeAlgebra(2, r, u_params=(U1, U2))
    swapped = HeckeAlgebra(2, r, u_params=(U2, U1))
    by_overflow = HeckeAlgebra(2, r, overflow=generic.overflow)
    algebras = (generic, by_params, swapped, by_overflow)
    for alg in algebras:
        assert alg == generic and alg._cvars == 4
    squares = [alg.gen_L(r) * alg.gen_L(r) for alg in algebras]
    assert all(sq._terms == squares[0]._terms for sq in squares)
    x, y = generic.gen_L(1), by_params.gen_L(1)
    assert x == y and y == x
    assert x + y == x.scale(RingElem.const(2, 2))
    assert (x - y).is_zero()
    assert x * y == generic.jm_monomial((2,) + (0,) * (r - 1))
    assert ghost_zero(generic) == ghost_zero(by_overflow) == generic.zero()


def test_generic_algebra_forms_its_e_k_once(monkeypatch):
    """HeckeAlgebra(m, 1) forms e_0..e_m(u) once, by the recurrence, for its
    overflow, its generic test and its expansion: at most m(m+1) ring
    products, where a sum over the k-subsets takes m 2^(m-1) per use."""
    m, calls, mul = 10, [], RingElem.__mul__
    monkeypatch.setattr(RingElem, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    alg = HeckeAlgebra(m, 1)
    monkeypatch.undo()
    assert 0 < len(calls) <= m * (m + 1)
    assert alg._expansion is not None
    assert alg.overflow == tuple(
        elementary_symmetric_params(k, m).scale((-1) ** (k + 1)) for k in range(1, m + 1)
    )


@pytest.mark.parametrize("m, r", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_public_contract_of_a_generic_algebra(m, r):
    alg = HeckeAlgebra(m, r)
    assert alg.nvars == m
    assert alg._cvars == 2 * m
    assert alg.q == RingElem.q_power(1, m)
    assert alg.one_c == RingElem.one(m)
    assert alg.qm1 == RingElem.q_power(1, m) - RingElem.one(m)
    assert alg.u_params == tuple(RingElem.u_var(i, m) for i in range(1, m + 1))
    assert alg.overflow == tuple(
        elementary_symmetric_params(k, m).scale((-1) ** (k + 1)) for k in range(1, m + 1)
    )
    # Every public read is a u-ring value.
    x = alg.jm_monomial((m,) * r) * alg.gen_T(1).scale(alg.q + RingElem.u_var(1, m))
    assert x.terms and all(c.nvars == m for c in x.terms.values())
    assert all(c.nvars == m for c in module_coords(alg.x_lambda((r,)) * x, (r,)).values())
    # epsilon_u checks a supplied inverse of e_m(u) against the public overflow
    aff = AffineAlgebra(r, nvars=m)
    with pytest.raises(ValueError, match="not an inverse"):
        epsilon_u(aff.x_monomial((-1,) + (0,) * (r - 1)), alg, em_inverse=alg.one_c)


def test_specialized_algebras_keep_their_own_coordinates():
    q0 = RingElem.u_var(1, 1)
    for alg in (
        HeckeAlgebra(2, 2, nvars=1, u_params=(RingElem.const(-1, 1), q0)),
        HeckeAlgebra(2, 2, u_params=(U1, RingElem.zero(2))),
        HeckeAlgebra(2, 2, overflow=(U1, -U2)),
        HeckeAlgebra(2, 2, nvars=1, u_params=(q0, q0)),
        AffineAlgebra(2, nvars=2),
    ):
        assert alg._expansion is None and alg._cvars == alg.nvars
        x = alg.monomial((1, 1)) * alg.monomial((1, 0))
        assert x.terms is x._terms


def test_identity_maps_reject_coefficients_of_another_width():
    # Packed in a 1-variable ring, u_2 of a 3-variable ring would read as q.
    key, wide, u = (identity(2), (0, 0)), RingElem.u_var(2, 3), RingElem.u_var(1, 1)
    for alg in (typeb_algebra(2), AffineAlgebra(2, nvars=1)):
        with pytest.raises(RingError, match="expected 1 variables, got 3"):
            alg.elem({key: wide})
        with pytest.raises(RingError, match="expected 1 variables, got 3"):
            alg.one().scale(wide)
        assert alg.elem({key: u}) == alg.one().scale(u) == alg.scalar(u)


def test_generalised_expansion():
    expand = ElementaryExpansion(2, 2)  # fields (e_1, e_2, u_1, u_2)
    e1, e2, u1, u2 = (RingElem.u_var(i, 4) for i in range(1, 5))
    assert expand(e1) == U1 + U2 and expand(e2) == U1 * U2
    assert expand(u1 * e2) == U1 * U1 * U2 and expand(u2) == U2
    assert expand(e1 - u1 - u2).is_zero()
    c = RingElem(2, {(-1, (2, 0)): 3, (1, (0, 1)): -1})
    assert expand.lift(c).nvars == 4 and expand(expand.lift(c)) == c
    assert expand(expand.lift(c) * e1) == c * (U1 + U2)
    with pytest.raises(RingError):
        expand.lift(RingElem.one(3))
    with pytest.raises(RingError):
        expand(RingElem.one(2))
    # fewer u-fields than e-fields: the image has m variables
    assert ElementaryExpansion(2, 1)(RingElem.u_var(2, 3) * RingElem.u_var(3, 3)) == U1 * U1 * U2


@pytest.mark.parametrize("m,nvars", [(2, 2), (2, 1), (3, 2), (1, 0)])
def test_e_free_images_are_remade_without_the_memo(m, nvars):
    # An unhashed element with no e-field is re-made at the public width,
    # its u-fields first; it must equal what the memoised path gives
    # (through an element that has an e-field, or once it is hashed) and
    # equal and hash-equal a fresh RingElem, at a wide slot too.
    expand, n = ElementaryExpansion(m, nvars), m + nvars
    e1 = RingElem.u_var(1, n)
    us = [RingElem.u_var(m + i, n) for i in range(1, nvars + 1)]
    q = RingElem.q_power(1, n)
    free = [RingElem.zero(n), q - RingElem.const(3, n), q.scale(2**70) + RingElem.one(n)]
    free += [u * u * q - q.scale(5) for u in us]
    mixed = [e1, e1 * q + q.scale(2**70)] + [e1 * u - u for u in us]
    for c in free + mixed:
        remembered = len(expand._images)
        got = expand(c)
        fresh = RingElem(expand.width, dict(got.sorted_terms()))
        assert got == fresh and hash(got) == hash(fresh)
        if c in free:
            assert len(expand._images) == remembered  # neither hashed in nor memoised
            assert got == expand(c + e1) - expand(e1)
            width_terms = {(qe, ue[m:] + (0,) * (expand.width - nvars)): k
                           for (qe, ue), k in c.sorted_terms()}
            assert got == RingElem(expand.width, width_terms)
            hash(c)
            assert expand(c) == got and expand(c) is expand(c)  # memoised once hashed
        else:
            assert expand(c) is got


def test_generalised_expansion_checks_the_exponent_limit():
    # A key's u-exponent plus the degree of its e-monomial bounds the
    # u_1-exponent of its image; past U_EXP_MAX it raises before expanding.
    edge = ElementaryExpansion(1, 1)
    assert edge(RingElem(2, {(0, (U_EXP_MAX - 5, 5)): 1})) == RingElem(1, {(0, (U_EXP_MAX,)): 1})
    with pytest.raises(RingError):
        edge(RingElem(2, {(0, (U_EXP_MAX - 4, 5)): 1}))
    with pytest.raises(RingError):
        ElementaryExpansion(2, 2)(RingElem(4, {(0, (U_EXP_MAX - 3, 0, 5, 0)): 1}))
    with pytest.raises(RingError):
        ElementaryExpansion(2, 2)(RingElem(4, {(0, (1, U_EXP_MAX - 3, 0, 3)): 1}))
