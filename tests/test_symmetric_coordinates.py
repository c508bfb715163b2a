"""The Schur layer in e-coordinates against the same layer over u.

``SchurContext(m, n, r)`` straightens over Z[q^±1][e_1..e_m] and expands
to u where a value leaves it; ``SchurContext(m, n, r,
hecke=HeckeAlgebra(m, r))`` runs the same code over u with the identity
map, and is the oracle here.  Both rings have m variables, so an
e-coefficient that leaked out unexpanded would raise nothing: every public
method that returns coefficients is compared.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from cycloschur.hecke import HeckeAlgebra
from cycloschur.ring import RingElem
from cycloschur.schur import (
    SchurContext,
    express_in_hom_basis,
    multiply_basis,
    verify_commutative,
    verify_rank,
)
from cycloschur.wreath import colored_col_sums, colored_row_sums

GRIDS = [(m, n, r) for m in (1, 2, 3) for n, r in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))]

_PAIRS: dict[tuple[int, int, int], tuple[SchurContext, SchurContext]] = {}


def contexts(grid) -> tuple[SchurContext, SchurContext]:
    """(the context in e-coordinates, its oracle over u), shared per grid."""
    if grid not in _PAIRS:
        m, _, r = grid
        _PAIRS[grid] = (SchurContext(*grid), SchurContext(*grid, hecke=HeckeAlgebra(m, r)))
    return _PAIRS[grid]


def u_polys(m: int):
    """Ring elements over u, not symmetric in general."""
    mons = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.tuples(*([st.integers(min_value=0, max_value=2)] * m)),
    )
    return st.dictionaries(mons, st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda terms: RingElem(m, terms)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_public_values_match_the_u_ring(data):
    grid = data.draw(st.sampled_from(GRIDS), label="grid")
    ctx, oracle = contexts(grid)
    assert ctx == oracle
    # m > 1 runs on its own algebra over e; m = 1 has e_1 = u_1
    assert (ctx._alg is ctx.hecke) == (grid[0] == 1)
    basis = ctx.basis()
    A = data.draw(st.sampled_from(basis), label="A")
    partners = [B for B in basis if colored_row_sums(B) == colored_col_sums(A)]
    B = data.draw(st.sampled_from(partners), label="B")
    assert multiply_basis(ctx, A, B) == multiply_basis(oracle, A, B)
    # No L-exponent of b_A or tail(B) reaches m, so their coefficients lie
    # in Z[q^±1]: these compare the algebra the values live on, and the
    # parameters first appear in products (multiply_basis, express).
    assert ctx.b_element(A) == oracle.b_element(A)
    assert ctx.tail(B) == oracle.tail(B)
    assert ctx.b_coords(A) == oracle.b_coords(A)
    for x in (ctx.b_element(A), ctx.tail(B)):
        assert x.alg is ctx.hecke
    # A u-element with coefficients that are not symmetric in u.
    lam, mu = colored_row_sums(A), colored_col_sums(A)
    block = ctx.basis_block(lam, mu)
    chosen = data.draw(
        st.lists(st.sampled_from(block), min_size=1, max_size=3, unique=True), label="C"
    )
    coeffs = {C: data.draw(u_polys(grid[0]), label="f") for C in chosen}
    coeffs = {C: f for C, f in coeffs.items() if not f.is_zero()}
    z = ctx.hecke.zero()
    for C, f in coeffs.items():
        z = z + oracle.b_element(C).scale(f)
    assert express_in_hom_basis(ctx, z, lam, mu) == coeffs
    assert express_in_hom_basis(oracle, z, lam, mu) == coeffs


def test_rank_and_commutativity_match_the_u_ring():
    for grid in GRIDS:
        ctx, oracle = contexts(grid)
        for exact in (False, True):
            got = verify_rank(ctx, trials=2, seed=3, exact=exact)
            assert got["ok"] and got == verify_rank(oracle, trials=2, seed=3, exact=exact)
        # (3, 1, 3) takes seconds over u; its products are sampled above.
        if grid[1] == 1 and grid != (3, 1, 3):
            got = verify_commutative(ctx)
            assert got["ok"] and got == verify_commutative(oracle)


def test_internal_coefficients_are_in_e():
    # b_A for the colored 1x1 matrix ((1, 0),) at (m, n, r) = (2, 1, 1) is
    # L_1; L_1^2 = e_1 L_1 - e_2, which reads u1 L_1 - u2 in the e-slots
    # and (u1 + u2) L_1 - u1 u2 once expanded.
    ctx, _ = contexts((2, 1, 1))
    A = (((1, 0),),)
    square = ctx._b_element(A) * ctx._b_element(A)
    u1, u2 = RingElem.u_var(1, 2), RingElem.u_var(2, 2)
    assert sorted(square.terms.values(), key=str) == sorted([u1, -u2], key=str)
    public = ctx.b_element(A) * ctx.b_element(A)
    assert sorted(public.terms.values(), key=str) == sorted([u1 + u2, -(u1 * u2)], key=str)
