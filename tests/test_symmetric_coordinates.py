"""The Schur layer in e-coordinates against the same formulas over u.

``SchurContext(m, n, r)`` straightens on its algebra's private coefficients
over Z[q^±1][e_1..e_m][u_1..u_m] and expands to u where a value leaves
it.  The oracle here builds nothing of the context: it evaluates b_A and
tail(B) with ``b_element_of``/``tail_of`` in a ``HeckeAlgebra(m, r)`` of
its own, checks each product through the identity sum_C c_C b_C =
b_A tail(B) in that algebra, and checks the ranks of the u-coordinates
against the closed form.  Every public method that returns coefficients
is compared, so an e-coefficient that leaked out unexpanded shows.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from cycloschur.hecke import HeckeAlgebra, module_coords
from cycloschur.ring import RingElem, modular_rank
from cycloschur.schur import (
    SchurContext,
    b_element_of,
    express_in_hom_basis,
    multiply_basis,
    tail_of,
    verify_commutative,
    verify_rank,
)
from cycloschur.wreath import colored_col_sums, colored_count, colored_row_sums

GRIDS = [(m, n, r) for m in (1, 2, 3) for n, r in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))]

_CONTEXTS: dict[tuple[int, int, int], tuple[SchurContext, HeckeAlgebra]] = {}


def contexts(grid) -> tuple[SchurContext, HeckeAlgebra]:
    """(the context in e-coordinates, the oracle's algebra over u), per grid."""
    if grid not in _CONTEXTS:
        m, _, r = grid
        _CONTEXTS[grid] = (SchurContext(*grid), HeckeAlgebra(m, r))
    return _CONTEXTS[grid]


def u_polys(m: int):
    """Ring elements over u, not symmetric in general."""
    mons = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.tuples(*([st.integers(min_value=0, max_value=2)] * m)),
    )
    return st.dictionaries(mons, st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda terms: RingElem(m, terms)
    )


def combination(alg: HeckeAlgebra, coeffs: dict):
    """sum_C coeffs[C] b_C in alg."""
    z = alg.zero()
    for C, f in coeffs.items():
        z = z + b_element_of(alg, C).scale(f)
    return z


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_public_values_match_the_u_ring(data):
    grid = data.draw(st.sampled_from(GRIDS), label="grid")
    ctx, u_alg = contexts(grid)
    # The context runs on its algebra's private coefficients: m e-fields
    # beside the m u-fields.
    assert ctx.hecke._cvars == 2 * grid[0]
    assert ctx.hecke == u_alg and ctx.hecke is not u_alg
    basis = ctx.basis()
    A = data.draw(st.sampled_from(basis), label="A")
    partners = [B for B in basis if colored_row_sums(B) == colored_col_sums(A)]
    B = data.draw(st.sampled_from(partners), label="B")
    product = multiply_basis(ctx, A, B)
    assert combination(u_alg, product) == b_element_of(u_alg, A) * tail_of(u_alg, B)
    # No L-exponent of b_A or tail(B) reaches m, so their coefficients lie
    # in Z[q^±1]: these compare the algebra the values live on, and the
    # parameters first appear in products (multiply_basis, express).
    b_u = b_element_of(u_alg, A)
    assert ctx.b_element(A) == b_u
    assert ctx.tail(B) == tail_of(u_alg, B)
    assert ctx.b_coords(A) == module_coords(b_u, colored_row_sums(A))
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
    assert express_in_hom_basis(ctx, combination(u_alg, coeffs), lam, mu) == coeffs


def u_rank(u_alg: HeckeAlgebra, block: list) -> int:
    """The modular rank of the u-coordinates of the b_A of one block."""
    col_index: dict = {}
    rows = [
        {
            col_index.setdefault(k, len(col_index)): c
            for k, c in module_coords(b_element_of(u_alg, A), colored_row_sums(A)).items()
        }
        for A in block
    ]
    return modular_rank(rows, u_alg.nvars, trials=2, seed=3)


def test_rank_and_commutativity_match_the_u_ring():
    for grid in GRIDS:
        ctx, u_alg = contexts(grid)
        m, n, r = grid
        closed_form = colored_count(n, r, m)
        for exact in (False, True):
            got = verify_rank(ctx, trials=2, seed=3, exact=exact)
            assert got["ok"] and got["expected"] == got["certified"] == closed_form
        total = 0
        for lam in ctx.weights():
            for mu in ctx.weights():
                block = ctx.basis_block(lam, mu)
                if block:
                    assert u_rank(u_alg, block) == len(block)
                    total += len(block)
        assert total == closed_form
        # (3, 1, 3) takes seconds over u; its products are sampled above.
        if n == 1 and grid != (3, 1, 3):
            got = verify_commutative(ctx)
            assert got["ok"] and got["size"] == closed_form
            basis = ctx.basis()
            for i, A in enumerate(basis):
                for B in basis[i + 1:]:
                    left = b_element_of(u_alg, A) * tail_of(u_alg, B)
                    assert left == b_element_of(u_alg, B) * tail_of(u_alg, A)


def test_internal_coefficients_are_in_e():
    # b_A for the colored 1x1 matrix ((1, 0),) at (m, n, r) = (2, 1, 1) is
    # L_1; L_1^2 = e_1 L_1 - e_2 in the private fields (e_1, e_2, u_1, u_2),
    # and (u1 + u2) L_1 - u1 u2 once expanded.
    ctx, _ = contexts((2, 1, 1))
    A = (((1, 0),),)
    square = ctx.b_element(A) * ctx.b_element(A)
    e1, e2 = RingElem.u_var(1, 4), RingElem.u_var(2, 4)
    assert sorted(square._terms.values(), key=str) == sorted([e1, -e2], key=str)
    u1, u2 = RingElem.u_var(1, 2), RingElem.u_var(2, 2)
    assert sorted(square.terms.values(), key=str) == sorted([u1 + u2, -(u1 * u2)], key=str)
