"""The hom-basis elimination: one descending sweep over precomputed leads.

``schur._leading_term`` computes the leading module term of b_C from C
alone, ``schur._sweep`` lists a block's (lead, C) pairs greatest first, and
``schur._eliminate`` walks that list.  The oracle is the greedy loop the
sweep replaced (``tests/elimination_oracle.py``): it finds each lead by a
``max`` over the remaining terms and rebuilds C from it.  Both must accept
exactly the span and give the same coordinates.
"""

from __future__ import annotations

import itertools
import random

import pytest
from elimination_oracle import greedy_eliminate, order_key, recover_matrix

from cycloschur import schur
from cycloschur.hecke import _module_coords, module_coords
from cycloschur.permutations import coset_reps, coset_reps_within, nu_of, theta_inverse
from cycloschur.ring import RingElem
from cycloschur.schur import (
    NotInSpanError,
    SchurContext,
    express_in_hom_basis,
    multiply_basis,
)
from cycloschur.wreath import a_ddot, colored_col_sums, colored_row_sums, colored_size

LEAD_GRIDS = [(1, 2, 2), (2, 2, 2), (3, 2, 2), (2, 2, 3), (1, 3, 3)]


def premise_lead(A):
    """The leading term of b_A as ``test_schur.test_leading_term_premise``
    writes it: theta^-1(|A|) v0 and the column-major blockwise suffix sums
    of a_ddot(A) placed by v0, v0 the unique longest coset representative."""
    size = colored_size(A)
    vs = coset_reps_within(colored_col_sums(A), nu_of(size))
    maxlen = max(v.length() for v in vs)
    longest = [v for v in vs if v.length() == maxlen]
    assert len(longest) == 1
    v0 = longest[0]
    dd = a_ddot(A)
    ahat: list[int] = []
    for j in range(len(A[0])):
        for i in range(len(A)):
            block = dd[i][j]
            ahat.extend(sum(block[t:]) for t in range(len(block)))
    return theta_inverse(size) * v0, v0.apply_to_tuple(tuple(ahat))


def composable_pairs(ctx: SchurContext) -> list:
    basis = ctx.basis()
    return [(A, B) for A in basis for B in basis if colored_col_sums(A) == colored_row_sums(B)]


@pytest.mark.parametrize("mnr", LEAD_GRIDS)
def test_leading_terms_and_sweeps_match_the_oracle(mnr):
    ctx = SchurContext(*mnr)
    one = RingElem.one(ctx.hecke.nvars)
    for C in ctx.basis():
        lam, mu = ctx.margins(C)
        lead = schur._leading_term(ctx, C)
        assert lead == premise_lead(C)
        coords = ctx.b_coords(C)
        assert coords[lead] == one
        assert max(coords, key=order_key(mu)) == lead
        assert recover_matrix(ctx, lam, mu, *lead)[0] == C
    for lam in ctx.weights():
        for mu in ctx.weights():
            sweep = schur._sweep(ctx, lam, mu)
            assert sorted(C for _, C in sweep) == sorted(ctx.basis_block(lam, mu))
            assert len({lead for lead, _ in sweep}) == len(sweep)
            keys = [order_key(mu)(lead) for lead, _ in sweep]
            assert all(a > b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("mnr, sample", [((2, 2, 2), None), ((3, 1, 3), None), ((2, 2, 3), 40)])
def test_sweep_matches_the_greedy_oracle(mnr, sample):
    # Each product b_A tail(B) is formed on a context of its own; the sweep
    # (multiply_basis on e-coordinates, express_in_hom_basis on lifted
    # u-coordinates) and the greedy loop (on e and on u) must give the same
    # structure constants.
    ctx, other = SchurContext(*mnr), SchurContext(*mnr)
    pairs = composable_pairs(ctx)
    if sample is not None:
        pairs = random.Random(5).sample(pairs, sample)
    alg = other.hecke
    for A, B in pairs:
        lam, mu = colored_row_sums(A), colored_col_sums(B)
        z = other.b_element(A) * other.tail(B)
        expected = greedy_eliminate(other, module_coords(z, lam), lam, mu, other.b_coords)
        private = greedy_eliminate(other, _module_coords(alg, z._terms, lam), lam, mu, other._b_coords)
        assert alg._public(private) == expected
        assert multiply_basis(ctx, A, B) == expected
        assert express_in_hom_basis(ctx, z, lam, mu) == expected


def module_vector(ctx: SchurContext, lam, term):
    """The basis vector x_lam T_d L^a of x_lam H at the module term (d, a)."""
    alg = ctx.hecke
    return alg.x_lambda(lam) * alg.elem({term: alg.one_c})


def junk_cases(ctx: SchurContext, lam, mu):
    """(C, [(name, z)]) with z = b_C + junk outside the span of the (lam, mu)
    block: x_lam L_1, the module vector at the lowest term that is no lead
    of the block, one at the highest lead of another (lam, mu') block, and
    one at another lead of the same block."""
    sweep = schur._sweep(ctx, lam, mu)
    (_, C), (other, _) = sweep[0], sweep[1]
    own = {lead for lead, _ in sweep}
    terms = itertools.product(coset_reps(lam), itertools.product(range(ctx.m), repeat=ctx.r))
    free = min((term for term in terms if term not in own), key=order_key(mu))
    leads = {lead for nu in ctx.weights() for lead, _ in schur._sweep(ctx, lam, nu)}
    foreign = max(leads - own, key=order_key(mu))
    b = ctx.b_element(C)
    return C, [
        ("x_lam L_1", b + ctx.hecke.x_lambda(lam) * ctx.hecke.gen_L(1)),
        ("no lead", b + module_vector(ctx, lam, free)),
        ("another block's lead", b + module_vector(ctx, lam, foreign)),
        ("the same block's lead", b + module_vector(ctx, lam, other)),
    ]


REJECT_BLOCKS = [((2, 2, 2), (1, 1), (2, 0)), ((3, 2, 2), (0, 2), (2, 0)), ((2, 2, 3), (2, 1), (1, 2))]


@pytest.mark.parametrize("mnr, lam, mu", REJECT_BLOCKS)
def test_junk_is_rejected_on_cold_and_warm_contexts(mnr, lam, mu):
    C, cases = junk_cases(SchurContext(*mnr), lam, mu)
    oracle = SchurContext(*mnr)
    warm = SchurContext(*mnr)
    for A, B in composable_pairs(warm):
        multiply_basis(warm, A, B)
    assert express_in_hom_basis(warm, warm.b_element(C), lam, mu) == {C: RingElem.one(warm.hecke.nvars)}
    for name, z in cases:
        with pytest.raises(NotInSpanError):
            greedy_eliminate(oracle, module_coords(z, lam), lam, mu, oracle.b_coords)
        with pytest.raises(NotInSpanError):
            express_in_hom_basis(SchurContext(*mnr), z, lam, mu)
        for _ in range(2):
            with pytest.raises(NotInSpanError):
                express_in_hom_basis(warm, z, lam, mu)
    # The warm context still expands products as a cold one does.
    cold = SchurContext(*mnr)
    for A, B in composable_pairs(warm)[:20]:
        assert multiply_basis(warm, A, B) == multiply_basis(cold, A, B)


def test_triangularity_is_checked_when_a_rest_is_built():
    # The lowest basis vector of a block with a tail below its lead, and the
    # block's greatest lead, above every term of it.
    ctx = SchurContext(2, 2, 3)
    lam, mu = (2, 1), (1, 2)
    sweep = schur._sweep(ctx, lam, mu)
    high = sweep[0][0]
    low, C = next((lead, C) for lead, C in reversed(sweep) if len(ctx._b_coords(C)) > 1)
    coords = dict(ctx._b_coords(C))
    assert schur._rest(coords, low, mu)
    one = coords[low]
    with pytest.raises(AssertionError):
        schur._rest({**coords, low: one + one}, low, mu)
    with pytest.raises(AssertionError):
        schur._rest({k: c for k, c in coords.items() if k != low}, low, mu)
    with pytest.raises(AssertionError):
        schur._rest({**coords, high: one}, low, mu)


def test_rests_are_one_memo_filled_by_both_callers():
    # multiply_basis and express_in_hom_basis sweep in the private ring and
    # fill one memo: the second caller adds the rests it lacks and keeps the
    # first caller's as they are; each entry is b_C without its lead, negated.
    ctx = SchurContext(2, 2, 2)
    A, B = composable_pairs(ctx)[7]
    multiply_basis(ctx, A, B)
    filled = dict(ctx._rests)
    assert filled and A not in filled
    lam, mu = ctx.margins(A)
    express_in_hom_basis(ctx, ctx.b_element(A), lam, mu)
    assert list(ctx._rests) == [*filled, A]
    assert all(ctx._rests[C] is rest for C, rest in filled.items())
    for C, rest in ctx._rests.items():
        lead = schur._leading_term(ctx, C)
        assert {k: -c for k, c in rest} == {k: c for k, c in ctx._b_coords(C).items() if k != lead}


@pytest.mark.parametrize("mu", [(3, 0), (1, 0)])
def test_column_margins_of_another_total_are_outside_the_span(mu):
    # The (lam, mu) block is empty when mu does not sum to r, so every
    # nonzero element is left over (the greedy loop raised IndexError on
    # (3, 0)); zero still expands to nothing.
    ctx = SchurContext(2, 2, 2)
    with pytest.raises(NotInSpanError):
        express_in_hom_basis(ctx, ctx.hecke.x_lambda((2, 0)), (2, 0), mu)
    assert express_in_hom_basis(ctx, ctx.hecke.zero(), (2, 0), mu) == {}
