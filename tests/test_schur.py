"""Tests for the slim Schur algebra layer.

Covers the hom-basis elements and their leading-term structure, the
division-free expansion algorithm (roundtrip, reconstruction, rejection),
algebra laws (units, associativity, idempotents), the classical q-Schur
embedding, commutativity in the single-row case, rank certification, the
two-sided eigen characterization of the hom spaces, and the affine lifts.
"""

from __future__ import annotations

import math
import random

import pytest

from cycloschur.affine import AffineAlgebra, epsilon_u
from cycloschur import hecke
from cycloschur.guards import GuardError
from cycloschur.hecke import ElementBase, HeckeAlgebra, HeckeElement, eigen_test
from cycloschur.permutations import (
    check_composition,
    coset_reps_within,
    left_coset_factor,
    nu_of,
    theta_inverse,
)
from cycloschur.ring import RingElem, poincare_polynomial
from cycloschur.schur import (
    NotInSpanError,
    SchurContext,
    SchurElement,
    _eigen_rows,
    _nullity,
    b_element_of,
    basis_element,
    diagonal_matrix,
    embed_matrix,
    embed_q_schur,
    express_in_hom_basis,
    eigen_certificate,
    idempotent,
    identity_element,
    matrix_from_json,
    matrix_to_json,
    multiply_basis,
    phi_pair,
    tail_of,
    verify_commutative,
    verify_hom_space_dims,
    verify_rank,
)
from cycloschur.wreath import (
    a_ddot,
    colored_col_sums,
    colored_row_sums,
    colored_size,
)

CTX122 = SchurContext(1, 2, 2)
CTX222 = SchurContext(2, 2, 2)


def reconstruct(ctx: SchurContext, coords):
    total = None
    for C, f in coords.items():
        t = ctx.b_element(C).scale(f)
        total = t if total is None else total + t
    return total


def random_poly(rng: random.Random, nvars: int) -> RingElem:
    out = RingElem.zero(nvars)
    for _ in range(rng.randrange(1, 3)):
        qe = rng.randrange(-2, 3)
        ue = tuple(rng.randrange(0, 2) for _ in range(nvars))
        c = rng.choice([-2, -1, 1, 2, 3])
        out = out + RingElem(nvars, {(qe, ue): c})
    return out


# -- basis elements --------------------------------------------------------


def test_diagonal_b_is_symmetrizer():
    for m, n, r in [(1, 2, 2), (2, 2, 2), (3, 2, 2), (2, 2, 3)]:
        ctx = SchurContext(m, n, r)
        for lam in ctx.weights():
            A = diagonal_matrix(lam, m)
            assert ctx.b_element(A) == ctx.hecke.x_lambda(lam)


def test_b_element_identity_coset_m1():
    ctx = CTX122
    alg = ctx.hecke
    x20 = alg.x_lambda((2, 0))
    A = embed_matrix(((1, 1), (0, 0)), 1)
    assert ctx.b_element(A) == x20
    B = embed_matrix(((1, 0), (1, 0)), 1)
    assert ctx.b_element(B) == x20


def test_b_element_colored_golden():
    # Diagonal entry sums with both colors set: the product L_1 L_2.
    ctx = CTX222
    A = (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    assert colored_row_sums(A) == (1, 1)
    assert ctx.b_element(A) == ctx.hecke.jm_monomial((1, 1))


def test_b_element_margins_and_eigen():
    for ctx in [CTX122, CTX222]:
        for A in ctx.basis():
            b = ctx.b_element(A)
            lam = colored_row_sums(A)
            mu = colored_col_sums(A)
            from cycloschur.permutations import j_set

            for i in j_set(lam):
                assert eigen_test(b, i, "left")
            for j in j_set(mu):
                assert eigen_test(b, j, "right")


def test_leading_term_premise():
    # Every b has coefficient one at the predicted greatest module term:
    # the minimal representative times the longest attached coset
    # representative, carrying the blockwise suffix sums of the reindexed
    # colors.  All other terms are smaller under (length, pulled-back lex).
    for m, n, r in [(2, 2, 2), (3, 2, 2), (2, 2, 3)]:
        ctx = SchurContext(m, n, r)
        for A in ctx.basis():
            size = colored_size(A)
            mu = colored_col_sums(A)
            d = theta_inverse(size)
            nu = nu_of(size)
            vs = coset_reps_within(mu, nu)
            maxlen = max(v.length() for v in vs)
            longest = [v for v in vs if v.length() == maxlen]
            assert len(longest) == 1
            v0 = longest[0]
            dd = a_ddot(A)
            ahat: list[int] = []
            n_rows, n_cols = len(A), len(A[0])
            for j in range(n_cols):
                for i in range(n_rows):
                    block = dd[i][j]
                    k = len(block)
                    ahat.extend(
                        sum(block[t:]) for t in range(k)
                    )
            c_lead = v0.apply_to_tuple(tuple(ahat))
            lead = (d * v0, c_lead)
            coords = ctx.b_coords(A)
            assert coords[lead] == RingElem.one(ctx.hecke.nvars)

            def orderkey(item):
                d2, c = item
                _, v = left_coset_factor(d2, mu)
                return (d2.length(), v.inv().apply_to_tuple(c), d2.im, c)

            assert max(coords, key=orderkey) == lead


# -- expansion in the hom basis --------------------------------------------


def test_express_roundtrip_seeded():
    rng = random.Random(11)
    for m, n, r in [(1, 2, 2), (2, 2, 2), (3, 2, 2), (2, 2, 3)]:
        ctx = SchurContext(m, n, r)
        weights = ctx.weights()
        for _ in range(4):
            lam = rng.choice(weights)
            mu = rng.choice(weights)
            block = ctx.basis_block(lam, mu)
            chosen = rng.sample(block, k=min(len(block), 3))
            coeffs = {A: random_poly(rng, ctx.hecke.nvars) for A in chosen}
            z = reconstruct(ctx, coeffs)
            assert express_in_hom_basis(ctx, z, lam, mu) == coeffs


def test_express_zero_element():
    assert express_in_hom_basis(CTX222, CTX222.hecke.zero(), (1, 1), (2, 0)) == {}


def test_express_rejects_outside_span():
    alg = CTX222.hecke
    z = alg.x_lambda((2, 0)) * alg.gen_L(1)
    assert not eigen_test(z, 1, "right")
    with pytest.raises(NotInSpanError):
        express_in_hom_basis(CTX222, z, (2, 0), (2, 0))


def _composable_pairs(ctx: SchurContext):
    basis = ctx.basis()
    return [
        (A, B)
        for A in basis
        for B in basis
        if colored_col_sums(A) == colored_row_sums(B)
    ]


@pytest.mark.parametrize("mnr", [(2, 2, 2), (3, 1, 3)])
def test_memoised_elimination_matches_fresh_context(mnr):
    # One context expands every product twice, forwards then backwards, so
    # the second pass runs on warm sweep and rest memos; each
    # result must equal the expansion on a context built for it alone.
    # Each Hecke product b_A * tail_B (most of the time here) is formed
    # once and expanded three times, as multiply_basis would expand it.
    shared = SchurContext(*mnr)
    products = {
        (A, B): (shared.b_element(A) * shared.tail(B), colored_row_sums(A),
                 colored_col_sums(B))
        for A, B in _composable_pairs(shared)
    }
    fresh = {
        pair: express_in_hom_basis(SchurContext(*mnr), *args)
        for pair, args in products.items()
    }
    assert not shared._sweeps and not shared._rests
    pairs = list(products)
    for pair in pairs + pairs[::-1]:
        assert express_in_hom_basis(shared, *products[pair]) == fresh[pair]
    assert shared._sweeps and shared._rests
    A, B = pairs[0]
    assert multiply_basis(shared, A, B) == fresh[(A, B)]


def test_express_rejects_outside_span_on_warm_context():
    ctx = SchurContext(2, 2, 2)
    for A, B in _composable_pairs(ctx):
        multiply_basis(ctx, A, B)
    assert ctx._sweeps and ctx._rests
    z = ctx.hecke.x_lambda((2, 0)) * ctx.hecke.gen_L(1)
    for _ in range(2):
        with pytest.raises(NotInSpanError):
            express_in_hom_basis(ctx, z, (2, 0), (2, 0))
    for (lam, mu), sweep in ctx._sweeps.items():
        for _, C in sweep:
            assert (colored_row_sums(C), colored_col_sums(C)) == (lam, mu)


def test_express_accepts_free_column_margin():
    # With no column constraints the module itself is the hom space.
    alg = CTX222.hecke
    z = alg.x_lambda((2, 0)) * alg.gen_L(1)
    coords = express_in_hom_basis(CTX222, z, (2, 0), (1, 1))
    assert reconstruct(CTX222, coords) == z


def test_express_rejects_wrong_row_margin():
    alg = CTX222.hecke
    z = alg.one()
    with pytest.raises(ValueError):
        # not in x_{(2,0)} H at all: module coordinates must fail
        express_in_hom_basis(CTX222, z, (2, 0), (2, 0))


# -- multiplication --------------------------------------------------------


def test_multiply_incompatible_margins_zero():
    A = diagonal_matrix((2, 0), 2)
    B = diagonal_matrix((1, 1), 2)
    assert multiply_basis(CTX222, A, B) == {}


def test_unit_laws_all_basis():
    one = RingElem.one(CTX222.hecke.nvars)
    for A in CTX222.basis():
        lam = colored_row_sums(A)
        mu = colored_col_sums(A)
        left = multiply_basis(CTX222, diagonal_matrix(lam, 2), A)
        right = multiply_basis(CTX222, A, diagonal_matrix(mu, 2))
        assert left == {A: one}
        assert right == {A: one}


def test_identity_element_acts_as_unit():
    rng = random.Random(3)
    ident = identity_element(CTX222)
    chosen = rng.sample(CTX222.basis(), k=5)
    x = SchurElement(
        CTX222, {A: random_poly(rng, CTX222.hecke.nvars) for A in chosen}
    )
    assert ident * x == x
    assert x * ident == x


def test_product_reconstruction_full_m1():
    # The expansion of Phi_A Phi_B really does reconstruct b_A tail_B.
    ctx = CTX122
    for A in ctx.basis():
        for B in ctx.basis():
            if colored_col_sums(A) != colored_row_sums(B):
                continue
            coords = multiply_basis(ctx, A, B)
            z = ctx.b_element(A) * ctx.tail(B)
            got = reconstruct(ctx, coords)
            if got is None:
                assert z.is_zero()
            else:
                assert got == z


def test_product_reconstruction_sampled_m2():
    rng = random.Random(17)
    ctx = CTX222
    basis = ctx.basis()
    pairs = [
        (A, B)
        for A in basis
        for B in basis
        if colored_col_sums(A) == colored_row_sums(B)
    ]
    for A, B in rng.sample(pairs, k=40):
        coords = multiply_basis(ctx, A, B)
        z = ctx.b_element(A) * ctx.tail(B)
        got = reconstruct(ctx, coords)
        if got is None:
            assert z.is_zero()
        else:
            assert got == z


def test_associativity_seeded():
    rng = random.Random(23)
    ctx = CTX222
    basis = ctx.basis()
    chains = []
    while len(chains) < 12:
        A = rng.choice(basis)
        bs = [B for B in basis if colored_row_sums(B) == colored_col_sums(A)]
        B = rng.choice(bs)
        cs = [C for C in basis if colored_row_sums(C) == colored_col_sums(B)]
        C = rng.choice(cs)
        chains.append((A, B, C))
    for A, B, C in chains:
        ea, eb, ec = (basis_element(ctx, M) for M in (A, B, C))
        assert (ea * eb) * ec == ea * (eb * ec)


def test_corner_block_matches_quadratic_relation():
    # On the all-ones margins the corner of the Schur algebra multiplies
    # like the underlying algebra: the transposition vector squares to
    # (q-1) itself + q identity.
    for ctx in [CTX122, CTX222]:
        nv = ctx.hecke.nvars
        A_s = embed_matrix(((0, 1), (1, 0)), ctx.m)
        A_e = embed_matrix(((1, 0), (0, 1)), ctx.m)
        got = multiply_basis(ctx, A_s, A_s)
        q = RingElem.q_power(1, nv)
        one = RingElem.one(nv)
        assert got == {A_s: q - one, A_e: q}


def test_noncommuting_pair_exists_for_n2():
    ctx = CTX222
    A1 = (((1, 0), (0, 0)), ((0, 0), (0, 1)))  # diag, first entry colored
    A2 = embed_matrix(((0, 1), (1, 0)), 2)  # transposition, color zero
    assert colored_row_sums(A1) == colored_col_sums(A1) == (1, 1)
    assert multiply_basis(ctx, A1, A2) != multiply_basis(ctx, A2, A1)


def test_morita_identity_small():
    for m, r, lams in [
        (2, 2, [(2, 0), (1, 1)]),
        (2, 3, [(2, 1, 0)]),
    ]:
        ctx = SchurContext(m, r, r)
        omega = (1,) * r
        for lam in lams:
            prod = phi_pair(ctx, lam, omega) * phi_pair(ctx, omega, lam)
            p = poincare_polynomial(lam, ctx.hecke.nvars)
            assert prod == idempotent(ctx, lam).scale(p)


def test_embedded_q_schur_matches_classical():
    # Products of embedded classical basis vectors have the same structure
    # constants as in the one-parameter algebra, with no u dependence.
    ctx1, ctx2 = CTX122, CTX222
    for A in ctx1.basis():
        for B in ctx1.basis():
            size_a = colored_size(A)
            size_b = colored_size(B)
            prod1 = multiply_basis(ctx1, A, B)
            prod2 = multiply_basis(
                ctx2, embed_matrix(size_a, 2), embed_matrix(size_b, 2)
            )
            lifted = {}
            for C, f in prod1.items():
                qdict = {}
                for (qe, ue), c in f.sorted_terms():
                    assert all(e == 0 for e in ue)
                    qdict[(qe, (0, 0))] = c
                lifted[embed_matrix(colored_size(C), 2)] = RingElem(2, qdict)
            assert prod2 == lifted


# -- verification routines -------------------------------------------------


def test_verify_rank_exact_small():
    rep = verify_rank(CTX122, exact=True)
    assert rep["ok"] and rep["expected"] == 10 and rep["certified"] == 10


@pytest.mark.parametrize("mnr", [(2, 2, 2), (3, 2, 2), (2, 2, 3), (1, 2, 3), (3, 1, 3)])
def test_verify_rank_exact_matches_modular_per_block(mnr):
    # exact_rank (Bareiss, through exact_div) certifies every block in full,
    # block by block equal to the modular certificate.
    ctx = SchurContext(*mnr)
    exact, modular = verify_rank(ctx, exact=True), verify_rank(ctx, trials=2, seed=3)
    assert exact["ok"] and exact["certified"] == ctx.rank()
    assert exact["blocks"] == modular["blocks"]


def test_verify_rank_modular():
    rep = verify_rank(CTX222, trials=2, seed=7)
    assert rep["ok"] and rep["expected"] == math.comb(2 * 4 + 1, 2) == 36
    ctx = SchurContext(2, 1, 2)
    rep1 = verify_rank(ctx, trials=2, seed=7)
    assert rep1["ok"] and rep1["expected"] == 3


def test_commutative_single_row():
    for m, r in [(2, 2), (3, 2)]:
        rep = verify_commutative(SchurContext(m, 1, r))
        assert rep["ok"]
        assert rep["size"] == math.comb(m + r - 1, r)


def test_commutative_check_rejects_n2():
    with pytest.raises(ValueError):
        verify_commutative(CTX222)


def test_hom_space_dims_full():
    rep = verify_hom_space_dims(CTX222, seed=5)
    assert rep["ok"]
    total = sum(b["expected"] for b in rep["blocks"])
    assert total == 36


def hom_space_nullity(alg, lam, mu, seed=0, guard=None) -> int:
    """Dimension of {h : T_i h = q h (i in J_lam), h T_j = q h (j in J_mu)}
    at one random point mod 2^31 - 1, an upper bound on the generic dimension.

    Each equation is a sparse row over R on the normal-form coordinates of
    h: the coefficient of one monomial in T_i h - q h (or h T_j - q h).
    The result is the basis size minus the ``modular_rank`` of these rows
    at the single trial that `seed` draws.
    """
    lam, mu = check_composition(lam), check_composition(mu)
    return _nullity(alg, _eigen_rows(alg, guard), lam, mu, seed)


def test_hom_space_nullity_matches_block():
    alg = HeckeAlgebra(2, 3)
    ctx = SchurContext(2, 2, 3)
    lam, mu = (2, 1), (1, 2)
    expected = len(ctx.basis_block(lam, mu))
    assert hom_space_nullity(alg, lam, mu, seed=9) == expected


def test_hom_dims_build_the_eigen_equations_once(monkeypatch):
    # H(3, 2) has 18 normal-form monomials, each moved by T_1 on each side:
    # 36 products for all 36 blocks (648 when each block built its own).
    calls = []
    for cls, name in ((HeckeElement, "lmul_gen_T"), (ElementBase, "rmul_gen_T")):
        def counted(self, i, _original=getattr(cls, name)):
            calls.append(i)
            return _original(self, i)

        monkeypatch.setattr(cls, name, counted)
    rep = verify_hom_space_dims(SchurContext(3, 3, 2), seed=0)
    assert rep["ok"] and len(rep["blocks"]) == 36
    assert len(calls) == 36


def test_coset_representatives_are_memoised_per_algebra(monkeypatch):
    calls = []

    def counted(mu, nu):
        calls.append((mu, nu))
        return coset_reps_within(mu, nu)

    monkeypatch.setattr(hecke, "coset_reps_within", counted)
    ctx = SchurContext(2, 2, 3)
    basis = ctx.basis()
    for A in basis:
        ctx.tail(A)
    for A, B in zip(basis, reversed(basis)):
        multiply_basis(ctx, A, B)  # recovers leading terms through the memo
    memo = ctx.hecke._reps_within
    assert memo and len(calls) == len(memo)
    for (mu, nu), reps in memo.items():
        assert reps == coset_reps_within(mu, nu)
    # An equal algebra keeps a memo of its own.
    other = HeckeAlgebra(2, 3)
    assert other == ctx.hecke and other._reps_within == {}
    tail_of(other, basis[-1])
    assert len(other._reps_within) == 1 and other._reps_within is not memo
    assert len(calls) == len(memo) + 1


def test_eigen_certificate():
    for lam in CTX222.weights():
        for mu in CTX222.weights():
            assert eigen_certificate(CTX222, lam, mu)


# -- affine lifts ----------------------------------------------------------


def test_affine_b_maps_to_cyclotomic_b():
    aff = AffineAlgebra(2, nvars=2)
    for A in CTX222.basis():
        za = b_element_of(aff, A)
        assert epsilon_u(za, CTX222.hecke) == CTX222.b_element(A)
        assert epsilon_u(tail_of(aff, A), CTX222.hecke) == CTX222.tail(A)


def test_affine_b_rank_mismatch():
    aff = AffineAlgebra(3, nvars=2)
    with pytest.raises(ValueError):
        b_element_of(aff, CTX222.basis()[0])
    with pytest.raises(ValueError):
        tail_of(aff, CTX222.basis()[0])


def test_b_element_of_is_the_context_value_over_u():
    # The context memoises b_A in its algebra's private e-coordinates, which
    # read to u; the module functions evaluate the formula in an algebra of
    # their own.
    for ctx in (CTX122, CTX222, SchurContext(3, 1, 2)):
        alg = HeckeAlgebra(ctx.m, ctx.r)
        for A in ctx.basis():
            assert ctx.tail(A) == tail_of(alg, A)
            assert ctx.b_element(A) == b_element_of(alg, A)
            assert ctx.b_element(A)._terms == b_element_of(ctx.hecke, A)._terms


def test_context_has_no_algebra_option():
    with pytest.raises(TypeError):
        SchurContext(2, 2, 2, hecke=HeckeAlgebra(2, 2))
    assert SchurContext(2, 2, 2) == CTX222
    assert SchurContext(2, 2, 3) != CTX222


# -- serialization and misc ------------------------------------------------


def test_basis_checks_an_explicit_guard_on_every_call():
    ctx = SchurContext(2, 1, 2)  # 3 basis matrices
    basis = ctx.basis(3)
    with pytest.raises(GuardError, match="colored matrices \\(2,1,2\\) has size 3"):
        ctx.basis(2)
    # no guard: the cached basis, as enumerated under a larger one
    assert ctx.basis() is basis and ctx.basis(None) is basis


def test_matrix_json_roundtrip():
    for A in CTX222.basis():
        assert matrix_from_json(matrix_to_json(A)) == A


def test_idempotent_rejects_bad_composition():
    with pytest.raises(ValueError):
        idempotent(CTX222, (3, 0))
    with pytest.raises(ValueError):
        idempotent(CTX222, (1, 1, 0))


def test_phi_pair_margins():
    x = phi_pair(CTX222, (2, 0), (1, 1))
    (A, _), = x.terms.items()
    assert colored_row_sums(A) == (2, 0)
    assert colored_col_sums(A) == (1, 1)


@pytest.mark.parametrize("mnr", [(1, 2, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2), (1, 3, 3)])
def test_margins_memo_matches_wreath(mnr):
    ctx = SchurContext(*mnr)
    for A in ctx.basis():
        sums = ctx.margins(A)
        assert sums == (colored_row_sums(A), colored_col_sums(A))
        assert ctx.margins(A) is sums
    assert len(ctx._margins) == len(ctx.basis())
    # memoised per context, not shared between contexts
    assert SchurContext(*mnr)._margins == {}


def test_context_weights_and_rank():
    assert CTX222.rank() == 36
    assert len(CTX222.weights()) == 3
    assert len(CTX222.basis()) == 36


def test_embed_q_schur_is_basis_vector():
    x = embed_q_schur(CTX222, ((1, 0), (1, 0)))
    assert len(x.terms) == 1
    (A, c), = x.terms.items()
    assert A == embed_matrix(((1, 0), (1, 0)), 2)
    assert c == RingElem.one(2)


def test_mixed_context_operations_rejected():
    x = identity_element(CTX122)
    y = identity_element(CTX222)
    with pytest.raises(ValueError):
        _ = x + y
    with pytest.raises(ValueError):
        _ = x * y
