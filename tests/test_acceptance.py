"""Acceptance gate: twelve exactly-checkable criteria on the desk-scale
grid.  One test per criterion; each prints a single PASS/FAIL line and
every comparison is exact (ring equality, set equality, or integer
counts; modular rank certification uses three independent trials)."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from straightening_oracle import oracle_move
from test_hecke import typea_multiply

from cycloschur.affine import (
    AffineAlgebra,
    affine_sigma,
    coefficient_symmetry_check,
    epsilon_u,
)
from cycloschur.hecke import (
    HeckeAlgebra,
    appendix_basis_coords,
    from_left_form,
    tau,
    to_left_form,
)
from cycloschur.permutations import (
    all_perms,
    compositions,
    ddot,
    ddot_inverse,
    identity,
    reduced_word,
    simple,
    young_subgroup,
)
from cycloschur.ring import RingElem, poincare_polynomial
from cycloschur.schur import (
    SchurContext,
    b_element_of,
    eigen_certificate,
    phi_pair,
    verify_commutative,
    verify_hom_space_dims,
    verify_rank,
)
from cycloschur.typeb import (
    verify_group_algebra_basis,
    verify_route_agreement,
    verify_shifted_coset_identity,
    verify_single_row_coset_basis,
    verify_worked_example,
)
from cycloschur.wreath import (
    colored_col_sums,
    colored_from_uncolored,
    colored_inverse,
    colored_matrix_of,
    colored_mul,
    colored_row_sums,
    double_coset_rep,
    enumerate_colored,
    enumerate_wreath,
    nu_colored,
)

GRID = [
    (m, n, r) for m in (1, 2, 3) for n in (1, 2) for r in (1, 2, 3)
] + [(2, 3, 2)]

_CTX: dict[tuple[int, int, int], SchurContext] = {}


def ctx_for(m: int, n: int, r: int) -> SchurContext:
    key = (m, n, r)
    if key not in _CTX:
        _CTX[key] = SchurContext(m, n, r)
    return _CTX[key]


_TERMINAL = None


@pytest.fixture(autouse=True)
def _grab_terminal(request):
    # route the per-criterion lines to the live terminal so they stay
    # visible even though pytest captures test stdout
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" — {detail}" if detail else ""
    line = f"CRITERION {num:2d} [{status}] {desc}{tail}"
    if _TERMINAL is not None:
        _TERMINAL.write_line("")
        _TERMINAL.write_line(line)
    else:
        print(line)
    assert ok, f"criterion {num} failed: {desc}{tail}"


def test_criterion_01_basis_rank_formula():
    certified = 0
    for m, n, r in GRID:
        ctx = ctx_for(m, n, r)
        expected = math.comb(m * n * n + r - 1, r)
        rep = verify_rank(ctx, trials=3, seed=0)
        if not (rep["ok"] and rep["expected"] == expected == len(ctx.basis())):
            report(1, False, "basis size and independence", f"grid {(m, n, r)}")
        certified += rep["certified"]
    report(
        1, True, "basis count matches the closed form with certified independence",
        f"{len(GRID)} grids, {certified} vectors, 3 modular trials each",
    )


def test_criterion_02_eigen_membership_and_dimensions():
    blocks = 0
    for m, n, r in GRID:
        ctx = ctx_for(m, n, r)
        for lam in ctx.weights():
            for mu in ctx.weights():
                if not eigen_certificate(ctx, lam, mu):
                    report(2, False, "two-sided eigen membership",
                           f"grid {(m, n, r)} block {(lam, mu)}")
                blocks += 1
        rep = verify_hom_space_dims(ctx, seed=0)
        if not rep["ok"]:
            report(2, False, "solution-space dimensions", f"grid {(m, n, r)}")
    report(
        2, True,
        "every basis vector satisfies the two-sided eigen property and "
        "solution-space dimensions match block sizes",
        f"{blocks} blocks over {len(GRID)} grids",
    )


def test_criterion_03_rank_one_commutativity():
    sizes = []
    for m, r in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rep = verify_commutative(ctx_for(m, 1, r))
        if not rep["ok"]:
            report(3, False, "commutativity of the single-weight algebra",
                   f"(m, r) = {(m, r)}")
        sizes.append(rep["size"])
    report(
        3, True, "single-weight Schur algebras commute exhaustively",
        f"basis sizes {sizes}",
    )


def test_criterion_04_two_color_symmetrizer_coset_sums():
    cases = 0
    for r in (1, 2, 3, 4):
        rep = verify_single_row_coset_basis(r)
        if not rep["ok"]:
            report(4, False, "full symmetrizer times sigma_i as a coset sum",
                   f"r = {r}: {rep}")
        cases += len(rep["cases"])
    report(
        4, True,
        "x_(r) sigma_i equals the i-flip double coset sum symbolically in q, q0",
        f"r <= 4, {cases} cases",
    )


def test_criterion_05_group_algebra_degeneration():
    checked = 0
    for n, r in ((2, 2), (2, 3)):
        rep = verify_group_algebra_basis(n, r)
        if not rep["ok"]:
            report(5, False, "group-algebra degeneration of the hom basis",
                   f"(n, r) = {(n, r)} failures {rep['failures'][:2]}")
        checked += rep["checked"]
    report(
        5, True,
        "at q = 1, u = (-1, 1) every basis vector equals its double-coset sum",
        f"{checked} matrices over (n, r) in {{(2,2), (2,3)}}",
    )


def test_criterion_06_worked_rank_three_example():
    rep = verify_worked_example()
    failed = [name for name, ok in rep["checks"].items() if not ok]
    report(
        6, rep["ok"],
        "the worked rank-3 two-color example reproduces coefficient-exactly",
        f"failed: {failed}" if failed else f"{len(rep['checks'])} identities",
    )


def test_criterion_07_shifted_coset_scaling():
    cases = 0
    for total in (1, 2, 3, 4):
        for b in range(1, total + 1):
            a = total - b
            rep = verify_shifted_coset_identity(a, b, total)
            if not rep["ok"]:
                report(7, False, "shifted symmetrizer coset identity",
                       f"(a, b) = {(a, b)}: {rep}")
            cases += len(rep["cases"])
    report(
        7, True,
        "x^a_b sigma^a_{b,i} = q^{-ai} (coset sum) for all a + b <= 4",
        f"{cases} cases",
    )


def test_criterion_08_product_route_agreement():
    for label, alg in (("one-parameter", None), ("generic", HeckeAlgebra(2, 3))):
        rep = verify_route_agreement(2, 3, alg=alg)
        if not rep["ok"]:
            report(8, False, "two routes to the hom-basis vector",
                   f"{label} engine failures {rep['failures'][:2]}")
    report(
        8, True,
        "symmetric-function and flip-factor constructions agree on all of "
        "the (2, 3) two-color basis",
        "120 matrices, both engines",
    )


def test_criterion_09_parabolic_poincare_factor():
    checked = 0
    for m in (1, 2):
        for r in (2, 3):
            ctx = SchurContext(m, r, r)
            omega = (1,) * r
            for lam in ctx.weights():
                left = phi_pair(ctx, lam, omega) * phi_pair(ctx, omega, lam)
                right = phi_pair(ctx, lam, lam).scale(
                    poincare_polynomial(lam, ctx.m)
                )
                if left != right:
                    report(9, False, "parabolic Poincare factorization",
                           f"(m, r, lam) = {(m, r, lam)}")
                checked += 1
    report(
        9, True,
        "round trips through the finest weight scale by the length "
        "generating polynomial",
        f"{checked} weights, n = r in {{2, 3}}, m in {{1, 2}}",
    )


def test_criterion_10_engine_soundness():
    # (a) associativity on >= 100 random basis triples per (m, r);
    # exponent totals are capped at 3 per factor to keep coefficient
    # growth desk-scale without restricting which rewrite rules fire
    triples = 0
    for m in (1, 2, 3):
        for r in (1, 2, 3):
            alg = HeckeAlgebra(m, r)
            keys = [k for k in alg.pbw_basis() if sum(k[1]) <= 3]
            rng = random.Random(100 * m + r)
            for _ in range(100):
                x, y, z = (alg.elem({rng.choice(keys): alg.one_c}) for _ in range(3))
                if (x * y) * z != x * (y * z):
                    report(10, False, "associativity", f"(m, r) = {(m, r)}")
                triples += 1

    # (b) closed-form straightening versus the elementary-move oracle
    moves = 0
    for m in (1, 2, 3):
        for r in (2, 3):
            alg = HeckeAlgebra(m, r)
            for b in itertools.product(range(m), repeat=r):
                x = alg.elem({(identity(r), b): alg.one_c})
                for i in range(1, r):
                    got = x.rmul_gen_T(i)
                    expected: dict = {}
                    for (has_T, c), coeff in oracle_move(b, i, alg.nvars).items():
                        key = (simple(i, r) if has_T else identity(r), c)
                        cur = expected.get(key)
                        expected[key] = coeff if cur is None else cur + coeff
                    expected = {k: v for k, v in expected.items() if not v.is_zero()}
                    if got.terms != expected:
                        report(10, False, "straightening oracle",
                               f"(m, r, b, i) = {(m, r, b, i)}")
                    moves += 1

    # (c) normal form round trips: left form and the four-factor coordinates
    roundtrips = 0
    for m in (1, 2, 3):
        for r in (1, 2, 3):
            alg = HeckeAlgebra(m, r)
            keys = list(alg.pbw_basis())
            rng = random.Random(17 * m + r)
            margins = [(r,), (1, r - 1) if r > 1 else (r,)]
            for _ in range(10):
                x = alg.elem(
                    {
                        rng.choice(keys): alg.one_c,
                        rng.choice(keys): alg.qm1,
                    }
                )
                if from_left_form(to_left_form(x)) != x:
                    report(10, False, "left-form round trip", f"(m, r) = {(m, r)}")
                lam = margins[rng.randrange(len(margins))]
                mu = margins[rng.randrange(len(margins))]
                coords = appendix_basis_coords(x, lam, mu)
                rebuilt = alg.zero()
                for (u, d, bexp, v), c in coords.items():
                    prod = alg.from_perm(u * d) * alg.jm_monomial(bexp)
                    for letter in reduced_word(v):
                        prod = prod.rmul_gen_T(letter)
                    rebuilt = rebuilt + prod.scale(c)
                if rebuilt != x:
                    report(10, False, "four-factor coordinate round trip",
                           f"(m, r) = {(m, r)}")
                roundtrips += 1

    # (d) the bar involution reverses products
    for m in (1, 2, 3):
        for r in (2, 3):
            alg = HeckeAlgebra(m, r)
            keys = [k for k in alg.pbw_basis() if sum(k[1]) <= 3]
            rng = random.Random(23 * m + r)
            for _ in range(30):
                x = alg.elem({rng.choice(keys): alg.one_c})
                y = alg.elem({rng.choice(keys): alg.qm1})
                if tau(x * y) != tau(y) * tau(x):
                    report(10, False, "anti-automorphism", f"(m, r) = {(m, r)}")

    # (e) one-color degeneration against a clean-room implementation
    for r in (2, 3):
        alg = HeckeAlgebra(1, r)
        zero_a = (0,) * r
        perms = list(all_perms(r))
        rng = random.Random(r)
        for _ in range(50):
            w1, w2 = rng.choice(perms), rng.choice(perms)
            got = alg.from_perm(w1) * alg.from_perm(w2)
            expected = typea_multiply({w1: RingElem.one(1)}, {w2: RingElem.one(1)}, r)
            if got.terms != {(w, zero_a): c for w, c in expected.items()}:
                report(10, False, "one-color degeneration", f"r = {r}")

    report(
        10, True,
        "engine soundness: associativity, straightening oracle, normal-form "
        "round trips, anti-automorphism, one-color degeneration",
        f"{triples} triples, {moves} oracle moves, {roundtrips} round trips",
    )


def test_criterion_11_affine_evaluation_layer():
    # (a) evaluation is multiplicative on >= 100 random nonnegative pairs
    pairs = 0
    for m in (1, 2, 3):
        for r in (1, 2, 3):
            aff = AffineAlgebra(r, nvars=m)
            target = HeckeAlgebra(m, r)
            rng = random.Random(10 * m + r)

            def rand_elem():
                e = aff.x_monomial(tuple(rng.randrange(0, 3) for _ in range(r)))
                if r > 1:
                    e = e * aff.gen_T(rng.randrange(1, r))
                return e.scale(RingElem.const(rng.randrange(-2, 3) or 1, m))

            for _ in range(100):
                x, y = rand_elem(), rand_elem()
                if epsilon_u(x * y, target) != epsilon_u(x, target) * epsilon_u(
                    y, target
                ):
                    report(11, False, "multiplicative evaluation",
                           f"(m, r) = {(m, r)}")
                pairs += 1

    # (b) the affine lift of every hom-basis vector evaluates onto it
    ctx = ctx_for(2, 2, 2)
    aff222 = AffineAlgebra(2, nvars=2)
    for A in ctx.basis():
        if epsilon_u(b_element_of(aff222, A), ctx.hecke) != ctx.b_element(A):
            report(11, False, "affine lift of the hom basis", f"A = {A}")

    # (c) coefficient symmetry of symmetrizer times symmetric function
    elements = 0
    for r in (2, 3):
        aff = AffineAlgebra(r)
        x_full = aff.x_lambda((r,))
        for exps in itertools.product(range(2), repeat=r):
            if sum(exps) > 2:
                continue
            z = x_full * affine_sigma(aff, (r,), [exps])
            if not coefficient_symmetry_check(z):
                report(11, False, "coefficient symmetry", f"(r, exps) = {(r, exps)}")
            elements += 1

    report(
        11, True,
        "affine layer: multiplicative evaluation, lifts of the hom basis, "
        "coefficient symmetry",
        f"{pairs} pairs, {len(ctx.basis())} lifts, {elements} symmetric elements",
    )


def test_criterion_12_combinatorial_bijections():
    # (a) matrices of group elements partition each wreath group into
    # double cosets, with the distinguished representative mapping back
    matrices = 0
    for m in (1, 2, 3):
        for r in (1, 2, 3):
            group = list(enumerate_wreath(m, r))
            for n in (1, 2):
                comps = list(compositions(r, n))
                for lam in comps:
                    for mu in comps:
                        fibers: dict = {}
                        for g in group:
                            fibers.setdefault(
                                colored_matrix_of(lam, g, mu), set()
                            ).add(g)
                        expected = {
                            A
                            for A in enumerate_colored(n, r, m)
                            if colored_row_sums(A) == lam
                            and colored_col_sums(A) == mu
                        }
                        if set(fibers) != expected:
                            report(12, False, "matrix fibers", f"{(m, r, lam, mu)}")
                        total = sum(len(f) for f in fibers.values())
                        if total != len(group):
                            report(12, False, "fibers partition the group",
                                   f"{(m, r, lam, mu)}")
                        for A, fiber in fibers.items():
                            rep = double_coset_rep(A)
                            if rep not in fiber:
                                report(12, False, "representative in its fiber",
                                       f"{(m, r)}: {A}")
                            if colored_matrix_of(lam, rep, mu) != A:
                                report(12, False, "representative maps back",
                                       f"{(m, r)}: {A}")
                            left = [colored_from_uncolored(w, m)
                                    for w in young_subgroup(lam)]
                            right = [colored_from_uncolored(w, m)
                                     for w in young_subgroup(mu)]
                            coset = {
                                colored_mul(colored_mul(x, rep), y)
                                for x in left
                                for y in right
                            }
                            if coset != fiber:
                                report(12, False, "fiber is the double coset",
                                       f"{(m, r)}: {A}")
                            matrices += 1

    # (b) the stabilizer is the Young subgroup of the refined composition
    stabs = 0
    for m in (1, 2, 3):
        for r in (1, 2, 3):
            for n in (1, 2):
                for A in enumerate_colored(n, r, m):
                    lam, mu = colored_row_sums(A), colored_col_sums(A)
                    rep = double_coset_rep(A)
                    rep_inv = colored_inverse(rep)
                    lam_set = {
                        colored_from_uncolored(w, m) for w in young_subgroup(lam)
                    }
                    got = {
                        y
                        for y in (
                            colored_from_uncolored(w, m) for w in young_subgroup(mu)
                        )
                        if colored_mul(colored_mul(rep, y), rep_inv) in lam_set
                    }
                    want = {
                        colored_from_uncolored(w, m)
                        for w in young_subgroup(nu_colored(A))
                    }
                    if got != want:
                        report(12, False, "stabilizer subgroup", f"{(m, r)}: {A}")
                    stabs += 1

    # (c) composition reindexing is a bijection for all m, k <= 6
    ddots = 0
    for m in range(1, 7):
        for k in range(0, 7):
            seen = set()
            for lam in compositions(k, m):
                dd = ddot(lam)
                if len(dd) != k or sum(dd) > m - 1:
                    report(12, False, "reindex range", f"{(m, k, lam)}")
                if ddot_inverse(dd, m) != lam:
                    report(12, False, "reindex round trip", f"{(m, k, lam)}")
                seen.add(dd)
                ddots += 1
            expected_count = math.comb(k + m - 1, k)
            if len(seen) != expected_count:
                report(12, False, "reindex bijectivity", f"{(m, k)}")

    report(
        12, True,
        "double cosets biject with colored matrices, stabilizers are Young "
        "subgroups of the refinement, composition reindexing is bijective",
        f"{matrices} matrices, {stabs} stabilizers, {ddots} reindexings",
    )
