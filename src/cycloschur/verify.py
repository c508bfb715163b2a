"""Named verification suites with timed, order-stable reports.

Every check is one row of ``CHECKS``: its id, the ``SuiteParams`` fields
its report carries, and a function ``(p, run)`` that returns a boolean
plus a witness (counts, offending inputs, or sub-reports).  A suite is the
rows whose ids share a prefix ("pbw" for "pbw.count", ...), and
``SUITE_NAMES`` lists the prefixes in table order, the order in which
"all" runs them.  Adding a check means adding one function and one row.
Guard violations surface as status "skipped(guard)" so a too-large
request degrades into an explicit skip instead of an open-ended
computation.  Reports are deterministic for a fixed seed: entries are
sorted by check id and the wall-clock field is informational only.

The checks of one ``run_suite`` call share its Schur contexts, one per
(m, n, r), reached only through ``_Run.schur``: the first check on a grid
builds the context and the later ones reuse its basis, b_A and memos.
``run_suite`` creates that dict, so no context outlives one report, and
``_Run.schur`` checks the guard against the basis size on every call,
cached or not.  Each suite has its own random stream, ``Random(seed)``,
which its checks draw from in table order, and its own ``HeckeAlgebra``
and ``AffineAlgebra``; none of these is shared across suites.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Sequence

from .affine import AffineAlgebra, coefficient_symmetry_check, epsilon_u
from .guards import GuardError, check_guard
from .hecke import (
    HeckeAlgebra,
    HeckeElement,
    from_left_form,
    sigma_nu,
    tau,
    to_left_form,
)
from .permutations import compositions, young_subgroup, young_subgroup_size
from .ring import RingElem, poincare_polynomial
from .schur import (
    SchurContext,
    b_element_of,
    basis_element,
    eigen_certificate,
    identity_element,
    module_dimension,
    multiply_basis,
    phi_pair,
    verify_commutative,
    verify_hom_space_dims,
    verify_rank,
)
from .typeb import (
    verify_group_algebra_basis,
    verify_route_agreement,
    verify_shifted_coset_identity,
    verify_single_row_coset_basis,
    verify_worked_example,
)
from .wreath import colored_col_sums, colored_count, colored_row_sums, group_by_row_sums


@dataclass
class SuiteParams:
    m: int = 2
    n: int = 2
    r: int = 2
    # Echoed in the report's params; no check reads them.
    lam: tuple[int, ...] | None = None
    mu: tuple[int, ...] | None = None
    seed: int = 0
    trials: int = 3
    guard: int | None = None
    exact: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


class _Run:
    """What the checks of one suite share: the Schur contexts of the whole
    ``run_suite`` call, and the suite's own random stream and algebras,
    each built on first use."""

    def __init__(self, p: SuiteParams, contexts: dict[tuple[int, int, int], SchurContext]):
        self.p = p
        self._contexts = contexts

    @cached_property
    def rng(self) -> random.Random:
        return random.Random(self.p.seed)

    @cached_property
    def hecke(self) -> HeckeAlgebra:
        return HeckeAlgebra(self.p.m, self.p.r)

    @cached_property
    def affine(self) -> AffineAlgebra:
        return AffineAlgebra(self.p.r, nvars=self.p.m)

    def schur(self, n: int | None = None) -> SchurContext:
        """The run's Schur context for (m, n, r), once its basis size has
        passed the guard; built on first use."""
        p = self.p
        key = (p.m, p.n if n is None else n, p.r)
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = self._contexts[key] = SchurContext(*key)
        ctx.basis(p.guard)
        return ctx


# A check's function: (ok, witness) from the suite's parameters and run.
Check = Callable[[SuiteParams, _Run], tuple[bool, object]]


# The least work charged for one trial: drawing and checking a trial costs
# time even where its size estimate reads 1, so the default guard admits at
# most 10^6 / 64 = 15,625 trials, a few seconds at (m, n, r) = (1, 1, 1).
_TRIAL_FLOOR = 64


def _trials(p: SuiteParams, least: int, per_trial: int, what: str) -> int:
    """max(--trials, least), once that many trials times per_trial, the
    work of one trial (at least _TRIAL_FLOOR), is within --guard."""
    trials = max(p.trials, least)
    check_guard(trials * max(per_trial, _TRIAL_FLOOR), p.guard, f"{what} over {trials} trials")
    return trials


# -- random elements -------------------------------------------------------


def _random_coeff(rng: random.Random, nvars: int) -> RingElem:
    c = RingElem.const(rng.randrange(-3, 4) or 1, nvars)
    return c * RingElem.q_power(rng.randrange(-1, 2), nvars)


def _random_hecke(
    alg: HeckeAlgebra, rng: random.Random, keys: Sequence, nterms: int = 3
) -> HeckeElement:
    chosen = rng.sample(list(keys), k=min(nterms, len(keys)))
    return alg.elem({key: _random_coeff(rng, alg.nvars) for key in chosen})


def _random_affine(alg: AffineAlgebra, rng: random.Random, nterms: int = 3):
    terms = []
    # per term, in the order the report digests pin: exps, word, coefficient
    for _ in range(nterms):
        exps = tuple(rng.randrange(0, 3) for _ in range(alg.r))
        w_word = [rng.randrange(1, alg.r) for _ in range(2)] if alg.r > 1 else []
        elem = alg.x_monomial(exps)
        for i in w_word:
            elem = elem * alg.gen_T(i)
        terms.append((elem, _random_coeff(rng, alg.nvars)))
    return alg.combination(terms)


def _x_degree(x) -> int:
    """The largest total X-degree |a| of a monomial T_w X^a of x."""
    return max((sum(map(abs, a)) for _, a in x.terms), default=0)


# -- checks ----------------------------------------------------------------


def _pbw_count(p: SuiteParams, run: _Run):
    got = len(list(run.hecke.pbw_basis(p.guard)))
    want = (p.m**p.r) * math.factorial(p.r)
    return got == want, {"count": got, "expected": want}


def _pbw_quadratic(p: SuiteParams, run: _Run):
    alg = run.hecke
    for i in range(1, p.r):
        t = alg.gen_T(i)
        if (t - alg.scalar(alg.q)) * (t + alg.one()) != alg.zero():
            return False, {"i": i}
    return True, {"generators": p.r - 1}


def _pbw_braid(p: SuiteParams, run: _Run):
    alg = run.hecke
    for i in range(1, p.r - 1):
        a, b = alg.gen_T(i), alg.gen_T(i + 1)
        if a * b * a != b * a * b:
            return False, {"i": i}
    for i in range(1, p.r):
        for j in range(i + 2, p.r):
            a, b = alg.gen_T(i), alg.gen_T(j)
            if a * b != b * a:
                return False, {"i": i, "j": j}
    return True, {}


def _pbw_cyclotomic(p: SuiteParams, run: _Run):
    alg = run.hecke
    prod = alg.one()
    for t in range(p.m):
        prod = prod * (alg.gen_L(1) - alg.scalar(alg.u_params[t]))
    return prod.is_zero(), {"degree": p.m}


def _law(check_id: str, arity: int, holds: Callable[..., bool]):
    """The row of a check that ``holds`` on random elements, --trials times
    (at least 3)."""

    def trials_hold(p: SuiteParams, run: _Run):
        ks = list(run.hecke.pbw_basis(p.guard))
        trials = _trials(p, 3, len(ks), f"normal-form monomials of {check_id}")
        for t in range(trials):
            if not holds(*(_random_hecke(run.hecke, run.rng, ks) for _ in range(arity))):
                return False, {"trial": t}
        return True, {"trials": trials}

    return check_id, ("m", "r"), trials_hold


def _straighten_closed_form(p: SuiteParams, run: _Run):
    alg = run.hecke
    keys = list(alg.pbw_basis(p.guard))
    sample = keys if len(keys) <= 60 else run.rng.sample(keys, k=60)
    for key in sample:
        x = alg.elem({key: alg.one_c})
        for i in range(1, p.r):
            if x.lmul_gen_T(i) != alg.gen_T(i) * x:
                return False, {"key": repr(key), "i": i}
    return True, {"keys": len(sample)}


def _straighten_exchange(p: SuiteParams, run: _Run):
    alg = run.hecke
    alg.check_dim(p.guard)
    for i in range(1, p.r):
        lhs = alg.gen_T(i) * alg.gen_L(i) * alg.gen_T(i)
        if lhs != alg.gen_L(i + 1).scale(alg.q):
            return False, {"i": i, "case": "TLT"}
        for j in range(1, p.r + 1):
            if j in (i, i + 1):
                continue
            if alg.gen_L(j) * alg.gen_T(i) != alg.gen_T(i) * alg.gen_L(j):
                return False, {"i": i, "j": j, "case": "commute"}
    return True, {}


def _straighten_jm_commute(p: SuiteParams, run: _Run):
    alg, rng = run.hecke, run.rng
    alg.check_dim(p.guard)
    trials = _trials(p, 3, alg.dim(), "normal-form monomials of the JM products")
    for t in range(trials):
        a = tuple(rng.randrange(0, p.m + 1) for _ in range(p.r))
        b = tuple(rng.randrange(0, p.m + 1) for _ in range(p.r))
        x, y = alg.jm_monomial(a), alg.jm_monomial(b)
        if x * y != y * x:
            return False, {"a": a, "b": b}
    return True, {"trials": trials}


def _basis_count(p: SuiteParams, run: _Run):
    ctx = run.schur()
    got = len(ctx.basis())
    return got == ctx.rank(), {"count": got, "closed_form": ctx.rank()}


def _basis_eigen(p: SuiteParams, run: _Run):
    ctx = run.schur()
    for lam in ctx.weights():
        for mu in ctx.weights():
            if not eigen_certificate(ctx, lam, mu):
                return False, {"lam": lam, "mu": mu}
    return True, {"blocks": len(ctx.weights()) ** 2}


def _basis_hom_dims(p: SuiteParams, run: _Run):
    rep = verify_hom_space_dims(run.schur(), seed=p.seed, guard=p.guard)
    return rep["ok"], {"blocks": len(rep["blocks"])}


def _rank_blocks(p: SuiteParams, run: _Run):
    ctx = run.schur()
    if p.exact:
        # Bareiss on a block of k rows and C = dim x_lam H columns: k C min(k, C).
        sizes = Counter((colored_row_sums(A), colored_col_sums(A)) for A in ctx.basis())
        cost = sum(k * (c := module_dimension(ctx, lam)) * min(k, c)
                   for (lam, _), k in sizes.items())
        check_guard(cost, p.guard, "exact elimination of the rank blocks")
    else:
        _trials(p, 1, len(ctx.weights()) ** 2, "modular ranks of the blocks")
    rep = verify_rank(ctx, trials=p.trials, seed=p.seed, exact=p.exact)
    return rep["ok"], {"expected": rep["expected"], "certified": rep["certified"]}


def _commutative_pairs(p: SuiteParams, run: _Run):
    ctx = run.schur(1)
    check_guard(len(ctx.basis()) ** 2, p.guard, "ordered pairs of the commutativity check")
    rep = verify_commutative(ctx)
    return rep["ok"], {"size": rep["size"]}


def _schur_mult_unit(p: SuiteParams, run: _Run):
    ctx = run.schur()
    one = identity_element(ctx)
    basis = ctx.basis()
    sample = basis if len(basis) <= 40 else run.rng.sample(basis, k=40)
    check_guard(2 * len(sample), p.guard, "basis products of the unit check")
    for A in sample:
        phi = basis_element(ctx, A)
        if one * phi != phi or phi * one != phi:
            return False, {"A": A}
    return True, {"sampled": len(sample)}


def _schur_mult_reconstruct(p: SuiteParams, run: _Run):
    ctx = run.schur()
    basis = ctx.basis()
    by_ro = group_by_row_sums(basis)
    pairs = [
        (A, basis[j]) for A in basis for j in by_ro.get(colored_col_sums(A), ())
    ]
    sample = pairs if len(pairs) <= 30 else run.rng.sample(pairs, k=30)
    check_guard(len(sample), p.guard, "basis products of the reconstruction check")
    for A, B in sample:
        prod = ctx.b_element(A) * ctx.tail(B)
        coeffs = multiply_basis(ctx, A, B)
        if ctx.hecke.combination((ctx.b_element(C), c) for C, c in coeffs.items()) != prod:
            return False, {"A": A, "B": B}
    return True, {"sampled": len(sample)}


def _schur_mult_assoc(p: SuiteParams, run: _Run):
    ctx, rng = run.schur(), run.rng
    basis = ctx.basis()
    by_ro = group_by_row_sums(basis)
    # per triple: 2 (1 + |basis|) basis products
    trials = _trials(p, 5, 2 * (1 + len(basis)), "basis products of the associativity check")
    # every draw composes: the basis holds the diagonal matrix of each weight
    for _ in range(trials):
        A = rng.choice(basis)
        B = basis[rng.choice(by_ro[colored_col_sums(A)])]
        C = basis[rng.choice(by_ro[colored_col_sums(B)])]
        fa, fb, fc = (basis_element(ctx, M) for M in (A, B, C))
        if (fa * fb) * fc != fa * (fb * fc):
            return False, {"A": A, "B": B, "C": C}
    return True, {"triples": trials}


def _typeb_coset_basis(p: SuiteParams, run: _Run):
    rep = verify_single_row_coset_basis(p.r, guard=p.guard)
    return rep["ok"], {"cases": len(rep["cases"])}


def _typeb_shifted(p: SuiteParams, run: _Run):
    check_guard(2**p.r * math.factorial(p.r), p.guard, f"signed permutations of rank {p.r}")
    checked = 0
    for total in range(2, min(p.r, 4) + 1):
        for b in range(1, total + 1):
            rep = verify_shifted_coset_identity(total - b, b, p.r)
            if not rep["ok"]:
                return False, rep
            checked += len(rep["cases"])
    return True, {"cases": checked}


def _typeb_example(p: SuiteParams, run: _Run):
    rep = verify_worked_example()
    return rep["ok"], rep["checks"]


def _typeb_routes(p: SuiteParams, run: _Run):
    count = colored_count(p.n, p.r, 2)
    check_guard(count, p.guard, "two-color route comparison")
    sample = None if count <= 150 else 60
    rep = verify_route_agreement(p.n, p.r, sample=sample, seed=p.seed)
    return rep["ok"], {"checked": rep["checked"]}


def _typeb_group_algebra(p: SuiteParams, run: _Run):
    check_guard(colored_count(p.n, p.r, 2), p.guard, "group algebra degeneration")
    rep = verify_group_algebra_basis(p.n, p.r)
    return rep["ok"], {"checked": rep["checked"]}


def _poincare_length_sum(p: SuiteParams, run: _Run):
    comps = list(compositions(p.r, min(p.r, 3)))
    for lam in comps:
        check_guard(young_subgroup_size(lam), p.guard, f"Young subgroup of {lam}")
    for lam in comps:
        total = RingElem.zero(0)
        for w in young_subgroup(lam):
            total = total + RingElem.q_power(w.length(), 0)
        if total != poincare_polynomial(lam, 0):
            return False, {"lam": lam}
    return True, {"compositions": len(comps)}


def _poincare_morita(p: SuiteParams, run: _Run):
    ctx = run.schur(p.r)
    omega = (1,) * p.r
    checked = 0
    for lam in ctx.weights():
        left = phi_pair(ctx, lam, omega) * phi_pair(ctx, omega, lam)
        scaled = phi_pair(ctx, lam, lam).scale(poincare_polynomial(lam, ctx.m))
        if left != scaled:
            return False, {"lam": lam}
        checked += 1
    return True, {"weights": checked}


def _epsilon_multiplicative(p: SuiteParams, run: _Run):
    target = run.hecke
    target.check_dim(p.guard)
    trials = _trials(p, 5, target.dim(), "normal-form monomials of the multiplicativity trials")
    for t in range(trials):
        x = _random_affine(run.affine, run.rng)
        y = _random_affine(run.affine, run.rng)
        # The longest L-word the trial straightens, in epsilon_u(x * y), has
        # deg x + deg y letters, each acting on up to target.dim() monomials.
        work = (_x_degree(x) + _x_degree(y)) * target.dim()
        check_guard(work, p.guard, f"straightening of multiplicativity trial {t}")
        ex, ey = epsilon_u(x, target), epsilon_u(y, target)
        check_guard(len(ex._terms) * len(ey._terms), p.guard, f"product of images in trial {t}")
        if epsilon_u(x * y, target) != ex * ey:
            return False, {"trial": t}
    return True, {"trials": trials}


def _epsilon_basis_map(p: SuiteParams, run: _Run):
    run.hecke.check_dim(p.guard)
    ctx = run.schur()
    basis = ctx.basis()
    sample = basis if len(basis) <= 150 else run.rng.sample(basis, k=60)
    for A in sample:
        lifted = b_element_of(run.affine, A)
        if epsilon_u(lifted, ctx.hecke) != ctx.b_element(A):
            return False, {"A": A}
    return True, {"checked": len(sample)}


def _affine_sym_symmetrizer(p: SuiteParams, run: _Run):
    # Its own algebra, without the u parameters (nvars = 0).
    alg = AffineAlgebra(p.r)
    x_full = alg.x_lambda((p.r,), p.guard)
    checked = 0
    for exps in itertools.product(range(2), repeat=p.r):
        if sum(exps) > 2:
            continue
        z = x_full * sigma_nu(alg, (p.r,), [exps])
        if not coefficient_symmetry_check(z):
            return False, {"exps": exps}
        checked += 1
    return True, {"elements": checked}


# -- the table -------------------------------------------------------------

_MR, _MNR, _RN = ("m", "r"), ("m", "n", "r"), ("r", "n")

# (check id, the SuiteParams fields in its report, function), in run order.
CHECKS: tuple[tuple[str, tuple[str, ...], Check], ...] = (
    ("pbw.count", _MR, _pbw_count),
    ("pbw.quadratic", _MR, _pbw_quadratic),
    ("pbw.braid", _MR, _pbw_braid),
    ("pbw.cyclotomic", _MR, _pbw_cyclotomic),
    _law("pbw.roundtrip", 1, lambda x: from_left_form(to_left_form(x)) == x),
    _law("pbw.assoc", 3, lambda x, y, z: (x * y) * z == x * (y * z)),
    _law("pbw.tau-anti", 2, lambda x, y: tau(x * y) == tau(y) * tau(x)),
    ("straighten.closed-form", _MR, _straighten_closed_form),
    ("straighten.exchange", _MR, _straighten_exchange),
    ("straighten.jm-commute", _MR, _straighten_jm_commute),
    ("basis.count", _MNR, _basis_count),
    ("basis.eigen", _MNR, _basis_eigen),
    ("basis.hom-dims", _MNR, _basis_hom_dims),
    ("rank.blocks", ("m", "n", "r", "trials", "exact"), _rank_blocks),
    ("commutative.pairs", _MR, _commutative_pairs),
    ("schur-mult.unit", _MNR, _schur_mult_unit),
    ("schur-mult.reconstruct", _MNR, _schur_mult_reconstruct),
    ("schur-mult.assoc", _MNR, _schur_mult_assoc),
    ("typeb.coset-basis", _RN, _typeb_coset_basis),
    ("typeb.shifted", _RN, _typeb_shifted),
    ("typeb.example", _RN, _typeb_example),
    ("typeb.routes", _RN, _typeb_routes),
    ("typeb.group-algebra", _RN, _typeb_group_algebra),
    ("poincare.length-sum", _MR, _poincare_length_sum),
    ("poincare.morita", _MR, _poincare_morita),
    ("epsilon.multiplicative", _MR, _epsilon_multiplicative),
    ("epsilon.basis-map", ("m", "r", "n"), _epsilon_basis_map),
    ("affine-sym.symmetrizer", ("r",), _affine_sym_symmetrizer),
)


def _suite_of(check_id: str) -> str:
    return check_id.partition(".")[0]


SUITE_NAMES = tuple(dict.fromkeys(_suite_of(check_id) for check_id, _, _ in CHECKS))


def _run_check(
    p: SuiteParams, run: _Run, check_id: str, fields: tuple[str, ...], fn: Check
) -> dict:
    start = time.perf_counter()
    try:
        ok, witness = fn(p, run)
        status = "pass" if ok else "fail"
    except GuardError as exc:
        status, witness = "skipped(guard)", str(exc)
    return {
        "check": check_id,
        "params": {field: getattr(p, field) for field in fields},
        "status": status,  # "pass" | "fail" | "skipped(guard)"
        "witness": witness,
        "seconds": round(time.perf_counter() - start, 4),
    }


def run_suite(name: str, params: SuiteParams) -> dict:
    """Execute one named suite (or 'all') and assemble a stable report."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    start = time.perf_counter()
    checks: list[dict] = []
    contexts: dict[tuple[int, int, int], SchurContext] = {}
    for suite in SUITE_NAMES if name == "all" else (name,):
        run = _Run(params, contexts)  # the suite's own stream and algebras
        checks.extend(
            _run_check(params, run, *row) for row in CHECKS if _suite_of(row[0]) == suite
        )
    checks.sort(key=lambda c: c["check"])
    status = "pass" if all(c["status"] != "fail" for c in checks) else "fail"
    return {
        "suite": name,
        "params": params.to_dict(),
        "status": status,
        "checks": checks,
        "seconds": round(time.perf_counter() - start, 4),
    }


def exit_code_for(report: dict) -> int:
    return 0 if report["status"] == "pass" else 1
