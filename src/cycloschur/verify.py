"""Named verification suites with timed, order-stable reports.

Each suite is a list of independent checks over a small parameter grid;
a check returns a boolean plus a witness (counts, offending inputs, or
sub-reports).  Guard violations surface as status "skipped(guard)" so a
too-large request degrades into an explicit skip instead of an open-ended
computation.  Reports are deterministic for a fixed seed: entries are
sorted by check id and the wall-clock field is informational only.

The checks of one ``run_suite`` call share its Schur contexts, one per
(m, n, r), reached only through ``_schur``: the first check on a grid
builds the context and the later ones reuse its basis, b_A and memos.
``run_suite`` creates that dict and passes it to each suite, so no
context outlives one report.  ``_schur`` checks the guard against the
basis size on every call, cached or not.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass
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
    lam: tuple[int, ...] | None = None
    mu: tuple[int, ...] | None = None
    seed: int = 0
    trials: int = 3
    guard: int | None = None
    exact: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CheckOutcome:
    check: str
    params: dict
    status: str  # "pass" | "fail" | "skipped(guard)"
    witness: object
    seconds: float

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "seconds": round(self.seconds, 4),
        }


def _run_check(
    check_id: str, params: dict, fn: Callable[[], tuple[bool, object]]
) -> CheckOutcome:
    start = time.perf_counter()
    try:
        ok, witness = fn()
        status = "pass" if ok else "fail"
    except GuardError as exc:
        status, witness = "skipped(guard)", str(exc)
    return CheckOutcome(check_id, params, status, witness, time.perf_counter() - start)


# The Schur contexts of one run_suite call, by (m, n, r).
Contexts = dict[tuple[int, int, int], SchurContext]


def _schur(p: SuiteParams, contexts: Contexts, n: int | None = None) -> SchurContext:
    """The run's Schur context for (m, n, r), once its basis size has passed
    the guard; built on first use."""
    key = (p.m, p.n if n is None else n, p.r)
    ctx = contexts.get(key)
    if ctx is None:
        ctx = contexts[key] = SchurContext(*key)
    ctx.basis(p.guard)
    return ctx


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
    out = alg.zero()
    for _ in range(nterms):
        exps = tuple(rng.randrange(0, 3) for _ in range(alg.r))
        w_word = [rng.randrange(1, alg.r) for _ in range(2)] if alg.r > 1 else []
        elem = alg.x_monomial(exps)
        for i in w_word:
            elem = elem * alg.gen_T(i)
        out = out + elem.scale(_random_coeff(rng, alg.nvars))
    return out


def _x_degree(x) -> int:
    """The largest total X-degree |a| of a monomial T_w X^a of x."""
    return max((sum(map(abs, a)) for _, a in x.terms), default=0)


# -- suites ----------------------------------------------------------------


def suite_pbw(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    base = {"m": p.m, "r": p.r}
    out: list[CheckOutcome] = []
    alg = HeckeAlgebra(p.m, p.r)
    rng = random.Random(p.seed)

    def keys():
        return list(alg.pbw_basis(p.guard))

    def count():
        got = len(keys())
        want = (p.m**p.r) * math.factorial(p.r)
        return got == want, {"count": got, "expected": want}

    out.append(_run_check("pbw.count", base, count))

    def quadratic():
        q, one = alg.q, alg.one_c
        for i in range(1, p.r):
            t = alg.gen_T(i)
            if (t - alg.scalar(q)) * (t + alg.one()) != alg.zero():
                return False, {"i": i}
        return True, {"generators": p.r - 1}

    out.append(_run_check("pbw.quadratic", base, quadratic))

    def braid():
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

    out.append(_run_check("pbw.braid", base, braid))

    def cyclotomic():
        prod = alg.one()
        for t in range(p.m):
            prod = prod * (alg.gen_L(1) - alg.scalar(alg.u_params[t]))
        return prod.is_zero(), {"degree": p.m}

    out.append(_run_check("pbw.cyclotomic", base, cyclotomic))

    def law(check_id: str, arity: int, holds: Callable[..., bool]) -> None:
        """A check that ``holds`` on random elements, --trials times (at least 3)."""

        def trials_hold():
            ks = keys()
            trials = _trials(p, 3, len(ks), f"normal-form monomials of {check_id}")
            for t in range(trials):
                if not holds(*(_random_hecke(alg, rng, ks) for _ in range(arity))):
                    return False, {"trial": t}
            return True, {"trials": trials}

        out.append(_run_check(check_id, base, trials_hold))

    law("pbw.roundtrip", 1, lambda x: from_left_form(to_left_form(x)) == x)
    law("pbw.assoc", 3, lambda x, y, z: (x * y) * z == x * (y * z))
    law("pbw.tau-anti", 2, lambda x, y: tau(x * y) == tau(y) * tau(x))
    return out


def suite_straighten(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    base = {"m": p.m, "r": p.r}
    out: list[CheckOutcome] = []
    alg = HeckeAlgebra(p.m, p.r)
    rng = random.Random(p.seed)

    def closed_form():
        keys = list(alg.pbw_basis(p.guard))
        sample = keys if len(keys) <= 60 else rng.sample(keys, k=60)
        for key in sample:
            x = alg.elem({key: alg.one_c})
            for i in range(1, p.r):
                if x.lmul_gen_T(i) != alg.gen_T(i) * x:
                    return False, {"key": repr(key), "i": i}
        return True, {"keys": len(sample)}

    out.append(_run_check("straighten.closed-form", base, closed_form))

    def exchange():
        alg.check_dim(p.guard)
        q = alg.q
        for i in range(1, p.r):
            lhs = alg.gen_T(i) * alg.gen_L(i) * alg.gen_T(i)
            if lhs != alg.gen_L(i + 1).scale(q):
                return False, {"i": i, "case": "TLT"}
            for j in range(1, p.r + 1):
                if j in (i, i + 1):
                    continue
                if alg.gen_L(j) * alg.gen_T(i) != alg.gen_T(i) * alg.gen_L(j):
                    return False, {"i": i, "j": j, "case": "commute"}
        return True, {}

    out.append(_run_check("straighten.exchange", base, exchange))

    def jm_commute():
        alg.check_dim(p.guard)
        trials = _trials(p, 3, alg.dim(), "normal-form monomials of the JM products")
        for t in range(trials):
            a = tuple(rng.randrange(0, p.m + 1) for _ in range(p.r))
            b = tuple(rng.randrange(0, p.m + 1) for _ in range(p.r))
            x, y = alg.jm_monomial(a), alg.jm_monomial(b)
            if x * y != y * x:
                return False, {"a": a, "b": b}
        return True, {"trials": trials}

    out.append(_run_check("straighten.jm-commute", base, jm_commute))
    return out


def suite_basis(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    base = {"m": p.m, "n": p.n, "r": p.r}
    out: list[CheckOutcome] = []

    def counted():
        ctx = _schur(p, contexts)
        got = len(ctx.basis())
        return got == ctx.rank(), {"count": got, "closed_form": ctx.rank()}

    out.append(_run_check("basis.count", base, counted))

    def eigen():
        ctx = _schur(p, contexts)
        from .schur import eigen_certificate

        for lam in ctx.weights():
            for mu in ctx.weights():
                if not eigen_certificate(ctx, lam, mu):
                    return False, {"lam": lam, "mu": mu}
        return True, {"blocks": len(ctx.weights()) ** 2}

    out.append(_run_check("basis.eigen", base, eigen))

    def dims():
        ctx = _schur(p, contexts)
        rep = verify_hom_space_dims(ctx, seed=p.seed, guard=p.guard)
        return rep["ok"], {"blocks": len(rep["blocks"])}

    out.append(_run_check("basis.hom-dims", base, dims))
    return out


def suite_rank(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    base = {"m": p.m, "n": p.n, "r": p.r, "trials": p.trials, "exact": p.exact}

    def ranked():
        ctx = _schur(p, contexts)
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

    return [_run_check("rank.blocks", base, ranked)]


def suite_commutative(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    base = {"m": p.m, "r": p.r}

    def commuting():
        ctx = _schur(p, contexts, 1)
        check_guard(len(ctx.basis()) ** 2, p.guard, "ordered pairs of the commutativity check")
        rep = verify_commutative(ctx)
        return rep["ok"], {"size": rep["size"]}

    return [_run_check("commutative.pairs", base, commuting)]


def suite_schur_mult(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    base = {"m": p.m, "n": p.n, "r": p.r}
    out: list[CheckOutcome] = []
    rng = random.Random(p.seed)

    def unit():
        ctx = _schur(p, contexts)
        one = identity_element(ctx)
        basis = ctx.basis()
        sample = basis if len(basis) <= 40 else rng.sample(basis, k=40)
        check_guard(2 * len(sample), p.guard, "basis products of the unit check")
        for A in sample:
            phi = basis_element(ctx, A)
            if one * phi != phi or phi * one != phi:
                return False, {"A": A}
        return True, {"sampled": len(sample)}

    out.append(_run_check("schur-mult.unit", base, unit))

    def reconstruct():
        ctx = _schur(p, contexts)
        basis = ctx.basis()
        by_ro = group_by_row_sums(basis)
        pairs = [
            (A, basis[j]) for A in basis for j in by_ro.get(colored_col_sums(A), ())
        ]
        sample = pairs if len(pairs) <= 30 else rng.sample(pairs, k=30)
        check_guard(len(sample), p.guard, "basis products of the reconstruction check")
        for A, B in sample:
            prod = ctx.b_element(A) * ctx.tail(B)
            coeffs = multiply_basis(ctx, A, B)
            total = ctx.hecke.zero()
            for C, c in coeffs.items():
                total = total + ctx.b_element(C).scale(c)
            if total != prod:
                return False, {"A": A, "B": B}
        return True, {"sampled": len(sample)}

    out.append(_run_check("schur-mult.reconstruct", base, reconstruct))

    def assoc():
        ctx = _schur(p, contexts)
        basis = ctx.basis()
        by_ro = group_by_row_sums(basis)
        # per triple: 2 (1 + |basis|) basis products
        trials = _trials(p, 5, 2 * (1 + len(basis)), "basis products of the associativity check")
        done = 0
        for _ in range(200):
            if done >= trials:
                break
            A = rng.choice(basis)
            bs = by_ro.get(colored_col_sums(A))
            if not bs:
                continue
            B = basis[rng.choice(bs)]
            cs = by_ro.get(colored_col_sums(B))
            if not cs:
                continue
            C = basis[rng.choice(cs)]
            fa, fb, fc = (basis_element(ctx, M) for M in (A, B, C))
            if (fa * fb) * fc != fa * (fb * fc):
                return False, {"A": A, "B": B, "C": C}
            done += 1
        return True, {"triples": done}

    out.append(_run_check("schur-mult.assoc", base, assoc))
    return out


def suite_typeb(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    out: list[CheckOutcome] = []
    base = {"r": p.r, "n": p.n}

    def coset_basis():
        rep = verify_single_row_coset_basis(p.r, guard=p.guard)
        return rep["ok"], {"cases": len(rep["cases"])}

    out.append(_run_check("typeb.coset-basis", base, coset_basis))

    def shifted():
        check_guard(2**p.r * math.factorial(p.r), p.guard, f"signed permutations of rank {p.r}")
        checked = 0
        for total in range(2, min(p.r, 4) + 1):
            for b in range(1, total + 1):
                rep = verify_shifted_coset_identity(total - b, b, p.r)
                if not rep["ok"]:
                    return False, rep
                checked += len(rep["cases"])
        return True, {"cases": checked}

    out.append(_run_check("typeb.shifted", base, shifted))

    def example():
        rep = verify_worked_example()
        return rep["ok"], rep["checks"]

    out.append(_run_check("typeb.example", base, example))

    def routes():
        count = colored_count(p.n, p.r, 2)
        check_guard(count, p.guard, "two-color route comparison")
        sample = None if count <= 150 else 60
        rep = verify_route_agreement(p.n, p.r, sample=sample, seed=p.seed)
        return rep["ok"], {"checked": rep["checked"]}

    out.append(_run_check("typeb.routes", base, routes))

    def group_algebra():
        check_guard(colored_count(p.n, p.r, 2), p.guard, "group algebra degeneration")
        rep = verify_group_algebra_basis(p.n, p.r)
        return rep["ok"], {"checked": rep["checked"]}

    out.append(_run_check("typeb.group-algebra", base, group_algebra))
    return out


def suite_poincare(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    out: list[CheckOutcome] = []
    base = {"m": p.m, "r": p.r}

    def length_sum():
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

    out.append(_run_check("poincare.length-sum", base, length_sum))

    def morita():
        ctx = _schur(p, contexts, p.r)
        omega = (1,) * p.r
        checked = 0
        for lam in ctx.weights():
            left = phi_pair(ctx, lam, omega) * phi_pair(ctx, omega, lam)
            scaled = phi_pair(ctx, lam, lam).scale(
                poincare_polynomial(lam, ctx.m)
            )
            if left != scaled:
                return False, {"lam": lam}
            checked += 1
        return True, {"weights": checked}

    out.append(_run_check("poincare.morita", base, morita))
    return out


def suite_epsilon(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    out: list[CheckOutcome] = []
    base = {"m": p.m, "r": p.r}
    target = HeckeAlgebra(p.m, p.r)
    aff = AffineAlgebra(p.r, nvars=p.m)
    rng = random.Random(p.seed)

    def multiplicative():
        target.check_dim(p.guard)
        trials = _trials(p, 5, target.dim(), "normal-form monomials of the multiplicativity trials")
        for t in range(trials):
            x = _random_affine(aff, rng)
            y = _random_affine(aff, rng)
            # The longest L-word the trial straightens, in epsilon_u(x * y), has
            # deg x + deg y letters, each acting on up to target.dim() monomials.
            work = (_x_degree(x) + _x_degree(y)) * target.dim()
            check_guard(work, p.guard, f"straightening of multiplicativity trial {t}")
            if epsilon_u(x * y, target) != epsilon_u(x, target) * epsilon_u(y, target):
                return False, {"trial": t}
        return True, {"trials": trials}

    out.append(_run_check("epsilon.multiplicative", base, multiplicative))

    def basis_map():
        target.check_dim(p.guard)
        ctx = _schur(p, contexts)
        basis = ctx.basis()
        sample = basis if len(basis) <= 150 else rng.sample(basis, k=60)
        for A in sample:
            lifted = b_element_of(aff, A)
            if epsilon_u(lifted, ctx.hecke) != ctx.b_element(A):
                return False, {"A": A}
        return True, {"checked": len(sample)}

    out.append(_run_check("epsilon.basis-map", {**base, "n": p.n}, basis_map))
    return out


def suite_affine_sym(p: SuiteParams, contexts: Contexts) -> list[CheckOutcome]:
    base = {"r": p.r}

    def symmetrizer():
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

    return [_run_check("affine-sym.symmetrizer", base, symmetrizer)]


SUITES: dict[str, Callable[[SuiteParams, Contexts], list[CheckOutcome]]] = {
    "pbw": suite_pbw,
    "straighten": suite_straighten,
    "basis": suite_basis,
    "rank": suite_rank,
    "commutative": suite_commutative,
    "schur-mult": suite_schur_mult,
    "typeb": suite_typeb,
    "poincare": suite_poincare,
    "epsilon": suite_epsilon,
    "affine-sym": suite_affine_sym,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, params: SuiteParams) -> dict:
    """Execute one named suite (or 'all') and assemble a stable report."""
    if name == "all":
        suite_fns = list(SUITES.values())
    elif name in SUITES:
        suite_fns = [SUITES[name]]
    else:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    start = time.perf_counter()
    checks: list[CheckOutcome] = []
    contexts: Contexts = {}
    for fn in suite_fns:
        checks.extend(fn(params, contexts))
    checks.sort(key=lambda c: c.check)
    status = "pass" if all(c.status != "fail" for c in checks) else "fail"
    return {
        "suite": name,
        "params": params.to_dict(),
        "status": status,
        "checks": [c.to_dict() for c in checks],
        "seconds": round(time.perf_counter() - start, 4),
    }


def exit_code_for(report: dict) -> int:
    return 0 if report["status"] == "pass" else 1
