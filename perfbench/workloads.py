"""The benchmark's workloads: inputs from a seed, timed passes, result checks.

A workload object is built once per process; building it is the set-up
(context, inputs in their run order, references).  ``run_pass()`` runs
every op once, in the same order on every pass, and returns the op
times plus the raw outputs.  ``check_pass`` compares those outputs
with references outside the timed region.  ``round_trip`` and
``final_check`` run once after the passes.

The package is driven only through public names, looked up on their
modules at call time (``affine.epsilon_u``, ``schur.multiply_basis``, ...)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import tempfile
import time
from pathlib import Path

from cycloschur import affine, cache, cli, hecke, schur
from cycloschur.permutations import all_perms
from cycloschur.ring import RingElem
from cycloschur.verify import SUITE_NAMES
from cycloschur.wreath import colored_col_sums, colored_row_sums

REF_DIR = Path(__file__).resolve().parent / "refs"

# hecke-eps: (m, r) of the affine algebra and of the cyclotomic target.
EPS_M, EPS_R = 2, 3
# Size of the fixed (w, a, v, b) design run by every hecke-eps pass.
EPS_DESIGN_SIZE = 30

# schur-table: the slim Schur algebra S(3; 2, 2), 78 basis vectors.
TABLE_M, TABLE_N, TABLE_R = 3, 2, 2
# Products re-checked per run by the reconstruct identity.
RECONSTRUCT_SAMPLE = 8

# verify-all: the grid of `cyclo verify --suite all`.
VERIFY_GRID = ("--m", "3", "--n", "3", "--r", "2")
VERIFY_CHECKS = 28
# The `--seed` of every verify-all report: the command's default.
VERIFY_SEED = 0


class Pass:
    """What one pass hands back: each op's (start, end), its time (s), outputs."""

    def __init__(self, ops: list[tuple[float, float]], seconds: float, outputs):
        self.ops = ops
        self.seconds = seconds
        self.outputs = outputs


# Facts a workload reports for the traced run, with their units, zero where
# they do not apply: the cache entry's size and the verify report's own
# per-suite times.
FACTS = {"cache.payload_bytes": "B", **{f"verify.suite.{name}_s": "s" for name in SUITE_NAMES}}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Workload:
    """The steps after the passes, which only some workloads have."""

    def round_trip(self) -> tuple[int, list[str], dict[str, float]]:
        """Untimed but traced work: (checks made, errors, facts)."""
        return 0, [], {}

    def final_check(self) -> tuple[int, list[str]]:
        """Checks outside the timed and traced work: (checks made, errors)."""
        return 0, []

    def facts(self, p: Pass) -> dict[str, float]:
        """Facts of one pass, named as in FACTS."""
        return {}


# -- hecke-eps -----------------------------------------------------------------


def eps_design() -> list[tuple]:
    """The fixed list of monomial shapes (w, a, v, b) behind every pass.

    Drawn once, uniformly, from a fixed design seed.  Op cost is
    heavy-tailed in the exponents and permutations, so drawing the shapes
    from the run seed would make a pass's time depend on the seed more than
    on the code; the run seed instead draws coefficients and order.
    """
    rng = random.Random(0)
    perms = list(all_perms(EPS_R))
    vectors = list(itertools.product(range(3), repeat=EPS_R))
    return [
        (rng.choice(perms), rng.choice(vectors), rng.choice(perms), rng.choice(vectors))
        for _ in range(EPS_DESIGN_SIZE)
    ]


class HeckeEps(Workload):
    """ε(xy) = ε(x)ε(y) on pairs of affine monomials c·T_w X^a, (m, r) = (2, 3)."""

    name = "hecke-eps"

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(seed)

        def coeff() -> RingElem:
            mon = (rng.randrange(-1, 2), tuple(rng.randrange(2) for _ in range(EPS_M)))
            return RingElem(EPS_M, {mon: rng.choice((-3, -2, -1, 1, 2, 3))})

        self.target = hecke.HeckeAlgebra(EPS_M, EPS_R)
        aff = affine.AffineAlgebra(EPS_R, nvars=EPS_M)
        self.pairs = [
            (aff.elem({(w, a): coeff()}), aff.elem({(v, b): coeff()}))
            for w, a, v, b in eps_design()
        ]
        rng.shuffle(self.pairs)

    def run_pass(self, tracer=None) -> Pass:
        target = self.target
        ops, ok = [], []
        start = time.perf_counter()
        for i, (x, y) in enumerate(self.pairs):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                lhs = affine.epsilon_u(x * y, target)
                rhs = affine.epsilon_u(x, target) * affine.epsilon_u(y, target)
                ok.append(lhs == rhs)
            except Exception as exc:  # an exception is a failed op, not a crash
                ok.append(f"{type(exc).__name__}: {exc}")
            ops.append((t0, time.perf_counter()))
        return Pass(ops, time.perf_counter() - start, ok)

    def check_pass(self, p: Pass) -> tuple[int, list[str]]:
        return len(p.outputs), [
            f"op {i}: " + ("epsilon is not multiplicative" if r is False else r)
            for i, r in enumerate(p.outputs)
            if r is not True
        ]


# -- schur-table ---------------------------------------------------------------


def table_entries(coeffs: dict) -> list[dict]:
    """Structure constants in the `cyclo tables` payload format."""
    return [
        {"C": schur.matrix_to_json(C), "poly": c.to_json(), "text": str(c)}
        for C, c in sorted(coeffs.items())
    ]


def product_digest(coeffs: dict) -> str:
    """What the reference records of a product: a digest of its constants."""
    constants = canonical([
        {"C": schur.matrix_to_json(C), "poly": c.to_json()} for C, c in sorted(coeffs.items())
    ])
    return hashlib.sha256(constants.encode()).hexdigest()[:24]


class SchurTable(Workload):
    """Every composable product of S(3; 2, 2) in a seed-shuffled order."""

    name = "schur-table"
    params = {"m": TABLE_M, "n": TABLE_N, "r": TABLE_R}

    def __init__(self, seed: int, work_dir: Path):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.basis = schur.SchurContext(TABLE_M, TABLE_N, TABLE_R).basis()
        self.pairs = [
            (i, j)
            for i, A in enumerate(self.basis)
            for j, B in enumerate(self.basis)
            if colored_col_sums(A) == colored_row_sums(B)
        ]
        self.order = list(self.pairs)
        self.rng.shuffle(self.order)
        with open(REF_DIR / "schur_table.json", encoding="utf-8") as fh:
            ref = json.load(fh)
        # The reference names pairs by its own basis order, so a change of
        # enumeration order is not mistaken for a change of result.
        ref_index = {canonical(A): i for i, A in enumerate(ref["basis"])}
        to_ref = [ref_index.get(canonical(schur.matrix_to_json(A))) for A in self.basis]
        self.reference = {
            (i, j): ref["products"].get(f"{to_ref[i]},{to_ref[j]}") for i, j in self.pairs
        }
        self.reference_size = len(ref["products"])
        self.last_ctx = None
        self.last_results: dict = {}

    def run_pass(self, tracer=None) -> Pass:
        """The products, on a fresh context whose caches start cold."""
        self.last_ctx = self.last_results = None
        order = self.order
        basis = self.basis
        ops, results = [], {}
        start = time.perf_counter()
        ctx = schur.SchurContext(TABLE_M, TABLE_N, TABLE_R)
        for n, (i, j) in enumerate(order):
            if tracer is not None:
                tracer.op = n
            t0 = time.perf_counter()
            try:
                results[(i, j)] = schur.multiply_basis(ctx, basis[i], basis[j])
            except Exception as exc:  # recorded as a failed op
                results[(i, j)] = exc
            ops.append((t0, time.perf_counter()))
        seconds = time.perf_counter() - start
        self.last_ctx, self.last_results = ctx, results
        return Pass(ops, seconds, results)

    def check_pass(self, p: Pass) -> tuple[int, list[str]]:
        errors = []
        for i, j in self.pairs:
            coeffs = p.outputs[(i, j)]
            if not isinstance(coeffs, dict):
                errors.append(f"pair {i},{j}: {coeffs!r}")
            elif product_digest(coeffs) != self.reference[(i, j)]:
                errors.append(f"pair {i},{j}: structure constants differ from the reference")
        if self.reference_size != len(self.pairs):
            errors.append(f"reference has {self.reference_size} pairs, table {len(self.pairs)}")
        return len(self.pairs), errors

    def round_trip(self) -> tuple[int, list[str], dict[str, float]]:
        """The last table as `cyclo tables` caches it: cache.store, then cache.load."""
        products = [
            {"A": i, "B": j, "terms": table_entries(self.last_results[(i, j)])}
            for i, j in self.pairs
            if isinstance(self.last_results[(i, j)], dict)
        ]
        payload = {"basis": [schur.matrix_to_json(A) for A in self.basis], "products": products}
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))
        try:
            cache.store(cache_dir, "mult-table", self.params, payload)
            loaded = cache.load(cache_dir, "mult-table", self.params)
            size = sum(f.stat().st_size for f in cache_dir.iterdir())
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        errors = [] if loaded == payload else ["cache.load did not return the stored table"]
        return 1, errors, {"cache.payload_bytes": size}

    def final_check(self) -> tuple[int, list[str]]:
        """Σ_C c_C·b_C = b_A·tail(B) on a seeded sample, independent of the elimination."""
        ctx, results = self.last_ctx, self.last_results
        errors = []
        for i, j in self.rng.sample(self.pairs, RECONSTRUCT_SAMPLE):
            A, B = self.basis[i], self.basis[j]
            coeffs = results[(i, j)]
            if not isinstance(coeffs, dict):
                continue
            total = ctx.hecke.zero()
            for C, c in coeffs.items():
                total = total + ctx.b_element(C).scale(c)
            if total != ctx.b_element(A) * ctx.tail(B):
                errors.append(f"pair {i},{j}: reconstruct identity fails")
        return RECONSTRUCT_SAMPLE, errors


# -- verify-all ----------------------------------------------------------------


def verify_argv(verify_seed: int) -> list[str]:
    return ["verify", "--suite", "all", *VERIFY_GRID, "--seed", str(verify_seed),
            "--format", "json"]


def strip_seconds(report: dict) -> dict:
    out = {key: v for key, v in report.items() if key != "seconds"}
    out["checks"] = [
        {key: v for key, v in check.items() if key != "seconds"} for check in report["checks"]
    ]
    return out


class VerifyAll(Workload):
    """`cyclo verify --suite all` on (m, n, r) = (3, 3, 2) through cli.main.

    Every pass runs the same report, at the command's default `--seed` 0.
    The run seed does not change it: a report's cost depends on its
    `--seed` (the random elements several checks multiply) by up to 2x,
    which would bury a change of the code under the choice of seed.
    """

    name = "verify-all"

    def __init__(self, seed: int, work_dir: Path):
        with open(REF_DIR / "verify_all.json", encoding="utf-8") as fh:
            self.reference = json.load(fh)["reports"][str(VERIFY_SEED)]

    def run_pass(self, tracer=None) -> Pass:
        if tracer is not None:
            tracer.op = 0
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(verify_argv(VERIFY_SEED))
        except Exception as exc:  # recorded as a failed op
            code = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        return Pass([(start, end)], end - start, (code, out.getvalue()))

    @staticmethod
    def _report(p: Pass) -> dict | None:
        code, text = p.outputs
        try:
            return json.loads(text) if code == 0 else None
        except ValueError:
            return None

    def check_pass(self, p: Pass) -> tuple[int, list[str]]:
        """Exit 0, all checks pass, and the report equals the reference."""
        report = self._report(p)
        if report is None:
            return 1, [f"exit {p.outputs[0]}, or no JSON report"]
        statuses = [c["status"] for c in report["checks"]]
        if len(statuses) != VERIFY_CHECKS or set(statuses) != {"pass"}:
            return 1, [f"checks {statuses}"]
        if strip_seconds(report) != self.reference:
            return 1, ["report differs from the reference"]
        return 1, []

    def facts(self, p: Pass) -> dict[str, float]:
        """The report's own per-suite times."""
        report = self._report(p)
        out: dict[str, float] = {}
        for check in report["checks"] if report else []:
            key = f"verify.suite.{check['check'].split('.')[0]}_s"
            out[key] = out.get(key, 0.0) + check["seconds"]
        return out


WORKLOADS = {w.name: w for w in (HeckeEps, SchurTable, VerifyAll)}
