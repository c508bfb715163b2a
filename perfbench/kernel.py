"""Ring multiplication rates on real operands, measured apart from any workload.

The big operands are the coefficients of L^(2,2,2) * L^(2,2,1) in the
cyclotomic Hecke algebra at (m, r) = (3, 3) that have at least
BIG_TERMS terms (about 130 each).  The small operands are the ones
straightening multiplies by: q, q-1, 1-q and e_k(u).  A rate is term
pairs (len(a) * len(b) summed over the products) per second, the median
over REPEATS timed sweeps.
"""

from __future__ import annotations

import statistics
import time

from cycloschur.hecke import HeckeAlgebra
from cycloschur.ring import RingElem, elementary_symmetric_params

BIG_TERMS = 100
BIG_BIG_OPERANDS = 8
REPEATS = 5


def operands() -> tuple[list[RingElem], list[RingElem]]:
    alg = HeckeAlgebra(3, 3)
    z = alg.jm_monomial((2, 2, 2)) * alg.jm_monomial((2, 2, 1))
    big = sorted(
        (c for c in z.terms.values() if len(c.terms) >= BIG_TERMS),
        key=lambda c: (-len(c.terms), c.sorted_terms()),
    )
    n = alg.nvars
    one, q = RingElem.one(n), RingElem.q_power(1, n)
    small = [q, q - one, one - q] + [elementary_symmetric_params(k, 3) for k in (1, 2, 3)]
    return big, small


def _rate(pairs: list[tuple[RingElem, RingElem]]) -> float:
    work = sum(len(a.terms) * len(b.terms) for a, b in pairs)
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for a, b in pairs:
            a * b
        rates.append(work / (time.perf_counter() - t0))
    return statistics.median(rates)


def kernel_rates() -> dict[str, tuple[float, str]]:
    big, small = operands()
    top = big[:BIG_BIG_OPERANDS]
    return {
        "ring.kernel.big_small_pairs_per_s": (_rate([(a, s) for a in big for s in small]), "1/s"),
        "ring.kernel.big_big_pairs_per_s": (
            _rate([(a, b) for i, a in enumerate(top) for b in top[i:]]), "1/s"),
    }
