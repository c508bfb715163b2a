"""The kernel work of a product, counted against the per-key baseline.

``hecke._sum_of_products`` walks an exponent a once for all the keys of
the right factor that share it, when their T-prefixes overlap; the
baseline ``walk_oracle.sum_of_products`` walks every key on its own.  Both
straighten through the same step tables, so wrapping ``hecke.add_products``
and counting the items it is handed measures what the grouping saves: on
products eps(x) * eps(y) in H(2, 3), whose right factors are dense in w at
few exponents, and on every b_A = x_lam * tail(A) at (2, 2, 2), where it
must cost nothing.  The counts are deterministic: fresh interpreters with
different hash seeds agree.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import walk_oracle

from cycloschur import hecke
from cycloschur.affine import AffineAlgebra, epsilon_u
from cycloschur.hecke import HeckeAlgebra, _sum_of_products
from cycloschur.permutations import all_perms
from cycloschur.ring import RingElem
from cycloschur.schur import SchurContext, tail_of
from cycloschur.wreath import colored_row_sums


def kernel_items(product, pairs) -> int:
    """The items ``hecke.add_products`` is handed by product(pairs), once
    the step tables hold every column product needs."""
    count = 0
    kernel = hecke.add_products

    def counted(acc, items, c2):
        nonlocal count
        items = list(items)
        count += len(items)
        kernel(acc, items, c2)

    product(pairs)
    hecke.add_products = counted
    try:
        product(pairs)
    finally:
        hecke.add_products = kernel
    return count


def epsilon_pairs(seed: int = 30, size: int = 30) -> list:
    """(eps(x), terms of eps(y)) for a seeded design of affine monomials
    c T_w X^a, c T_v X^b in (m, r) = (2, 3), exponents 0..2."""
    rng = random.Random(seed)
    target, aff = HeckeAlgebra(2, 3), AffineAlgebra(3, nvars=2)
    perms, vectors = list(all_perms(3)), list(itertools.product(range(3), repeat=3))

    def monomial():
        mon = (rng.randrange(-1, 2), (rng.randrange(2), rng.randrange(2)))
        c = RingElem(2, {mon: rng.choice((-3, -2, -1, 1, 2, 3))})
        return epsilon_u(aff.elem({(rng.choice(perms), rng.choice(vectors)): c}), target)

    return [(x, y._terms) for x, y in ((monomial(), monomial()) for _ in range(size))]


def b_pairs() -> list:
    """(x_lam, terms of tail(A)) for every A of S(2; 2, 2)."""
    ctx = SchurContext(2, 2, 2)
    alg = ctx.hecke
    return [(alg.x_lambda(colored_row_sums(A)), tail_of(alg, A)._terms) for A in ctx.basis()]


def counts() -> dict:
    """{design: (baseline items, items)}; the baseline runs first."""
    out = {"epsilon": [], "b_A": []}
    for name, pairs in (("epsilon", [epsilon_pairs()]), ("b_A", [[p] for p in b_pairs()])):
        for group in pairs:
            out[name].append(tuple(kernel_items(f, group) for f in
                                   (walk_oracle.sum_of_products, _sum_of_products)))
    return out


def test_products_equal_the_baseline():
    for pairs in (epsilon_pairs(size=10), b_pairs()):
        for x, y in pairs:
            assert _sum_of_products([(x, y)]) == walk_oracle.sum_of_products([(x, y)])


def test_grouping_saves_a_fifth_on_epsilon_products():
    ((baseline, items),) = counts()["epsilon"]
    assert items <= 0.8 * baseline, (items, baseline)


def test_grouping_costs_nothing_on_b_elements():
    for baseline, items in counts()["b_A"]:
        assert items <= baseline, (items, baseline)


def test_counts_do_not_depend_on_the_hash_seed():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    script = "import test_work_counts as t; print(t.counts())"
    outputs = {
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)).stdout
        for seed in ("1", "2024")
    }
    assert len(outputs) == 1 and "epsilon" in outputs.pop()
