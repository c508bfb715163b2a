"""The one sum of elements: ``LinearCombination._sum`` and ``combination``.

``_sum`` adds c * x over (element, private coefficient) pairs into one
kernel dict, and ``AlgebraBase.combination`` lifts public coefficients into
it.  The oracle adds each term into a dict of its own by
``RingElem.__add__`` (as ``elimination_oracle._add`` does), a keyed sum
that shares no accumulation code with the kernel.
"""

from __future__ import annotations

import random

import pytest

from cycloschur.affine import AffineAlgebra
from cycloschur.hecke import HeckeAlgebra, HeckeElement
from cycloschur.ring import RingElem, RingError
from cycloschur.schur import SchurContext, SchurElement
from cycloschur.typeb import typeb_algebra


def oracle_sum(pairs, terms_of) -> dict:
    """The terms of the sum of c * x over the pairs, read by terms_of(x)."""
    out: dict = {}
    for x, c in pairs:
        for key, coeff in terms_of(x).items():
            total = out.pop(key, None)
            total = coeff * c if total is None else total + coeff * c
            if not total.is_zero():
                out[key] = total
    return out


def random_coeff(rng: random.Random, nvars: int) -> RingElem:
    c = RingElem.const(rng.randrange(-3, 4) or 1, nvars)
    c = c * RingElem.q_power(rng.randrange(-2, 3), nvars)
    if nvars and rng.random() < 0.5:
        c = c + RingElem.u_var(rng.randrange(1, nvars + 1), nvars)
    return c


def random_element(alg, rng: random.Random, keys: list, nterms: int = 5):
    return alg.elem({key: random_coeff(rng, alg.nvars) for key in rng.sample(keys, nterms)})


ALGEBRAS = {
    "generic H(2,3)": lambda: HeckeAlgebra(2, 3),
    "typeb(3)": lambda: typeb_algebra(3),
    "specialised H(2,2)": lambda: HeckeAlgebra(2, 2, nvars=1, u_params=(
        RingElem.const(1, 1), RingElem.u_var(1, 1))),
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_combination_matches_the_oracle(name):
    alg = ALGEBRAS[name]()
    rng = random.Random(29)
    keys = list(alg.pbw_basis())
    for _ in range(20):
        pairs = [(random_element(alg, rng, keys), random_coeff(rng, alg.nvars))
                 for _ in range(rng.randrange(1, 5))]
        got = alg.combination(pairs)
        assert type(got) is HeckeElement and got.alg is alg
        assert got.terms == oracle_sum(pairs, lambda x: x.terms)
        # on private coefficients, _sum is the same sum before expansion
        lifted = [(x, alg._lift(c)) for x, c in pairs]
        assert HeckeElement._sum(alg, lifted)._terms == oracle_sum(lifted, lambda x: x._terms)


def test_a_sum_that_cancels_is_zero():
    alg = HeckeAlgebra(2, 3)
    rng = random.Random(3)
    keys = list(alg.pbw_basis())
    x, y = random_element(alg, rng, keys), random_element(alg, rng, keys)
    c = alg.q + RingElem.u_var(1, 2)
    total = alg.combination([(x, c), (y, alg.one_c), (x, -c), (y, -alg.one_c)])
    assert total._terms == {} and total.is_zero()
    # a partial cancellation keeps only what is left
    assert alg.combination([(x, c), (y, alg.one_c), (x, -c)]) == y


def test_empty_and_mixed_sums():
    alg = AffineAlgebra(2, nvars=1)
    assert alg.combination([]) == alg.zero()
    assert alg.combination(iter(())).is_zero()
    x = alg.x_monomial((1, -1)) * alg.gen_T(1)
    got = alg.combination([(x, alg.q), (alg.one(), RingElem.u_var(1, 1))])
    assert got == x.scale(alg.q) + alg.scalar(RingElem.u_var(1, 1))
    ctx = SchurContext(1, 2, 2)
    s = SchurElement(ctx, {A: RingElem.one(1) for A in ctx.basis()})
    assert SchurElement._sum(ctx, []) == SchurElement(ctx, {})
    assert (s + s).terms == oracle_sum([(s, RingElem.one(1))] * 2, lambda x: x.terms)


def test_wrong_algebra_and_width_are_rejected():
    alg = HeckeAlgebra(2, 3)
    x = alg.gen_T(1)
    with pytest.raises(ValueError):
        alg.combination([(x, alg.one_c), (HeckeAlgebra(2, 2).gen_T(1), alg.one_c)])
    with pytest.raises(ValueError):
        alg.combination([(typeb_algebra(3).gen_T(1), alg.one_c)])
    with pytest.raises(ValueError):
        x + HeckeAlgebra(3, 3).one()
    with pytest.raises(RingError):
        alg.combination([(x, RingElem.one(1))])
    with pytest.raises(RingError):
        x.scale(RingElem.one(3))
