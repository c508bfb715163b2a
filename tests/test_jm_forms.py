"""The row of JM normal forms that a ``HeckeAlgebra`` keeps.

``HeckeAlgebra._jm_forms`` reads the normal form of L^a from one row per
algebra, ``_jm_row``, keyed (id, a) and filled by ``hecke._fill`` along
``AlgebraBase._path`` on request.  ``jm_monomial`` and ``epsilon_u`` read
it.  The oracle is the stack walk of ``tests/walk_oracle.py`` on an algebra
of its own.  Every answer must equal it, whatever order the exponent
vectors are asked for in; the row must hold exactly the nodes of the
requested paths; and no caller may reach the stored forms.
"""

from __future__ import annotations

import itertools
import random

import pytest
import walk_oracle as oracle

from cycloschur.affine import AffineAlgebra, epsilon_u
from cycloschur.hecke import HeckeAlgebra
from cycloschur.permutations import identity
from cycloschur.ring import RingElem

# (m, r); exponents run over 0..m + 1, so that every L_j overflows, twice
# where m = 1.
CASES = [(2, 3), (3, 2), (1, 4)]


def _exps(m: int, r: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(m + 2), repeat=r))


def _want(alg: HeckeAlgebra, exps) -> dict:
    """{a: private normal form of L^a}, by the oracle on an algebra like alg."""
    fresh = HeckeAlgebra(alg.m, alg.r, u_params=alg.u_params)
    root = (identity(fresh.r), (0,) * fresh.r)
    return dict(oracle.hecke_exponent_group(fresh, {root: fresh._one}, exps))


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "-".join(map(str, c)))
def case(request):
    """(m, r, exps, {a: the oracle's L^a})."""
    m, r = request.param
    exps = _exps(m, r)
    return m, r, exps, _want(HeckeAlgebra(m, r), exps)


def _all_at_once(alg, exps):
    return alg._jm_forms(exps)


def _shuffled(alg, exps):
    exps = list(exps)
    random.Random(len(exps)).shuffle(exps)
    return {a: alg._jm_forms([a])[a] for a in exps}


def _reversed(alg, exps):
    return {a: alg._jm_forms(iter([a]))[a] for a in reversed(exps)}


def _between_epsilons(alg, exps):
    """One vector at a time, each after an epsilon_u that fills the row at
    another vector."""
    aff = AffineAlgebra(alg.r, nvars=alg.nvars)
    rng = random.Random(5)
    got = {}
    for a in exps:
        b = rng.choice(exps)
        image = epsilon_u(aff.x_monomial(b).scale(RingElem.u_var(1, alg.nvars)), alg)
        assert image == alg.jm_monomial(b).scale(RingElem.u_var(1, alg.nvars))
        got[a] = alg._jm_forms([a])[a]
    return got


ORDERS = {
    "all-at-once": _all_at_once,
    "shuffled": _shuffled,
    "reversed": _reversed,
    "between-epsilons": _between_epsilons,
}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_jm_forms_equal_the_oracle(case, order):
    m, r, exps, want = case
    alg = HeckeAlgebra(m, r)
    got = ORDERS[order](alg, exps)
    assert got.keys() == want.keys()
    assert all(got[a] == want[a] for a in exps)
    assert all(alg.jm_monomial(a)._terms == want[a] for a in exps)


def test_row_holds_the_nodes_of_the_requested_paths(case):
    m, r, exps, _ = case
    alg = HeckeAlgebra(m, r)
    assert len(alg._jm_row) == 1  # construction fills nothing
    id_r = identity(r)
    asked = exps[:: 3]
    alg._jm_forms(asked)
    nodes = {node for a in asked for node, _ in alg._path((id_r, a))}
    assert len(alg._jm_row) == len(nodes) and set(alg._jm_row) == nodes


def test_row_interns_its_keys_and_coefficients(case):
    m, r, exps, _ = case
    alg = HeckeAlgebra(m, r)
    alg._jm_forms(exps)
    for objects in (
        [k for form in alg._jm_row.values() for k in form],
        [c for form in alg._jm_row.values() for c in form.values()],
    ):
        assert len({id(x) for x in objects}) == len(set(objects))


def test_jm_monomial_returns_a_copy():
    alg = HeckeAlgebra(2, 3)
    a = (2, 1, 1)
    want = dict(_want(alg, [a])[a])
    x = alg.jm_monomial(a)
    x._terms.clear()
    alg.jm_monomial((1, 0, 0))._terms[identity(3), (0, 0, 0)] = alg._one
    assert alg.jm_monomial(a)._terms == want
    assert alg.jm_monomial((1, 0, 0)) == alg.gen_L(1)


def test_specialised_and_generic_algebras_keep_separate_rows():
    params = (RingElem.const(-1, 2), RingElem.u_var(2, 2))
    special, generic = HeckeAlgebra(2, 3, u_params=params), HeckeAlgebra(2, 3)
    exps = _exps(2, 3)
    want_special, want_generic = _want(special, exps), _want(generic, exps)
    for a in exps:
        assert special.jm_monomial(a)._terms == want_special[a]
        assert generic.jm_monomial(a)._terms == want_generic[a]
    assert special._jm_row is not generic._jm_row
    assert any(want_special[a] != want_generic[a] for a in exps)
