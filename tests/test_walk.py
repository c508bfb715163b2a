"""Right multiplication by monomials T_w M^a through ``hecke._fill``.

``ElementBase._rmul_monomials`` fills a row that starts at the element
along the words ``AlgebraBase._path``: the reduced word of w, then the
engine's ``_exponent_path`` (L_r^{a_r} ... L_1^{a_1}, or one X-shift).  The
oracle (``tests/walk_oracle.py``) is the grouped stack walk it replaced,
run on an algebra of its own so that no step table is shared.  Every
result must equal it, whatever order the keys are asked for in; every
node of a path must be a key whose own path is that prefix; and a fill
must step to each node it stores exactly once.
"""

from __future__ import annotations

import itertools
import random

import pytest
import walk_oracle as oracle

from cycloschur.affine import AffineAlgebra
from cycloschur.hecke import HeckeAlgebra, _fill
from cycloschur.permutations import all_perms, identity
from cycloschur.ring import RingElem

# (engine, m, r); the cyclotomic keys take exponents 0..m, so that every
# L_j also overflows, the affine ones exponents in {-1, 0, 1, 2}.
CASES = [("hecke", 2, 3), ("hecke", 3, 2), ("hecke", 1, 4), ("affine", 1, 3)]


def _start(engine: str, m: int, r: int):
    """A fresh algebra and an element of it with several terms."""
    if engine == "hecke":
        alg = HeckeAlgebra(m, r)
        mono = alg.jm_monomial((1,) + (0,) * (r - 1))
    else:
        alg = AffineAlgebra(r, nvars=m)
        mono = alg.x_monomial((1, -1) + (0,) * (r - 2))
    x = alg.gen_T(1).scale(alg.q) + mono * alg.gen_T(r - 1) + alg.scalar(RingElem.u_var(1, m))
    return alg, x


def _keys(engine: str, m: int, r: int) -> list:
    exps = range(m + 1) if engine == "hecke" else range(-1, 3)
    return [(w, a) for w in all_perms(r) for a in itertools.product(exps, repeat=r)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "-".join(map(str, c)))
def case(request):
    """(case, keys, {key: x * T_w M^a by the oracle}), the oracle on an
    algebra of its own."""
    keys = _keys(*request.param)
    _, x = _start(*request.param)
    return request.param, keys, dict(oracle.rmul_monomials(x, keys))


def _all_at_once(x, keys):
    return dict(x._rmul_monomials(keys))


def _shuffled(x, keys):
    keys = list(keys)
    random.Random(len(keys)).shuffle(keys)
    return {k: v for key in keys for k, v in x._rmul_monomials([key])}


def _reversed(x, keys):
    return {k: v for key in reversed(keys) for k, v in x._rmul_monomials(iter([key]))}


ORDERS = {"all-at-once": _all_at_once, "shuffled": _shuffled, "reversed": _reversed}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_rmul_monomials_equals_the_oracle(case, order):
    params, keys, want = case
    _, x = _start(*params)
    got = ORDERS[order](x, keys)
    assert got.keys() == want.keys()
    assert all(got[key] == want[key] for key in keys)


def test_every_path_node_has_its_prefix_as_path(case):
    params, keys, _ = case
    alg, _ = _start(*params)
    root = (identity(alg.r), (0,) * alg.r)
    for key in keys:
        nodes = alg._path(key)
        assert nodes[0] == (root, None) and nodes[-1][0] == key
        for t, (node, _) in enumerate(nodes):
            assert alg._path(node) == nodes[: t + 1], (key, node)


def test_fill_steps_once_per_stored_node(case):
    params, keys, want = case
    alg, x = _start(*params)
    count = [0]

    def step(terms, letter):
        count[0] += 1
        return letter[0](alg, terms, letter[1])

    row = {(identity(alg.r), (0,) * alg.r): x._terms}
    shuffled = list(keys)
    random.Random(7).shuffle(shuffled)
    for key in shuffled:
        _fill(row, [key], alg._path, step)
    assert count[0] == len(row) - 1
    assert set(row) == {node for key in keys for node, _ in alg._path(key)}
    assert all(row[key] == want[key] for key in keys)
