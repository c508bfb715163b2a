"""Tests for the ground ring: arithmetic, symmetric functions, ranks."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from ring_oracle import OracleElem, elementary, shift_digits, shift_packed, substitute

import cycloschur
from cycloschur.ring import (
    MODULAR_PRIME,
    ElementaryExpansion,
    ExactDivisionError,
    U_EXP_MAX,
    RingElem,
    RingError,
    _digits,
    _packed,
    _slot_for,
    add_products,
    elementary_symmetric_of,
    elementary_symmetric_params,
    exact_div,
    exact_rank,
    modular_rank,
    poincare_polynomial,
    quantum_factorial,
    rank_mod_p,
)


def q(k: int = 1, m: int = 0) -> RingElem:
    return RingElem.q_power(k, m)


def one(m: int = 0) -> RingElem:
    return RingElem.one(m)


def from_rows(rows) -> list[dict[int, RingElem]]:
    """Sparse {column: entry} rows of a list of lists, without the zeros."""
    return [{j: e for j, e in enumerate(row) if not e.is_zero()} for row in rows]


# -- basic arithmetic ------------------------------------------------------


def test_difference_of_squares():
    lhs = (q() - one()) * (q() + one())
    rhs = q(2) - one()
    assert lhs == rhs, f"(q-1)(q+1) = {lhs}, expected {rhs}"


def test_laurent_inverse():
    assert q(1) * q(-1) == one()
    assert q(-3) * q(5) == q(2)


def test_u_product_expansion():
    m = 2
    u1 = RingElem.u_var(1, m)
    u2 = RingElem.u_var(2, m)
    prod = (u1 + u2) * (u1 * u2)
    expected = RingElem(m, {(0, (2, 1)): 1, (0, (1, 2)): 1})
    assert prod == expected, f"got {prod}"


def test_zero_and_scale():
    x = q() - q()
    assert x.is_zero()
    assert x == RingElem.zero(0)
    assert (q() + one()).scale(0).is_zero()
    assert (q() + one()).scale(-2) == RingElem(0, {(1, ()): -2, (0, ()): -2})


def test_pow():
    x = q() + one()
    assert x**0 == one()
    assert x**3 == x * x * x
    with pytest.raises(Exception):
        x ** (-1)


def test_mixed_nvars_rejected():
    with pytest.raises(Exception):
        RingElem.one(1) + RingElem.one(2)


def test_str_roundtrip_json():
    m = 3
    x = (
        q(2, m)
        - RingElem.u_var(1, m) * RingElem.u_var(3, m)
        + RingElem.const(5, m) * q(-1, m)
    )
    data = x.to_json()
    # canonical: sorted ascending by (q exponent, u exponents)
    keys = [(item["q"], tuple(item["u"])) for item in data]
    assert keys == sorted(keys)
    assert RingElem.from_json(data, m) == x


# -- elementary symmetric polynomials in the parameters --------------------


def test_elementary_symmetric_small():
    m = 3
    e0 = elementary_symmetric_params(0, m)
    e1 = elementary_symmetric_params(1, m)
    e2 = elementary_symmetric_params(2, m)
    e3 = elementary_symmetric_params(3, m)
    assert e0 == RingElem.one(m)
    u = [RingElem.u_var(i, m) for i in (1, 2, 3)]
    assert e1 == u[0] + u[1] + u[2]
    assert e2 == u[0] * u[1] + u[0] * u[2] + u[1] * u[2]
    assert e3 == u[0] * u[1] * u[2]


def test_elementary_symmetric_specialize():
    # e_2 at (u1, u2, u3) = (1, 2, 3) is 1*2 + 1*3 + 2*3 = 11
    e2 = elementary_symmetric_params(2, 3)
    assert e2.specialize(7, [1, 2, 3]) == Fraction(11)


def test_vieta_identity():
    # prod (x - u_i) = sum_k (-1)^k e_k x^{m-k}, checked at x = q
    m = 3
    x = q(1, m)
    lhs = one(m)
    for i in range(1, m + 1):
        lhs = lhs * (x - RingElem.u_var(i, m))
    rhs = RingElem.zero(m)
    for k in range(m + 1):
        term = elementary_symmetric_params(k, m) * q(m - k, m)
        rhs = rhs + term.scale((-1) ** k)
    assert lhs == rhs


def test_elementary_symmetric_of_values():
    m = 2
    vals = [q(1, m), q(2, m), RingElem.u_var(1, m)]
    e2 = elementary_symmetric_of(vals)[2]
    expected = (
        q(3, m) + q(1, m) * RingElem.u_var(1, m) + q(2, m) * RingElem.u_var(1, m)
    )
    assert e2 == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_elementary_symmetric_recurrence_matches_subsets(data):
    """[e_0..e_m] by the recurrence equals the sums over all k-subsets of
    products, on arbitrary values (q-powers, u's, coefficients past 2^63)."""
    n = data.draw(st.integers(min_value=0, max_value=2), label="nvars")
    values = [RingElem(n, terms) for terms in data.draw(
        st.lists(wide_terms(n), min_size=1, max_size=6), label="values")]
    es = elementary_symmetric_of(values)
    assert len(es) == len(values) + 1
    for k, e in enumerate(es):
        expected = RingElem.zero(n)
        for subset in itertools.combinations(values, k):
            prod = RingElem.one(n)
            for v in subset:
                prod = prod * v
            expected = expected + prod
        assert_canonical(e)
        assert_same_value(e, expected)
    with pytest.raises(RingError):
        elementary_symmetric_of([])


# -- Poincare polynomials --------------------------------------------------


def test_quantum_factorial():
    assert quantum_factorial(0, 0) == one()
    assert quantum_factorial(1, 0) == one()
    assert quantum_factorial(2, 0) == one() + q()
    # [3]_q! = (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3
    expected = RingElem(0, {(0, ()): 1, (1, ()): 2, (2, ()): 2, (3, ()): 1})
    assert quantum_factorial(3, 0) == expected


def test_poincare_polynomial_values():
    assert poincare_polynomial([2]) == one() + q()
    p3 = poincare_polynomial([3])
    assert p3 == RingElem(0, {(0, ()): 1, (1, ()): 2, (2, ()): 2, (3, ()): 1})
    assert poincare_polynomial([2, 1]) == poincare_polynomial([2])
    assert poincare_polynomial([2, 2]) == (one() + q()) * (one() + q())
    # order-counting sanity: specializing q = 1 gives the group order
    for lam in [(3,), (2, 2), (1, 1, 1), (4,)]:
        import math

        expected = 1
        for part in lam:
            expected *= math.factorial(part)
        assert poincare_polynomial(lam).specialize(1, []) == expected


# -- specialization --------------------------------------------------------


def test_specialize_fraction():
    x = q(-1) + q(2)
    assert x.specialize(Fraction(1, 2), []) == Fraction(2) + Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        x.specialize(0, [])


def test_specialize_mod():
    p = 97
    x = q(-1, 1) + RingElem.u_var(1, 1)
    v = x.specialize_mod(p, 3, [5])
    assert v == (pow(3, -1, p) + 5) % p
    with pytest.raises(ZeroDivisionError):
        x.specialize_mod(p, 97, [5])


# -- exact division --------------------------------------------------------


def test_exact_div_roundtrip():
    m = 2
    a = q(1, m) + RingElem.u_var(1, m) - RingElem.const(3, m)
    b = q(-2, m) * RingElem.u_var(2, m) + RingElem.one(m)
    prod = a * b
    assert exact_div(prod, b) == a
    assert exact_div(prod, a) == b


def test_exact_div_failure():
    with pytest.raises(ExactDivisionError):
        exact_div(q() + one(), RingElem.const(2, 0))
    with pytest.raises(ExactDivisionError):
        exact_div(RingElem.u_var(1, 1), RingElem.u_var(1, 1) + RingElem.one(1))


_NON_DIVISORS = {
    # 1 / (1 + q^-1): every remainder's leading term is divisible by 1, and
    # the quotient 1 - q^-1 + q^-2 - ... never ends.
    "q": "exact_div(RingElem.one(0), RingElem.one(0) + RingElem.q_power(-1, 0))",
    # 1 / (1 + q^-1 u_1): the same descent, the u-exponent growing as q falls.
    "u": "exact_div(one, one + q(-1) * u)",
    # A product with one factor changed: the quotient would have to pass
    # below low(a) - low(b) = -3.
    "product": "exact_div(q(-3) * (one + u) * (q(2) - u), q(2) + u)",
}


@pytest.mark.parametrize("case", sorted(_NON_DIVISORS))
def test_exact_div_by_a_non_divisor_terminates(case):
    # In a separate process, so that a hang fails the test at the 10 s bound.
    src = str(Path(cycloschur.__file__).resolve().parents[1])
    script = (
        "from cycloschur.ring import ExactDivisionError, RingElem, exact_div\n"
        "one, u = RingElem.one(1), RingElem.u_var(1, 1)\n"
        "q = lambda k: RingElem.q_power(k, 1)\n"
        "try:\n"
        f"    {_NON_DIVISORS[case]}\n"
        "except ExactDivisionError:\n"
        "    print('inexact')\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "inexact\n"


def test_exact_div_reaches_the_lowest_q_bound():
    # q^-3 (1 + u_1) (q^2 - u_1) divided by each factor and by itself: the
    # quotient's lowest q-exponent is low(a) - low(b), reached but not passed.
    u1 = RingElem.u_var(1, 1)
    a = q(-3, 1) * (one(1) + u1) * (q(2, 1) - u1)
    assert exact_div(a, q(-3, 1) * (one(1) + u1)) == q(2, 1) - u1
    assert exact_div(a, q(2, 1) - u1) == q(-3, 1) * (one(1) + u1)
    assert exact_div(a, a) == one(1)


# -- matrix ranks ----------------------------------------------------------


def test_rank_mod_p_simple():
    p = 101
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 7}]
    assert rank_mod_p(rows, p) == 2


def test_modular_rank_identity():
    M = from_rows([[one() if i == j else RingElem.zero(0) for j in range(3)] for i in range(3)])
    assert modular_rank(M, 0, trials=2, seed=1) == 3
    assert exact_rank(M, 3, 0) == 3


def test_modular_rank_deficient():
    M = from_rows([[q(), RingElem.zero(0)], [RingElem.zero(0), RingElem.zero(0)]])
    assert modular_rank(M, 0, trials=3, seed=0) == 1
    assert exact_rank(M, 2, 0) == 1


def test_rank_with_parameters():
    # rows (1, u1), (u1, u1^2) are dependent; adding (0, 1) makes rank 2
    m = 1
    u1 = RingElem.u_var(1, m)
    rows = [
        [RingElem.one(m), u1],
        [u1, u1 * u1],
        [RingElem.zero(m), RingElem.one(m)],
    ]
    M = from_rows(rows)
    assert modular_rank(M, m, trials=3, seed=5) == 2
    assert exact_rank(M, 2, m) == 2


def test_modular_rank_deterministic():
    m = 1
    u1 = RingElem.u_var(1, m)
    M = from_rows([[u1, RingElem.one(m)], [RingElem.one(m), u1]])
    r1 = modular_rank(M, m, trials=3, seed=42)
    r2 = modular_rank(M, m, trials=3, seed=42)
    assert r1 == r2 == 2


def test_exact_rank_vandermonde():
    # 3x3 Vandermonde in q has full rank over the fraction field
    rows = [[q(i * j) for j in range(3)] for i in range(3)]
    assert exact_rank(from_rows(rows), 3, 0) == 3


def test_ranks_of_ragged_sparse_rows():
    # An empty row, rows of unequal length, and a column no row reaches:
    # (1), (), (u, 1, q), u (u, 1, q) and (0, 1) span a space of rank 3.
    m = 1
    u1, o = RingElem.u_var(1, m), RingElem.one(m)
    base = [u1, o, q(1, m)]
    rows = from_rows([[o], [], base, [u1 * e for e in base], [RingElem.zero(m), o]])
    assert [len(row) for row in rows] == [1, 0, 3, 3, 1]
    assert exact_rank(rows, 4, m) == modular_rank(rows, m, trials=3, seed=9) == 3
    assert exact_rank([{}], 0, m) == modular_rank([{}], m) == 0


# -- property tests --------------------------------------------------------


def small_elems(m: int):
    mons = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.tuples(*([st.integers(min_value=0, max_value=2)] * m)),
    )
    return st.dictionaries(
        mons, st.integers(min_value=-4, max_value=4), max_size=4
    ).map(lambda d: RingElem(m, d))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_elems(2), small_elems(2), small_elems(2))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + RingElem.zero(2) == a
    assert a * RingElem.one(2) == a
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_elems(2), small_elems(2))
def test_specialize_is_homomorphism(a, b):
    pt_q, pt_u = Fraction(3, 2), [Fraction(-1), Fraction(5, 3)]
    assert (a * b).specialize(pt_q, pt_u) == a.specialize(pt_q, pt_u) * b.specialize(
        pt_q, pt_u
    )
    assert (a + b).specialize(pt_q, pt_u) == a.specialize(pt_q, pt_u) + b.specialize(
        pt_q, pt_u
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_elems(1))
def test_json_roundtrip(a):
    assert RingElem.from_json(a.to_json(), 1) == a


def test_exact_and_modular_rank_agree_on_grid():
    m = 1
    u1 = RingElem.u_var(1, m)
    o, z = RingElem.one(m), RingElem.zero(m)
    cases = [
        [[o, u1], [u1, o]],
        [[o, o], [o, o]],
        [[q(1, m), u1, z], [z, z, o]],
        [[u1 * u1, u1], [u1, o]],
    ]
    for rows, rank in zip(cases, [2, 1, 2, 1]):
        M = from_rows(rows)
        got = exact_rank(M, len(rows[0]), m)
        assert got == rank == modular_rank(M, m, trials=3, seed=9), f"case {rows}"


# -- packed monomials against the tuple-keyed oracle -----------------------


def oracle_terms(nvars: int):
    mons = st.tuples(
        st.integers(min_value=-6, max_value=6),
        st.tuples(*([st.integers(min_value=0, max_value=40)] * nvars)),
    )
    return st.dictionaries(mons, st.integers(min_value=-9, max_value=9), max_size=6)


def assert_same(x: RingElem, ox: OracleElem) -> None:
    assert x.sorted_terms() == ox.sorted_terms()
    # the read-only view: one entry per monomial
    assert len(x.terms) == len(x.sorted_terms()) == len(ox.terms)
    assert x.to_json() == ox.to_json()
    assert str(x) == str(ox)
    if ox.terms:
        assert x.leading() == ox.leading()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_packed_arithmetic_matches_oracle(data):
    n = data.draw(st.integers(min_value=0, max_value=3), label="nvars")
    da = data.draw(oracle_terms(n), label="a")
    db = data.draw(oracle_terms(n), label="b")
    a, b = RingElem(n, da), RingElem(n, db)
    oa, ob = OracleElem(n, da), OracleElem(n, db)
    assert_same(a, oa)
    assert_same(a * b, oa * ob)
    assert_same(a + b, oa + ob)
    assert_same(a - b, oa - ob)
    assert_same(-a, -oa)
    k = data.draw(st.integers(min_value=-5, max_value=5), label="k")
    assert_same(a.scale(k), oa.scale(k))
    e = data.draw(st.integers(min_value=0, max_value=3), label="e")
    assert_same(a**e, oa**e)
    assert RingElem.from_json(a.to_json(), n) == a
    assert a * b == b * a and hash(a * b) == hash(b * a)
    q_val = data.draw(st.integers(min_value=1, max_value=MODULAR_PRIME - 1))
    u_vals = data.draw(
        st.lists(st.integers(min_value=0, max_value=MODULAR_PRIME - 1),
                 min_size=n, max_size=n)
    )
    assert a.specialize_mod(MODULAR_PRIME, q_val, u_vals) == oa.specialize_mod(
        MODULAR_PRIME, q_val, u_vals
    )
    if ob.terms:
        assert_same(exact_div(a * b, b), oa)


def test_u_exponent_limit():
    assert issubclass(RingError, ValueError)  # the CLI maps it to exit 2
    with pytest.raises(RingError):
        RingElem(1, {(0, (2**31,)): 1})
    with pytest.raises(RingError):
        RingElem.u_var(1, 2) ** 2**31
    assert (RingElem.u_var(1, 1) ** 2**30).leading() == ((0, (2**30,)), 1)
    # the largest exponent the fields hold still multiplies exactly
    a = RingElem(2, {(-3, (2**30, 7)): 2})
    b = RingElem(2, {(1, (2**30 - 1, 0)): 3, (-1, (0, 5)): -1})
    assert (a * b).sorted_terms() == [
        ((-4, (2**30, 12)), -2),
        ((-2, (2**31 - 1, 7)), 6),
    ]
    assert RingElem(2, {(0, (2**31 - 1, 0)): 1}).leading() == ((0, (2**31 - 1, 0)), 1)
    with pytest.raises(RingError):
        RingElem(1, {(0, (2**31 - 1,)): 1}) * RingElem.u_var(1, 1)


def fraction_value(x: RingElem, q_val, u_vals) -> Fraction:
    """x at (q_val, u_vals), term by term in Fractions."""
    return sum(
        (c * Fraction(q_val) ** qe * math.prod(Fraction(u) ** e for u, e in zip(u_vals, ue))
         for (qe, ue), c in x.sorted_terms()), Fraction(0),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_specialize_integer_route_matches_fractions(data):
    """At integer points whose q-powers are integers the sum stays in int:
    q = +-1 with negative q-exponents, any integer q without them, and
    coefficients past 2^63."""
    n = data.draw(st.integers(min_value=0, max_value=2), label="nvars")
    x = RingElem(n, data.draw(wide_terms(n), label="x"))
    u_vals = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label="u")
    for q_val in (1, -1, Fraction(1), Fraction(-1)):
        value = x.specialize(q_val, u_vals)
        assert value == fraction_value(x, q_val, u_vals) and type(value) is Fraction
    shifted = x * RingElem.q_power(4, n)  # no negative q-exponent left
    q_val = data.draw(st.integers(-5, 5), label="q")
    assert shifted.specialize(q_val, u_vals) == fraction_value(shifted, q_val, u_vals)
    assert shifted.specialize(q_val, [Fraction(u, 2) for u in u_vals]) == fraction_value(
        shifted, q_val, [Fraction(u, 2) for u in u_vals]
    )


# -- the in-place kernel against the oracle ---------------------------------


def assert_handed_out(acc: dict, nvars: int) -> None:
    """Every sum add_products formed is canonical: equal and hash-equal to
    the element built afresh from its terms."""
    for value in acc.values():
        fresh = RingElem(nvars, dict(value.sorted_terms()))
        assert value == fresh and fresh == value and hash(value) == hash(fresh)


def accumulate(nvars: int, products) -> RingElem:
    """The sum of the products a * b of (a, b) pairs, formed by add_products."""
    acc = {0: RingElem.zero(nvars)}
    for a, b in products:
        add_products(acc, ((0, a),), b)
    assert_handed_out(acc, nvars)
    return acc[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_accumulator_matches_oracle_sum_of_products(data):
    n = data.draw(st.integers(min_value=0, max_value=3), label="nvars")
    pairs = data.draw(
        st.lists(st.tuples(oracle_terms(n), oracle_terms(n)), max_size=5), label="pairs"
    )
    # Adding a drawn product again negated makes the sum cancel, in part
    # or (with every pair negated) to zero.
    negate = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    # Pair i goes to key i % 2 and to key "all", one call with both items.
    acc: dict = {}
    totals = {0: OracleElem(n), 1: OracleElem(n), "all": OracleElem(n)}
    for i, ((da, db), neg) in enumerate(zip(pairs, negate)):
        for sign in (1, -1) if neg else (1,):
            a = RingElem(n, da) if sign == 1 else -RingElem(n, da)
            add_products(acc, ((i % 2, a), ("all", a)), RingElem(n, db))
            product = (OracleElem(n, da) * OracleElem(n, db)).scale(sign)
            for key in (i % 2, "all"):
                totals[key] = totals[key] + product
    assert_handed_out(acc, n)
    for key, value in acc.items():
        assert_same(value, totals[key])
        assert value == RingElem(n, totals[key].terms)


def test_accumulator_cancels_to_zero():
    u1, q1 = RingElem.u_var(1, 2), RingElem.q_power(1, 2)
    a = u1 + q1
    value = accumulate(2, [(a, a), (-a, a)])
    assert value.is_zero()
    assert value == RingElem.zero(2)
    # (u1 + q)(u1 - q) - u1^2 + q^2 = 0, with the cross terms cancelling
    # inside the first product
    assert accumulate(2, [(a, u1 - q1), (-u1, u1), (q1, q1)]).is_zero()
    acc: dict = {}
    add_products(acc, (), RingElem.one(0))
    assert acc == {}


def test_accumulator_u_exponent_limit():
    top = RingElem(1, {(0, (U_EXP_MAX,)): 1})
    u1 = RingElem.u_var(1, 1)
    acc: dict = {}
    add_products(acc, ((0, top),), RingElem.one(1))
    half = RingElem(1, {(0, (2**30,)): 1})
    add_products(acc, ((0, half),), RingElem(1, {(0, (2**30 - 1,)): 2}))
    assert acc[0].sorted_terms() == [((0, (U_EXP_MAX,)), 3)]
    with pytest.raises(RingError):
        add_products(acc, ((0, top),), u1)
    with pytest.raises(RingError):
        add_products({}, ((0, u1),), top)
    with pytest.raises(RingError):  # the sum handed out carries its u-bound
        acc[0] * u1
    # the bound is checked as RingElem.__mul__ checks it: on the operands'
    # bounds, before any term is formed
    with pytest.raises(RingError):
        top * u1


# -- coefficients past the 64-bit slot ---------------------------------------

WIDE = 2**63  # the first size a 64-bit signed slot does not hold


def wide_terms(nvars: int):
    """Few u-monomials with many q-exponents, so q-parts share packed
    integers, and coefficients from small to +-2^80, the slot's edges too."""
    mons = st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.tuples(*([st.integers(min_value=0, max_value=2)] * nvars)),
    )
    coeffs = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-(2**80), max_value=2**80),
        st.sampled_from([WIDE - 1, 1 - WIDE, WIDE, -WIDE, 2**62, -(2**62), 2**64]),
    )
    return st.dictionaries(mons, coeffs, max_size=7)


def assert_same_value(x: RingElem, y: RingElem) -> None:
    assert x == y and y == x and hash(x) == hash(y)


def assert_canonical(x: RingElem) -> None:
    """x equals and hash-equals itself built afresh from its terms, and its
    slot is the narrowest that holds its largest coefficient."""
    assert_same_value(x, RingElem(x.nvars, dict(x.sorted_terms())))
    assert x._slot == _slot_for(max((abs(c) for c in x.terms.values()), default=0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_wide_coefficients_match_oracle(data):
    n = data.draw(st.integers(min_value=0, max_value=2), label="nvars")
    da, db, dc = (data.draw(wide_terms(n), label=name) for name in "abc")
    a, b, c = RingElem(n, da), RingElem(n, db), RingElem(n, dc)
    oa, ob, oc = OracleElem(n, da), OracleElem(n, db), OracleElem(n, dc)
    assert_same(a, oa)
    assert_same(a * b, oa * ob)
    assert_same(a * b * c, oa * ob * oc)
    assert_same(a + b, oa + ob)
    assert_same(a - b + c, oa - ob + oc)
    assert_same(-a, -oa)
    k = data.draw(st.integers(min_value=-(2**70), max_value=2**70), label="k")
    assert_same(a.scale(k), oa.scale(k))
    assert_same(a**2, oa**2)
    total = accumulate(n, ((a, b), (c, a), (-a, b)))
    assert_same(total, oc * oa)
    # Every result is canonical, on operands either side of 2^63.
    for x in (a, a * b, a * b * c, a + b, a - b, a - b + c, -a, a.scale(k), a**2, total):
        assert_canonical(x)
    assert_same_value(-(-a), a)
    assert (-(-a))._slot == (-a)._slot == a._slot
    # Equal values are equal and hash-equal whichever path made them.
    assert_same_value((a + b) - b, a)
    assert_same_value(a * b, RingElem(n, (oa * ob).terms))
    assert_same_value(total, c * a)
    assert_same_value(a * b - a * b, RingElem.zero(n))
    assert RingElem.from_json((a * b).to_json(), n) == a * b
    q_val = data.draw(st.integers(min_value=1, max_value=MODULAR_PRIME - 1), label="q")
    u_vals = data.draw(
        st.lists(st.integers(min_value=0, max_value=MODULAR_PRIME - 1),
                 min_size=n, max_size=n), label="u"
    )
    assert (a * b).specialize_mod(MODULAR_PRIME, q_val, u_vals) == (oa * ob).specialize_mod(
        MODULAR_PRIME, q_val, u_vals
    )
    if ob.terms:
        assert_same_value(exact_div(a * b, b), a)


def test_bounds_past_the_slot_give_exact_results():
    big = RingElem(1, {(0, (0,)): 2**62, (1, (0,)): 2**62, (1, (1,)): -(2**62)})
    # sums: the bound 2^64 passes 2^63, the values do not
    assert_same(big + big - big, OracleElem(1, {(0, (0,)): 2**62, (1, (0,)): 2**62,
                                                (1, (1,)): -(2**62)}))
    # products: bounds near 2^126; coefficients 2^124 and a cancellation
    ob = OracleElem(1, {(0, (0,)): 2**62, (1, (0,)): 2**62, (1, (1,)): -(2**62)})
    assert_same(big * big, ob * ob)
    assert_same(big * big * big, ob * ob * ob)
    # a long sum of small products whose bound passes 2^63 on the way
    step = RingElem(1, {(0, (0,)): 2**40, (2, (1,)): -(2**40)})
    ostep = OracleElem(1, {(0, (0,)): 2**40, (2, (1,)): -(2**40)})
    assert_same(accumulate(1, [(step, step)] * 3), ostep * ostep + ostep * ostep + ostep * ostep)
    # 1 + q and the constant 2^64 + 1 pack to one integer, at different slots
    assert RingElem(0, {(0, ()): 1, (1, ()): 1}) != RingElem.const(2**64 + 1, 0)
    # Every result is canonical, below 2^63 and past it, and so is -x of a
    # wide x, at x's own slot.
    wide = big * big
    assert wide._slot == 128
    results = [big + big - big, big + big, big - big, wide, wide * big, wide + big, wide - wide,
               wide**2, big**3, wide.scale(-(2**70)), big.scale(3), big * RingElem.zero(1),
               accumulate(1, [(step, step)] * 3), accumulate(1, [(wide, step), (-wide, step)])]
    for x in results:
        assert_canonical(x)
    for x in (wide, big, step):
        assert_canonical(-x)
        assert -(-x) == x and (-(-x))._slot == (-x)._slot == x._slot


@pytest.mark.parametrize("sign", [1, -1])
def test_convolution_sum_on_the_slot_edge(sign):
    q1, one = RingElem.q_power(1, 0), RingElem.one(0)
    half = RingElem(0, {(0, ()): sign * 2**62, (1, ()): sign * 2**62})
    # (2^62 + 2^62 q)(1 + q): the middle coefficient is 2^63 exactly
    edge = {(0, ()): sign * 2**62, (1, ()): sign * WIDE, (2, ()): sign * 2**62}
    got = half * (one + q1)
    assert got.sorted_terms() == sorted(edge.items())
    assert_same_value(got, RingElem(0, edge))
    assert got.leading() == ((2, ()), sign * 2**62)
    assert got.specialize(1, []) == sign * 2**64
    # one below the edge stays on 64-bit slots; one more goes past it
    below = RingElem.const(sign * (WIDE - 2), 0) + RingElem.const(sign, 0)
    assert below.sorted_terms() == [((0, ()), sign * (WIDE - 1))]
    assert_same_value(below + RingElem.const(sign, 0), RingElem.const(sign * WIDE, 0))
    # a wide product whose value fits narrows back to the 64-bit form
    narrow = half * (one - q1)
    assert_same_value(narrow, RingElem(0, {(0, ()): sign * 2**62, (2, ()): -sign * 2**62}))
    assert narrow.leading() == ((2, ()), -sign * 2**62)


@pytest.mark.parametrize("c", [1, -3, 2**70])
def test_accumulator_lowest_slot_cancels(c):
    q = lambda k: RingElem.q_power(k, 1)  # noqa: E731
    u1 = RingElem.u_var(1, 1).scale(c)
    # the two lowest slots cancel
    value = accumulate(1, [(RingElem.one(1) + q(1) + q(3), u1), (RingElem.one(1) + q(1), -u1)])
    assert_same_value(value, q(3) * u1)
    assert value.sorted_terms() == [((3, (1,)), c)]
    assert value.leading() == ((3, (1,)), c)
    # below and above the shrunk range again
    value = accumulate(1, [(x, u1) for x in (q(2) - q(1), q(1), q(-2), -q(2))])
    assert_same_value(value, q(-2) * u1)


def test_accumulator_crosses_the_slot_and_goes_on():
    """One key's sum passes 2^63 (the wide fallback) while items for it and
    for a narrow key keep arriving; it cancels back to 64-bit slots and
    then takes the in-place route again."""
    big = RingElem(1, {(0, (0,)): 2**62, (1, (1,)): -3})
    obig = OracleElem(1, {(0, (0,)): 2**62, (1, (1,)): -3})
    small = RingElem(1, {(-1, (0,)): 5, (0, (0,)): 1})
    osmall = OracleElem(1, {(-1, (0,)): 5, (0, (0,)): 1})
    one, q1 = RingElem.one(1), RingElem.q_power(1, 1)
    items = [("wide", big), ("narrow", small)]
    acc: dict = {}
    add_products(acc, items, one)
    add_products(acc, items, one)  # 2^63 at q^0: past the 64-bit slot
    assert acc["wide"]._slot > 64
    add_products(acc, items, q1)
    add_products(acc, [("wide", small)], q1)
    owide = obig.scale(2) + obig * OracleElem(1, {(1, (0,)): 1})
    owide = owide + osmall * OracleElem(1, {(1, (0,)): 1})
    assert_same(acc["wide"], owide)
    assert_same(acc["narrow"], osmall.scale(2) + osmall * OracleElem(1, {(1, (0,)): 1}))
    # Hash mid-way: each item written drops the total's cached hash.
    assert_handed_out(acc, 1)
    add_products(acc, [("wide", big)], RingElem.const(-2, 1))  # back below 2^63
    owide = owide + obig.scale(-2)
    assert acc["wide"]._slot == 64
    assert_handed_out(acc, 1)
    for _ in range(3):
        add_products(acc, items, one)
        owide = owide + obig
        assert_handed_out(acc, 1)
        add_products(acc, [("wide", small)], one)
        owide = owide + osmall
    assert_handed_out(acc, 1)
    assert_same(acc["wide"], owide)


def test_wide_square_items_among_others():
    """An item that is c2 itself, at slots past 64 bits, reads c2's repacked
    groups; the items around it, in the same call, are repacked on their own."""
    dx = {(0, (0,)): 2**62 + 5, (1, (1,)): -(2**40), (3, (0,)): 7}
    dy = {(-1, (0,)): 3, (0, (1,)): 2**61}
    x, y, ox, oy = RingElem(1, dx), RingElem(1, dy), OracleElem(1, dx), OracleElem(1, dy)
    acc: dict = {}
    add_products(acc, [(0, y), (0, x), (1, x), (1, y), (0, x), ("small", RingElem.one(1))], x)
    assert_handed_out(acc, 1)
    assert_same(acc[0], oy * ox + (ox * ox).scale(2))
    assert_same(acc[1], ox * ox + oy * ox)
    assert_same(acc["small"], ox)
    assert x * x == RingElem(1, dx) * RingElem(1, dx) == acc[1] - y * x


@pytest.mark.parametrize("slot", [64, 128, 192])
def test_digits_and_packed_match_the_shift_loop(slot):
    """Below the byte threshold and far above it: 1 to 5,000 slots, the
    extreme slot values +-(2^(slot-1) - 1), and zero top slots."""
    rng, edge = random.Random(slot), (1 << slot - 1) - 1
    for n in [*range(1, 45), 100, 1000, 5000]:
        draws = [
            [rng.randrange(-edge, edge + 1) for _ in range(n)],
            [rng.choice((edge, -edge, 0, 1, -1)) for _ in range(n)],
            [rng.randrange(-edge, edge + 1) for _ in range(n)] + [0] * rng.randrange(1, 4),
        ]
        for digits in draws:
            packed = shift_packed(digits, slot)
            expected = shift_digits(packed, slot)
            assert _digits(packed, slot) == expected
            assert _packed(digits, slot) == packed == _packed(expected, slot)


def test_terms_is_a_read_only_view():
    x = RingElem(2, {(-1, (1, 0)): 3, (2, (1, 0)): -1, (0, (0, 2)): 5})
    assert len(x.terms) == 3
    assert sorted(x.terms.values()) == [-1, 3, 5]
    with pytest.raises(TypeError):
        x.terms[0] = 1
    assert RingElem.zero(2).terms == {}


# -- the expansion e_k -> e_k(u) against direct substitution ----------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_elementary_expansion_matches_substitution(data):
    m = data.draw(st.integers(min_value=1, max_value=3), label="m")
    mons = st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.tuples(*([st.integers(min_value=0, max_value=3)] * m)),
    )
    draw = [
        data.draw(st.dictionaries(mons, st.integers(-5, 5), max_size=5), label="x")
        for _ in range(2)
    ]
    expand = ElementaryExpansion(m)
    images = [elementary(k, m) for k in range(1, m + 1)]
    for terms in draw:
        got = expand(RingElem(m, terms))
        assert_same(got, substitute(OracleElem(m, terms), images))
        again = expand(RingElem(m, terms))
        if any(any(ue) for (_, ue), c in terms.items() if c):
            # memoised: an equal input gets the very same image
            assert again is got
        else:  # no e-field: re-made on each call, equal and hash-equal
            assert again == got and hash(again) == hash(got)
    # a ring homomorphism
    x, y = (RingElem(m, terms) for terms in draw)
    assert expand(x * y) == expand(x) * expand(y)
    assert expand(x + y) == expand(x) + expand(y)


def test_elementary_expansion_edges():
    expand = ElementaryExpansion(2)
    e1, e2 = RingElem.u_var(1, 2), RingElem.u_var(2, 2)
    u1, u2 = e1, e2  # the same slots, read in u after the map
    assert expand(e1) == u1 + u2
    assert expand(e2) == u1 * u2
    assert expand(e1 * e1 - e2.scale(2)) == u1 * u1 + u2 * u2
    assert expand(RingElem.q_power(-2, 2)) == RingElem.q_power(-2, 2)
    assert expand(RingElem.zero(2)).is_zero()
    assert ElementaryExpansion(1)(RingElem.u_var(1, 1)) == RingElem.u_var(1, 1)
    with pytest.raises(RingError):
        expand(RingElem.u_var(1, 3))
    with pytest.raises(RingError):
        expand(RingElem(2, {(0, (U_EXP_MAX, 1)): 1}))
