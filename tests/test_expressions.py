"""Expression language: tokens, parse trees, pretty-printing, evaluation."""

from __future__ import annotations

import random

import pytest

from cycloschur.affine import AffineAlgebra, epsilon_u
from cycloschur.expressions import (
    MAX_DEPTH,
    BinOp,
    ExprError,
    ExprSyntaxError,
    Gen,
    Neg,
    Num,
    Pow,
    QVar,
    Sigma,
    XComp,
    evaluate,
    evaluate_text,
    parse,
    pretty,
)
from cycloschur.guards import GuardError
from cycloschur.hecke import HeckeAlgebra, sigma_elementary
from cycloschur.ring import RingElem


# -- parsing ---------------------------------------------------------------


def test_parse_product_of_generators():
    assert parse("T1*T1") == BinOp("*", Gen("T", 1), Gen("T", 1))


def test_parse_composition_and_power():
    assert parse("x(2,1)*L3^2") == BinOp("*", XComp((2, 1)), Pow(Gen("L", 3), 2))


def test_parse_precedence():
    tree = parse("(q-1)*T1 + q")
    assert tree == BinOp(
        "+", BinOp("*", BinOp("-", QVar(), Num(1)), Gen("T", 1)), QVar()
    )


def test_parse_power_binds_tighter_than_product():
    assert parse("T1*T2^2") == BinOp("*", Gen("T", 1), Pow(Gen("T", 2), 2))


def test_parse_whitespace_insensitive():
    assert parse(" T1 \t* T1 ") == parse("T1*T1")


def test_parse_unary_minus():
    assert parse("-T1+q") == BinOp("+", Neg(Gen("T", 1)), QVar())


def test_parse_negative_exponent():
    assert parse("q^-2") == Pow(QVar(), -2)


def test_parse_sigma_and_u():
    assert parse("sigma(2)*u1") == BinOp("*", Sigma(2), Gen("u", 1))


def test_parse_left_associativity():
    assert parse("T1-T2-T3") == BinOp(
        "-", BinOp("-", Gen("T", 1), Gen("T", 2)), Gen("T", 3)
    )


@pytest.mark.parametrize(
    "src,offset_hint",
    [
        ("T1*", 3),
        ("(T1", 3),
        ("x(1,)", 4),
        ("sigma()", 6),
        ("T1 %", 3),
        ("", 0),
        ("u", 0),
        ("T1 T2", 3),
    ],
)
def test_parse_errors_carry_offsets(src, offset_hint):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src)
    assert exc.value.offset == offset_hint


# -- pretty printing -------------------------------------------------------


CORPUS = [
    "T1*T1",
    "x(2,1)*L3^2",
    "(q-1)*T1+q",
    "-T1+q",
    "q^-1*(T1+T2)",
    "T1-(T2-T3)",
    "(T1^2)^3",
    "sigma(1)*x(3)",
    "u1*u2-q^2",
    "2*T1+3",
    "L1^2-u1*L1",
    "(T1+T2)*(T1-T2)",
]


@pytest.mark.parametrize("src", CORPUS)
def test_pretty_roundtrip_corpus(src):
    tree = parse(src)
    assert parse(pretty(tree)) == tree


def _random_tree(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice(
            [
                Num(rng.randrange(0, 5)),
                QVar(),
                Gen("T", rng.randrange(1, 4)),
                Gen("L", rng.randrange(1, 4)),
                Gen("u", rng.randrange(1, 3)),
                XComp((2, 1)),
                Sigma(1),
            ]
        )
    pick = rng.randrange(5)
    if pick == 0:
        return Neg(_random_tree(rng, depth - 1))
    if pick == 1:
        return Pow(_random_tree(rng, depth - 1), rng.randrange(-2, 4))
    op = rng.choice(["+", "-", "*"])
    return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_pretty_roundtrip_random_trees():
    rng = random.Random(20260823)
    for _ in range(300):
        tree = _random_tree(rng, rng.randrange(1, 5))
        assert parse(pretty(tree)) == tree, pretty(tree)


# -- evaluation ------------------------------------------------------------


def test_eval_quadratic_product():
    alg = HeckeAlgebra(2, 2)
    got = evaluate_text("T1*T1", alg)
    want = alg.gen_T(1).scale(alg.qm1) + alg.one().scale(alg.q)
    assert got == want


def test_eval_cyclotomic_square():
    alg = HeckeAlgebra(2, 2)
    u1 = RingElem.u_var(1, 2)
    u2 = RingElem.u_var(2, 2)
    want = alg.gen_L(1).scale(u1 + u2) - alg.one().scale(u1 * u2)
    assert evaluate_text("L1^2", alg) == want


def test_eval_symmetrizer_with_sigma():
    alg = HeckeAlgebra(2, 3)
    got = evaluate_text("x(3)*sigma(1)", alg)
    assert got == alg.x_lambda((3,)) * sigma_elementary(alg, 1)


def test_eval_numbers_and_scalars():
    alg = HeckeAlgebra(1, 2)
    assert evaluate_text("2^3", alg) == alg.scalar(RingElem.const(8, alg.nvars))
    assert evaluate_text("q^-1*q", alg) == alg.one()


def test_eval_affine_laurent_monomials():
    aff = AffineAlgebra(2)
    assert evaluate_text("X1^-1*X2", aff) == aff.x_monomial((-1, 1))
    assert evaluate_text("X2^0", aff) == aff.one()


def test_eval_affine_sigma_maps_to_cyclotomic():
    aff = AffineAlgebra(3, nvars=2)
    target = HeckeAlgebra(2, 3)
    lifted = evaluate_text("sigma(2)", aff)
    assert epsilon_u(lifted, target) == sigma_elementary(target, 2)


def test_eval_unary_minus_and_subtraction():
    alg = HeckeAlgebra(1, 2)
    assert evaluate_text("-T1+T1", alg) == alg.zero()
    assert evaluate_text("T1-T1", alg) == alg.zero()


@pytest.mark.parametrize(
    "src,affine",
    [
        ("L1", True),
        ("X1", False),
        ("u3", False),
        ("T1^-1", False),
        ("X5", True),
        ("sigma(9)", True),
        ("u1", True),  # affine engine built without parameters
    ],
)
def test_eval_context_errors(src, affine):
    alg = AffineAlgebra(2) if affine else HeckeAlgebra(2, 2)
    with pytest.raises(ExprError):
        evaluate_text(src, alg)


def test_eval_index_out_of_range_is_error():
    alg = HeckeAlgebra(2, 2)
    with pytest.raises(ValueError):
        evaluate_text("T5", alg)


def test_eval_composition_must_match_rank():
    alg = HeckeAlgebra(2, 2)
    with pytest.raises(ValueError):
        evaluate_text("x(3)", alg)


def test_evaluate_accepts_prebuilt_tree():
    alg = HeckeAlgebra(1, 2)
    assert evaluate(parse("T1"), alg) == alg.gen_T(1)


@pytest.mark.parametrize("base", ["T1", "(T1+L1)"])
def test_power_by_squaring_matches_repeated_product(base):
    alg = HeckeAlgebra(2, 2)
    elem = evaluate_text(base, alg)
    want = alg.one()
    for k in range(7):
        assert evaluate_text(f"{base}^{k}", alg) == want
        want = want * elem


def test_power_exponent_is_guarded():
    alg = HeckeAlgebra(2, 2)
    assert evaluate_text("T1^8", alg, guard=8) == evaluate_text("(T1^2)^4", alg)
    for src in ("T1^9", "(T1^3)^3", "((T1)^0)^9", "u1^3000000000"):
        with pytest.raises(GuardError):
            evaluate_text(src, alg, guard=8)
    # q and X powers are single monomials and need no guard
    assert evaluate_text("q^9", alg, guard=8) == alg.scalar(RingElem.q_power(9, 2))


def test_nesting_depth_is_capped():
    deep = "(" * MAX_DEPTH + "T1" + ")" * MAX_DEPTH
    assert parse(deep) == Gen("T", 1)
    with pytest.raises(ExprError):
        parse("(" + deep + ")")
    chain = "+".join(["T1"] * MAX_DEPTH)
    assert isinstance(parse(chain), BinOp)
    with pytest.raises(ExprError):
        parse(chain + "+T1")
