"""A small expression language for engine elements.

Grammar (whitespace-insensitive, precedence ^ over * over + and -):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' ['-'] int)?
    atom   := 'T'int | 'L'int | 'X'int | 'x' '(' int (',' int)* ')'
            | 'sigma' '(' int ')' | 'q' | 'u'int | int | '(' expr ')'

Parsing is independent of any algebra; index bounds and the cyclotomic /
affine distinction (L versus X) are enforced at evaluation time.  The
pretty-printer emits a canonical form that reparses to the same tree.
Parentheses may nest at most MAX_DEPTH deep, and so may the parsed tree
(a chain of k binary operators is k deep).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .hecke import HeckeAlgebra, HeckeElement, sigma_elementary
from .affine import AffineAlgebra, AffineElement
from .guards import check_guard
from .ring import RingElem

# Deepest parenthesis nesting and parse tree the parser accepts; the
# parser, evaluator and printer recurse once or a few times per level.
MAX_DEPTH = 100


class ExprError(ValueError):
    """Problem with an expression (syntax or evaluation context)."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# -- abstract syntax -------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Gen:
    kind: str  # 'T', 'L', 'X', 'u'
    index: int


@dataclass(frozen=True)
class QVar:
    pass


@dataclass(frozen=True)
class XComp:
    parts: tuple[int, ...]


@dataclass(frozen=True)
class Sigma:
    k: int


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Gen, QVar, XComp, Sigma, Pow, Neg, BinOp]


# -- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<gen>[TLXu](?=\d))"
    r"|(?P<sigma>sigma)"
    r"|(?P<xcomp>x(?=\())"
    r"|(?P<q>q)"
    r"|(?P<int>\d+)"
    r"|(?P<op>[()+\-*^,])"
    r"|(?P<ws>\s+)"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(src):
        mo = _TOKEN_RE.match(src, pos)
        if mo is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        kind = mo.lastgroup or ""
        if kind != "ws":
            out.append(_Token(kind, mo.group(), pos))
        pos = mo.end()
    return out


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.parens = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.src))
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.offset)
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise ExprSyntaxError(f"expected integer, found {tok.text!r}", tok.offset)
        return int(tok.text)

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.offset)
        if _depth(e) > MAX_DEPTH:
            raise ExprError(f"expression is nested deeper than {MAX_DEPTH}")
        return e

    def expr(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.next()
            left: Expr = Neg(self.term())
        else:
            left = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return left
            self.next()
            left = BinOp(tok.text, left, self.term())

    def term(self) -> Expr:
        left = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return left
            self.next()
            left = BinOp("*", left, self.factor())

    def factor(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.next()
            sign = 1
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "-":
                self.next()
                sign = -1
            return Pow(base, sign * self.expect_int())
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "gen":
            return Gen(tok.text, self.expect_int())
        if tok.kind == "q":
            return QVar()
        if tok.kind == "int":
            return Num(int(tok.text))
        if tok.kind == "sigma":
            self.expect_op("(")
            k = self.expect_int()
            self.expect_op(")")
            return Sigma(k)
        if tok.kind == "xcomp":
            self.expect_op("(")
            parts = [self.expect_int()]
            while True:
                nxt = self.peek()
                if nxt is not None and nxt.kind == "op" and nxt.text == ",":
                    self.next()
                    parts.append(self.expect_int())
                else:
                    break
            self.expect_op(")")
            return XComp(tuple(parts))
        if tok.kind == "op" and tok.text == "(":
            self.parens += 1
            if self.parens > MAX_DEPTH:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_DEPTH}", tok.offset
                )
            e = self.expr()
            self.expect_op(")")
            self.parens -= 1
            return e
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)


def _depth(e: Expr) -> int:
    """Height of the tree, counted without recursion."""
    best = 0
    stack = [(e, 1)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        if isinstance(node, BinOp):
            stack += [(node.left, d + 1), (node.right, d + 1)]
        elif isinstance(node, Neg):
            stack.append((node.operand, d + 1))
        elif isinstance(node, Pow):
            stack.append((node.base, d + 1))
    return best


def parse(src: str) -> Expr:
    return _Parser(src).parse()


# -- pretty printer --------------------------------------------------------


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return 1 if e.op in "+-" else 2
    if isinstance(e, Neg):
        return 1
    if isinstance(e, Pow):
        return 3
    return 4


def pretty(e: Expr) -> str:
    def wrap(sub: Expr, minimum: int) -> str:
        s = pretty(sub)
        return f"({s})" if _prec(sub) < minimum else s

    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, QVar):
        return "q"
    if isinstance(e, Gen):
        return f"{e.kind}{e.index}"
    if isinstance(e, XComp):
        return "x(" + ",".join(str(p) for p in e.parts) + ")"
    if isinstance(e, Sigma):
        return f"sigma({e.k})"
    if isinstance(e, Pow):
        exp = str(e.exponent)
        return f"{wrap(e.base, 4)}^{exp}"
    if isinstance(e, Neg):
        return "-" + wrap(e.operand, 2)
    if isinstance(e, BinOp):
        # parsing is left-associative, so right operands of the same
        # precedence need parentheses to keep the tree shape
        left = wrap(e.left, _prec(e))
        right = wrap(e.right, _prec(e) + 1)
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluator -------------------------------------------------------------


def _factors(node: Expr) -> list[Expr]:
    """The factors of a chain of products, left to right."""
    out: list[Expr] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, BinOp) and cur.op == "*":
            stack += [cur.right, cur.left]
        else:
            out.append(cur)
    return out


def _is_scalar(node: Expr) -> bool:
    """Is the node a coefficient-ring element (built from integers, q, u)?"""
    if isinstance(node, (Num, QVar)):
        return True
    if isinstance(node, Gen):
        return node.kind == "u"
    if isinstance(node, Pow):
        return _is_scalar(node.base)
    if isinstance(node, Neg):
        return _is_scalar(node.operand)
    if isinstance(node, BinOp):
        return _is_scalar(node.left) and _is_scalar(node.right)
    return False


Element = Union[HeckeElement, AffineElement]


def evaluate(
    e: Expr, alg: HeckeAlgebra | AffineAlgebra, guard: int | None = None
) -> Element:
    """Evaluate a tree in a cyclotomic or affine engine.

    L is cyclotomic-only and X affine-only; q and u live in the engine's
    coefficient ring.  Negative powers are allowed for q always and for X
    in the affine engine; everything else needs nonnegative exponents.
    ``guard`` caps the size of the Young subgroup a symmetrizer x(...)
    sums over, and the exponent of a power computed by products, nested
    powers multiplying out: ((a)^3)^3 counts as a^9.  A product of k
    factors that are not scalars counts as exponent k, so a*a*a counts as
    a^3 and ((a*a)^3) as a^6.
    """
    affine = isinstance(alg, AffineAlgebra)
    nvars = alg.nvars

    def x_power(index: int, n: int) -> AffineElement:
        if not 1 <= index <= alg.r:
            raise ExprError(f"X{index} out of range for rank {alg.r}")
        return alg.x_monomial(tuple(n if i == index - 1 else 0 for i in range(alg.r)))

    def ev(node: Expr, power: int = 1) -> Element:
        if isinstance(node, Num):
            return alg.scalar(RingElem.const(node.value, nvars))
        if isinstance(node, QVar):
            return alg.scalar(RingElem.q_power(1, nvars))
        if isinstance(node, Gen):
            if node.kind == "T":
                return alg.gen_T(node.index)
            if node.kind == "u":
                if not 1 <= node.index <= nvars:
                    raise ExprError(
                        f"u{node.index} not available ({nvars} parameter(s))"
                    )
                return alg.scalar(RingElem.u_var(node.index, nvars))
            if node.kind == "L":
                if affine:
                    raise ExprError("L is not defined in the affine engine; use X")
                return alg.gen_L(node.index)
            if node.kind == "X":
                if not affine:
                    raise ExprError("X is not defined in the cyclotomic engine; use L")
                return x_power(node.index, 1)
            raise ExprError(f"unknown generator kind {node.kind!r}")
        if isinstance(node, XComp):
            return alg.x_lambda(node.parts, guard)
        if isinstance(node, Sigma):
            if affine and not 0 <= node.k <= alg.r:
                raise ExprError(f"sigma({node.k}) out of range for rank {alg.r}")
            return sigma_elementary(alg, node.k)
        if isinstance(node, Neg):
            return -ev(node.operand, power)
        if isinstance(node, BinOp) and node.op == "*":
            # A chain of k non-scalar factors costs what a k-th power does.
            factors = [(f, _is_scalar(f)) for f in _factors(node)]
            k = sum(not scalar for _, scalar in factors)
            if k > 1:
                check_guard(power * k, guard, "exponent")
            out = None
            for f, scalar in factors:
                value = ev(f, power if scalar else power * k)
                out = value if out is None else out * value
            return out
        if isinstance(node, BinOp):
            left, right = ev(node.left, power), ev(node.right, power)
            if node.op == "+":
                return left + right
            return left - right
        if isinstance(node, Pow):
            n = node.exponent
            if isinstance(node.base, QVar):
                return alg.scalar(RingElem.q_power(n, nvars))
            if isinstance(node.base, Gen) and node.base.kind == "X" and affine:
                return x_power(node.base.index, n)
            if n < 0:
                raise ExprError("negative powers are only supported for q and X")
            # Squaring bounds the number of products, not their size: the
            # terms of T1^n grow with n, so the exponent is guarded too.
            check_guard(power * n, guard, "exponent")
            out = alg.one()
            base = ev(node.base, power * max(n, 1))
            while n:
                if n & 1:
                    out = out * base
                n >>= 1
                if n:
                    base = base * base
            return out
        raise TypeError(f"not an expression node: {node!r}")

    return ev(e)


def evaluate_text(
    src: str, alg: HeckeAlgebra | AffineAlgebra, guard: int | None = None
) -> Element:
    return evaluate(parse(src), alg, guard)
