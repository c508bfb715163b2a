"""Exact arithmetic in the ground ring R = Z[q, q^-1, u_1, ..., u_m].

Every coefficient in this package is an element of R: a Laurent polynomial
in the invertible variable q whose coefficients are ordinary (non-Laurent)
polynomials in the parameters u_1, ..., u_m with integer coefficients.
Elements are stored sparsely as a map from monomials to nonzero integer
coefficients.  A monomial is the pair ``(q_exponent, u_exponents)`` with
``q_exponent`` any integer and ``u_exponents`` a tuple of ``nvars``
naturals; internally it is packed into one integer (see ``RingElem``), and
callers read monomials back through ``sorted_terms`` and ``leading``.

The same representation holds the mixed ring Z[q, q^-1][e_1..e_m][u_1..u_n],
with e_k in m extra fields, over which a generic cyclotomic Hecke algebra
straightens (see ``hecke``).  ``ElementaryExpansion`` (e_k -> e_k(u)) and
its ``lift`` (zero e-fields) are the one place where coefficients cross
between e- and u-coordinates.

Also provided: elementary symmetric polynomials in the u-parameters (the
coefficients of the cyclotomic relation), Poincare polynomials of Young
subgroups, exact specialization at rational points, and rank certification
for sparse rows over R (probabilistic modular rank plus an exact
fraction-free escape hatch).

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

# The prime of every modular specialization: 2^31 - 1 (Mersenne), > 2^30.
MODULAR_PRIME = 2**31 - 1

Monomial = tuple[int, tuple[int, ...]]

# Packed monomials: q^e u_1^f_1 ... u_n^f_n is the integer
#     e * 2^(W n) + sum_i f_i * 2^(W (n - i)),
# one W-bit field per u-exponent below the q exponent, which Python's
# unbounded signed ints hold as is.  Integer order is the (q, u) lex order,
# and while every field stays below 2^(W-1) the product of two monomials is
# the sum of their keys.
_W = 32
_FIELD = (1 << _W) - 1
U_EXP_MAX = (1 << (_W - 1)) - 1


class RingError(ValueError):
    """Raised on contract violations in ring operations."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division turns out to be inexact."""


def _unpack(key: int, nvars: int) -> Monomial:
    ue = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        ue[i] = key & _FIELD
        key >>= _W
    return key, tuple(ue)


class RingElem:
    """An element of Z[q, q^-1, u_1, ..., u_nvars] in canonical sparse form.

    ``terms`` maps packed monomial keys to nonzero integers; the keys are
    private to this module.  ``_ubound`` is an upper bound on every
    u-exponent of the element: exact at construction, the larger bound
    under + and -, the sum of the bounds under *.  A product whose bound
    passes ``U_EXP_MAX`` raises ``RingError``, so no field ever carries
    into the next.  Two elements are equal iff they have the same ``nvars``
    and identical term maps.  Instances are immutable by convention: no
    method mutates ``terms`` after construction.
    """

    __slots__ = ("nvars", "terms", "_ubound", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        if nvars < 0:
            raise RingError("nvars must be nonnegative")
        clean: dict[int, int] = {}
        top = 0
        if terms:
            for (qe, ue), c in terms.items():
                if c == 0:
                    continue
                ue = tuple(ue)
                if len(ue) != nvars:
                    raise RingError(
                        f"u-exponent tuple {ue} has length {len(ue)}, expected {nvars}"
                    )
                key = qe
                for e in ue:
                    if e < 0:
                        raise RingError(f"negative u-exponent in {ue}")
                    if e > top:
                        if e > U_EXP_MAX:
                            raise RingError(
                                f"u-exponent {e} exceeds the limit {U_EXP_MAX}"
                            )
                        top = e
                    key = (key << _W) + e
                clean[key] = c
        self.nvars = nvars
        self.terms = clean
        self._ubound = top
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "RingElem":
        return RingElem(nvars, {})

    @staticmethod
    def const(c: int, nvars: int) -> "RingElem":
        return RingElem(nvars, {(0, (0,) * nvars): c})

    @staticmethod
    def one(nvars: int) -> "RingElem":
        return RingElem.const(1, nvars)

    @staticmethod
    def q_power(k: int, nvars: int) -> "RingElem":
        return RingElem(nvars, {(k, (0,) * nvars): 1})

    @staticmethod
    def u_var(i: int, nvars: int) -> "RingElem":
        """The variable u_i, 1-indexed."""
        if not 1 <= i <= nvars:
            raise RingError(f"u index {i} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[i - 1] = 1
        return RingElem(nvars, {(0, tuple(exps)): 1})

    # -- basic predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "RingElem") -> None:
        if not isinstance(other, RingElem):
            raise TypeError(f"expected RingElem, got {type(other).__name__}")
        if self.nvars != other.nvars:
            raise RingError(
                f"mismatched variable counts: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            new = out.get(key, 0) + c
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return _make(self.nvars, out, max(self._ubound, other._ubound))

    def __neg__(self) -> "RingElem":
        return _make(
            self.nvars, {key: -c for key, c in self.terms.items()}, self._ubound
        )

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        bound = self._ubound + other._ubound
        if bound > U_EXP_MAX:
            raise RingError(
                f"u-exponents of a product may reach {bound}, past the limit {U_EXP_MAX}"
            )
        out: dict[int, int] = {}
        get = out.get
        other_terms = other.terms.items()
        for ka, ca in self.terms.items():
            for kb, cb in other_terms:
                key = ka + kb
                new = get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    del out[key]
        return _make(self.nvars, out, bound)

    def scale(self, c: int) -> "RingElem":
        if c == 0:
            return RingElem.zero(self.nvars)
        return _make(
            self.nvars, {key: c * v for key, v in self.terms.items()}, self._ubound
        )

    def __pow__(self, k: int) -> "RingElem":
        if k < 0:
            raise RingError("negative powers only exist for monomials in q; use q_power")
        result = RingElem.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- canonical order and leading term ---------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms sorted ascending by the canonical (q_exp, u_exps) lex order."""
        n = self.nvars
        return [(_unpack(key, n), c) for key, c in sorted(self.terms.items())]

    def leading(self) -> tuple[Monomial, int]:
        """The lex-largest monomial and its coefficient (error on zero)."""
        if not self.terms:
            raise RingError("zero element has no leading term")
        key = max(self.terms)
        return _unpack(key, self.nvars), self.terms[key]

    # -- specialization ----------------------------------------------------

    def specialize(self, q_val, u_vals: Sequence) -> Fraction:
        """Evaluate at rational q = q_val and u_i = u_vals[i-1], exactly.

        Raises ``ZeroDivisionError`` when q_val = 0 meets a negative
        q-exponent.
        """
        if len(u_vals) != self.nvars:
            raise RingError(f"expected {self.nvars} u-values, got {len(u_vals)}")
        q_val = Fraction(q_val)
        u_vals = [Fraction(v) for v in u_vals]
        total = Fraction(0)
        for key, c in self.terms.items():
            qe, ue = _unpack(key, self.nvars)
            if q_val == 0 and qe < 0:
                raise ZeroDivisionError("q = 0 specialization with negative exponent")
            val = Fraction(c)
            val *= q_val**qe
            for u, e in zip(u_vals, ue):
                if e:
                    val *= u**e
            total += val
        return total

    def specialize_mod(self, p: int, q_val: int, u_vals: Sequence[int]) -> int:
        """Evaluate in the prime field F_p; q_val must be nonzero mod p."""
        n = self.nvars
        if len(u_vals) != n:
            raise RingError(f"expected {n} u-values, got {len(u_vals)}")
        if q_val % p == 0:
            raise ZeroDivisionError("q specialization must be invertible mod p")
        last_first = u_vals[::-1]
        total = 0
        for key, c in self.terms.items():
            for u in last_first:
                e = key & _FIELD
                if e:
                    c = c * pow(u, e, p) % p
                key >>= _W
            total += c * pow(q_val, key, p)
        return total % p

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[dict]:
        """Canonical JSON: term list sorted by the monomial order."""
        return _json_of(self.sorted_terms())

    def json_and_text(self) -> tuple[list[dict], str]:
        """``(self.to_json(), str(self))`` from one sort of the terms."""
        terms = self.sorted_terms()
        return _json_of(terms), _text_of(terms)

    @staticmethod
    def from_json(data: Iterable[Mapping], nvars: int) -> "RingElem":
        terms: dict[Monomial, int] = {}
        for item in data:
            mon = (int(item["q"]), tuple(int(e) for e in item["u"]))
            terms[mon] = terms.get(mon, 0) + int(item["c"])
        return RingElem(nvars, terms)

    # -- printing ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"RingElem({self})"

    def __str__(self) -> str:
        return _text_of(self.sorted_terms())


def _json_of(terms: Iterable[tuple[Monomial, int]]) -> list[dict]:
    """The JSON term list of sorted (monomial, coefficient) pairs."""
    return [{"c": c, "q": qe, "u": list(ue)} for (qe, ue), c in terms]


def _text_of(terms: Sequence[tuple[Monomial, int]]) -> str:
    """The printed form of sorted (monomial, coefficient) pairs."""
    if not terms:
        return "0"
    parts = []
    for (qe, ue), c in terms:
        factors = []
        if qe:
            factors.append("q" if qe == 1 else f"q^{qe}")
        for i, e in enumerate(ue, start=1):
            if e:
                factors.append(f"u{i}" if e == 1 else f"u{i}^{e}")
        if not factors:
            body = str(abs(c))
        else:
            mag = "*".join(factors)
            body = mag if abs(c) == 1 else f"{abs(c)}*{mag}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _make(nvars: int, terms: dict[int, int], ubound: int) -> RingElem:
    """An element straight from packed terms, skipping the constructor's checks."""
    res = object.__new__(RingElem)
    res.nvars = nvars
    res.terms = terms
    res._ubound = ubound
    res._hash = None
    return res


class RingAccumulator:
    """A running sum of ring products, formed in place in one packed dict.

    ``add_product(a, b)`` adds a*b to the sum without building a*b or a new
    partial sum, deleting monomials that cancel as it goes; ``value`` hands
    the total out as one ``RingElem``, after which the accumulator is done
    with.  The total's u-exponent bound is the largest bound of its
    products, checked against ``U_EXP_MAX`` as ``RingElem.__mul__`` checks
    it.  Every operand must have the accumulator's ``nvars``; callers are
    the straightening loops, whose coefficients all live in one ring.
    """

    __slots__ = ("nvars", "_terms", "_ubound")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._terms: dict[int, int] = {}
        self._ubound = 0

    def add_product(self, a: RingElem, b: RingElem) -> None:
        bound = a._ubound + b._ubound
        if bound > self._ubound:
            if bound > U_EXP_MAX:
                raise RingError(
                    f"u-exponents of a product may reach {bound}, past the limit {U_EXP_MAX}"
                )
            self._ubound = bound
        out = self._terms
        get = out.get
        b_terms = b.terms.items()
        for ka, ca in a.terms.items():
            for kb, cb in b_terms:
                key = ka + kb
                new = get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    del out[key]

    def value(self) -> RingElem:
        return _make(self.nvars, self._terms, self._ubound)


def elementary_symmetric_params(k: int, m: int) -> RingElem:
    """The k-th elementary symmetric polynomial e_k(u_1, ..., u_m).

    These are the expansion coefficients of (L_1 - u_1)...(L_1 - u_m); e_0 = 1.
    """
    if not 0 <= k <= m:
        raise RingError(f"k = {k} out of range 0..{m}")
    return RingElem(m, {
        (0, tuple(int(i in subset) for i in range(m))): 1
        for subset in itertools.combinations(range(m), k)
    })


class ElementaryExpansion:
    """The ring homomorphism Z[q^±1][e_1..e_m][u_1..u_nvars] -> Z[q^±1][u_1..u_N],
    N = max(m, nvars), fixing q and each u_i and sending e_k to
    e_k(u_1, ..., u_m).  The e-fields of a key sit after q, the u-fields
    after them; ``lift`` pads a u-ring element with zero e-fields.  The map
    is injective on the elements free of u (u_1 + ... + u_m - e_1 goes to 0).

    Images of e-monomials and of elements are memoised; equal inputs share
    one output.  A term whose u-exponent plus e-degree passes ``U_EXP_MAX``
    raises ``RingError`` before its image is formed.
    """

    __slots__ = ("m", "nvars", "width", "_gens", "_monomials", "_images")

    def __init__(self, m: int, nvars: int = 0):
        self.m = m
        self.nvars = nvars
        self.width = max(m, nvars)
        us = [RingElem.u_var(i, self.width) for i in range(1, m + 1)]
        self._gens = [elementary_symmetric_of(us, k) for k in range(1, m + 1)]
        self._monomials: dict[int, RingElem] = {}
        self._images: dict[RingElem, RingElem] = {}

    def lift(self, c: RingElem) -> RingElem:
        """c in Z[q^±1][u_1..u_nvars], as an element of the domain."""
        if c.nvars != self.nvars:
            raise RingError(f"expected {self.nvars} variables, got {c.nvars}")
        umask, ebits = (1 << (_W * self.nvars)) - 1, _W * self.m
        terms = {((key & ~umask) << ebits) + (key & umask): v for key, v in c.terms.items()}
        return _make(self.nvars + self.m, terms, c._ubound)

    def _monomial(self, epart: int, top: int) -> RingElem:
        exps = _unpack(epart, self.m)[1]
        if sum(exps) + top > U_EXP_MAX:  # the u_1-exponent of the image
            raise RingError(
                f"an expansion's u-exponents reach {sum(exps) + top}, past {U_EXP_MAX}"
            )
        out = RingElem.one(self.width)
        for gen, f in zip(self._gens, exps):
            out = out * gen**f
        return out

    def __call__(self, c: RingElem) -> RingElem:
        image = self._images.get(c)
        if image is None:
            n, width = self.nvars, self.width
            if c.nvars != self.m + n:
                raise RingError(f"expected {self.m + n} variables, got {c.nvars}")
            ubits, ebits = _W * n, _W * self.m
            umask, emask = (1 << ubits) - 1, (1 << ebits) - 1
            pad, qbits = _W * (width - n), _W * width
            acc = RingAccumulator(width)
            for key, coeff in c.terms.items():
                upart = key & umask
                rest = key >> ubits
                epart = rest & emask
                top = max(_unpack(upart, n)[1], default=0)
                mono = self._monomials.get(epart)
                if mono is None:
                    mono = self._monomials[epart] = self._monomial(epart, top)
                base = ((rest >> ebits) << qbits) + (upart << pad)
                acc.add_product(mono, _make(width, {base: coeff}, top))
            image = self._images[c] = acc.value()
        return image


def elementary_symmetric_of(values: Sequence[RingElem], k: int) -> RingElem:
    """e_k evaluated at an explicit list of ring elements."""
    if not values and k == 0:
        raise RingError("need at least the ambient nvars; pass values or use const")
    nvars = values[0].nvars
    total = RingElem.zero(nvars)
    for subset in itertools.combinations(values, k):
        prod = RingElem.one(nvars)
        for v in subset:
            prod = prod * v
        total = total + prod
    return total


def quantum_factorial(n: int, nvars: int) -> RingElem:
    """[n]_q! = prod_{j=1..n} (1 + q + ... + q^{j-1})."""
    result = RingElem.one(nvars)
    for j in range(2, n + 1):
        bracket = RingElem(nvars, {(e, (0,) * nvars): 1 for e in range(j)})
        result = result * bracket
    return result


def poincare_polynomial(lam: Sequence[int], nvars: int = 0) -> RingElem:
    """Sum of q^(length) over the Young subgroup of the composition lam.

    Equals the product of the quantum factorials [lam_i]_q!.
    """
    if any(part < 0 for part in lam):
        raise RingError("composition parts must be nonnegative")
    result = RingElem.one(nvars)
    for part in lam:
        result = result * quantum_factorial(part, nvars)
    return result


def exact_div(a: RingElem, b: RingElem) -> RingElem:
    """Exact division a / b in R; raises ExactDivisionError if b does not divide a.

    Works by repeated cancellation of lex-leading terms, which is valid
    because the (q, u) lex order is multiplicative over an integral domain.
    """
    a._check(b)
    if b.is_zero():
        raise ExactDivisionError("division by zero")
    nvars = a.nvars
    (qb, ub), cb = b.leading()
    quotient: dict[Monomial, int] = {}
    rem = a
    while not rem.is_zero():
        (qa, ua), ca = rem.leading()
        if ca % cb != 0:
            raise ExactDivisionError("leading coefficient does not divide")
        diff = tuple(x - y for x, y in zip(ua, ub))
        if any(d < 0 for d in diff):
            raise ExactDivisionError("leading monomial does not divide")
        mon = (qa - qb, diff)
        coeff = ca // cb
        quotient[mon] = coeff
        rem = rem - RingElem(nvars, {mon: coeff}) * b
    return RingElem(nvars, quotient)


def rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank of a sparse matrix over F_p; rows are {column: value} dicts."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        for pc in sorted(pivots):
            coeff = r.get(pc)
            if coeff is None:
                continue
            piv = pivots[pc]
            for c, pv in piv.items():
                nv = (r.get(c, 0) - coeff * pv) % p
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
            r.pop(pc, None)
        if not r:
            continue
        pivot_col = min(r)
        inv = pow(r[pivot_col], -1, p)
        pivots[pivot_col] = {c: v * inv % p for c, v in r.items() if c != pivot_col}
        rank += 1
    return rank


def modular_rank(
    rows: Sequence[Mapping[int, RingElem]], nvars: int, trials: int = 3, seed: int = 0
) -> int:
    """Max rank of sparse rows over R at `trials` random points mod MODULAR_PRIME.

    Each row is a {column: RingElem} dict in `nvars` variables; absent
    entries are zero and are not specialised.  Trial t draws q (nonzero),
    then u_1..u_nvars, from ``random.Random(seed)``.  The result is a lower
    bound on the rank over the fraction field of R; equality with a
    predicted count certifies linear independence.
    """
    if trials < 1:
        raise RingError("trials must be >= 1")
    p = MODULAR_PRIME
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        q_val = rng.randrange(1, p)
        u_vals = [rng.randrange(p) for _ in range(nvars)]
        specialised = [
            {j: v for j, c in row.items() if (v := c.specialize_mod(p, q_val, u_vals))}
            for row in rows
        ]
        best = max(best, rank_mod_p(specialised, p))
    return best


def exact_rank(rows: Sequence[Mapping[int, RingElem]], n_cols: int, nvars: int) -> int:
    """Exact rank of sparse rows (columns 0..n_cols-1, `nvars` variables)
    over the fraction field of R, by fraction-free elimination.

    Bareiss-style: every division is by the previous pivot and provably
    exact.  Exponential worst case; intended as the --exact escape hatch at
    desk scale.
    """
    zero = RingElem.zero(nvars)
    a = [[row.get(j, zero) for j in range(n_cols)] for row in rows]
    n_rows = len(a)
    prev = RingElem.one(nvars)
    rank = 0
    row = 0
    for _ in range(min(n_rows, n_cols)):
        pr = pc = -1
        for i in range(row, n_rows):
            for j in range(row, n_cols):
                if not a[i][j].is_zero():
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        a[row], a[pr] = a[pr], a[row]
        for r2 in range(n_rows):
            a[r2][row], a[r2][pc] = a[r2][pc], a[r2][row]
        pivot = a[row][row]
        for i in range(row + 1, n_rows):
            for j in range(row + 1, n_cols):
                num = a[i][j] * pivot - a[i][row] * a[row][j]
                a[i][j] = exact_div(num, prev)
            a[i][row] = RingElem.zero(nvars)
        prev = pivot
        rank += 1
        row += 1
    return rank
