"""Exact arithmetic in the ground ring R = Z[q, q^-1, u_1, ..., u_m].

Every coefficient in this package is an element of R: a Laurent polynomial
in the invertible variable q whose coefficients are ordinary (non-Laurent)
polynomials in the parameters u_1, ..., u_m with integer coefficients.  A
monomial is the pair ``(q_exponent, u_exponents)`` with ``q_exponent`` any
integer and ``u_exponents`` a tuple of ``nvars`` naturals.  An element
keeps one integer per u-monomial and packs the q-polynomial over it into
another (Kronecker substitution q -> 2^64, see ``RingElem``), so two
q-polynomials multiply in one bigint multiply.  Callers read monomials
back through ``sorted_terms`` and ``leading``.  ``add_products`` is the one
keyed sum of products in the package, behind ``+`` and ``*`` too and every
coefficient sum of ``hecke`` and ``schur``, at 64-bit or wider slots: it
fills ``RingElem``s in place, each of which belongs only to its dict until
``_collect`` hands the nonzero ones out, and nothing interns it before
then.  The packed form never leaves this module.

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

Values handed out are immutable; all public operations are pure functions.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

# The prime of every modular specialization: 2^31 - 1 (Mersenne), > 2^30.
MODULAR_PRIME = 2**31 - 1

Monomial = tuple[int, tuple[int, ...]]

# Packed u-monomials: u_1^f_1 ... u_n^f_n is the key sum_i f_i 2^(W (n - i)),
# one W-bit field per exponent.  Key order is the u lex order, and while
# every field stays below 2^(W-1) the product of two monomials is the sum
# of their keys.  q^e u^f reads out as e 2^(W n) + key(u^f), in (q, u) order.
_W = 32
_FIELD = (1 << _W) - 1
U_EXP_MAX = (1 << (_W - 1)) - 1

# Packed q-parts: sum_i c_i q^(lo + i) is (lo, sum_i c_i 2^(S i)), one S-bit
# signed slot per coefficient; S = _S unless the coefficients need more.
_S = 64
_LIMIT = 1 << (_S - 1)
_MASK = (1 << _S) - 1
# Past this many slots q-parts go through bytes, in linear time; shift loops win below.
_BYTES_FROM = 20


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


def _slot_for(bound: int) -> int:
    """The narrowest multiple of _S whose signed slots hold |c| <= bound."""
    return _S * (bound.bit_length() // _S + 1)


def _offset(n: int, slot: int) -> int:
    """2^(slot-1) in each of n slots: added, it makes signed slots unsigned."""
    return int.from_bytes((1 << slot - 1).to_bytes(slot // 8, "little") * n, "little")


def _digits(packed: int, slot: int) -> list[int]:
    """The signed slot values of a packed q-part, lowest first."""
    half, out = 1 << (slot - 1), []
    if packed.bit_length() <= _BYTES_FROM * slot:
        while packed:
            out.append(((packed + half) & (2 * half - 1)) - half)
            packed = (packed - out[-1]) >> slot
        return out
    n, w = packed.bit_length() // slot + 2, slot // 8
    raw = (packed + _offset(n, slot)).to_bytes(n * w, "little")
    if slot == _S and sys.byteorder == "little":
        out = [d - half for d in memoryview(raw).cast("Q")]
    else:
        out = [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, len(raw), w)]
    while not out[-1]:  # n counts up to two slots past the top one
        out.pop()
    return out


def _packed(digits: Sequence[int], slot: int) -> int:
    """The q-part of signed slot values, lowest first: inverse to _digits."""
    if len(digits) <= _BYTES_FROM:
        return sum(d << slot * i for i, d in enumerate(digits))
    w, half = slot // 8, 1 << (slot - 1)
    raw = b"".join((d + half).to_bytes(w, "little") for d in digits)
    return int.from_bytes(raw, "little") - _offset(len(digits), slot)


def _repacked(groups: Mapping, old: int, new: int) -> Mapping:
    """groups with every q-part moved from old-bit to new-bit slots."""
    if old == new:
        return groups
    return {k: (lo, _packed(_digits(p, old), new)) for k, (lo, p) in groups.items()}


class RingElem:
    """An element of Z[q, q^-1, u_1, ..., u_nvars] in canonical packed form.

    ``_groups`` maps each packed u-monomial key to ``(lo, packed)``, the
    q-polynomial sum_i c_i q^(lo+i) over it, c_i in the i-th ``_slot``-bit
    signed slot of ``packed`` = sum_i c_i 2^(slot i).  Canonical form:
    c_0 != 0, no zero group, and ``_slot`` the narrowest multiple of 64 bits
    holding every c_i; elements are equal iff nvars, slot and groups are.

    Two bounds, exact at construction, keep the packing exact.  ``_ubound``
    bounds the u-exponents: the larger bound under + and -, the sum under *,
    and a product past ``U_EXP_MAX`` raises ``RingError``.  ``_cbound``
    bounds the sum of the coefficients' sizes: summed under + and -,
    multiplied under *.  Both run ``add_products``: below 2^63 at 64-bit
    slots, past it at slots that hold the bound, the result then narrowed
    once with an exact bound; no field or slot wraps.  ``terms`` is a
    read-only view.
    """

    __slots__ = ("nvars", "_groups", "_ubound", "_cbound", "_slot", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        if nvars < 0:
            raise RingError("nvars must be nonnegative")
        rows: dict[int, dict[int, int]] = {}
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
                key = 0
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
                rows.setdefault(key, {})[qe] = c
        sizes = [abs(c) for row in rows.values() for c in row.values()]
        self._slot = slot = _slot_for(max(sizes, default=0))
        self._groups = groups = {}
        for key, row in rows.items():
            lo = min(row)
            groups[key] = (lo, sum(c << slot * (qe - lo) for qe, c in row.items()))
        self.nvars = nvars
        self._ubound = top
        self._cbound = sum(sizes)
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
        return not self._groups

    @property
    def terms(self) -> Mapping[int, int]:
        """Read-only {packed (q, u) key: coefficient}, one entry per
        monomial, built on each access; keys sort in the (q, u) lex order."""
        shift, groups = _W * self.nvars, self._groups.items()
        return MappingProxyType({
            (qe << shift) + key: c
            for key, (lo, p) in groups for qe, c in enumerate(_digits(p, self._slot), lo) if c
        })

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
        acc = {0: _make(self.nvars, dict(self._groups), self._ubound, self._cbound, self._slot)}
        add_products(acc, ((0, other),), _ONE)
        return acc[0]

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __neg__(self) -> "RingElem":
        groups = {k: (lo, -p) for k, (lo, p) in self._groups.items()}
        return _make(self.nvars, groups, self._ubound, self._cbound, self._slot)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        acc: dict = {}
        add_products(acc, ((0, self),), other)
        return acc[0]

    def scale(self, c: int) -> "RingElem":
        return self * RingElem.const(c, self.nvars)

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
        same = self.nvars == other.nvars and self._slot == other._slot
        return same and self._groups == other._groups

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self._slot, frozenset(self._groups.items())))
        return self._hash

    # -- canonical order and leading term ---------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms sorted ascending by the canonical (q_exp, u_exps) lex order."""
        n = self.nvars
        return [(_unpack(key, n), c) for key, c in sorted(self.terms.items())]

    def leading(self) -> tuple[Monomial, int]:
        """The lex-largest monomial and its coefficient (error on zero)."""
        if not self._groups:
            raise RingError("zero element has no leading term")
        qe, key, c = self._lead()
        return (qe, _unpack(key, self.nvars)[1]), c

    def _lead(self) -> tuple[int, int, int]:
        """(q-exponent, u-key, coefficient) of the leading term, from each
        group's top q-exponent, read off the bit length of its q-part."""
        slot = self._slot
        qe, key, p = max(
            (lo + abs(p).bit_length() // slot, key, p) for key, (lo, p) in self._groups.items()
        )
        shift = slot * (abs(p).bit_length() // slot)
        return qe, key, (p + (1 << shift >> 1)) >> shift

    # -- specialization ----------------------------------------------------

    def specialize(self, q_val, u_vals: Sequence) -> Fraction:
        """Evaluate at rational q = q_val and u_i = u_vals[i-1], exactly;
        ``ZeroDivisionError`` when q_val = 0 meets a negative q-exponent.  At
        integer points where every q^lo is an integer (q = +-1, or no lo < 0)
        the sum stays in int."""
        x, us = Fraction(q_val), [Fraction(v) for v in u_vals]
        if all(v.denominator == 1 for v in (x, *us)) and (
            abs(x) == 1 or all(lo >= 0 for lo, _ in self._groups.values())
        ):  # then q^lo = q^|lo|
            x, us = int(x), [int(v) for v in us]
            return Fraction(sum(h * x ** abs(lo) for lo, h in self._horner(x, us)))
        return sum((h * x**lo for lo, h in self._horner(x, us)), Fraction(0))

    def specialize_mod(self, p: int, q_val: int, u_vals: Sequence[int]) -> int:
        """Evaluate in the prime field F_p; q_val must be nonzero mod p."""
        if q_val % p == 0:
            raise ZeroDivisionError("q specialization must be invertible mod p")
        total = 0
        for lo, h in self._horner(q_val, u_vals, p):
            total += h * pow(q_val, lo, p)
        return total % p

    def _horner(self, x, us: Sequence, p: int = 0) -> Iterator[tuple[int, object]]:
        """(lo, u^f P(x)) for each group u^f q^lo P(q), P(x) by Horner's rule
        over the digits of the q-part; reduced mod p when p > 0."""
        if len(us) != self.nvars:
            raise RingError(f"expected {self.nvars} u-values, got {len(us)}")
        last_first, slot = us[::-1], self._slot
        for key, (lo, packed) in self._groups.items():
            h = 0
            for d in reversed(_digits(packed, slot)):
                h = h * x + d
                if p:
                    h %= p
            for u in last_first:
                e = key & _FIELD
                if e:
                    h = h * pow(u, e, p) % p if p else h * u**e
                key >>= _W
            yield lo, h

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


def _make(nvars: int, groups: dict, ubound: int, cbound: int, slot: int = _S) -> RingElem:
    """An element from groups at ``slot`` with the given bounds, unchecked.
    The slot is the narrowest holding the coefficients; only a factor handed
    straight to ``add_products`` with a bound past 2^63 may sit wider."""
    res = object.__new__(RingElem)
    res.nvars = nvars
    res._groups = groups
    res._ubound = ubound
    res._cbound = cbound
    res._slot = slot
    res._hash = None
    return res


_ONE = _make(0, {0: (0, 1)}, 0, 1)  # 1, as the factor c2 of a sum: key 0 in any nvars


def _narrow(x: RingElem) -> None:
    """Give x, filled at a wide slot, its exact bound and the narrowest slot
    holding its coefficients, decoding each q-part once."""
    rows = [(k, lo, _digits(p, x._slot)) for k, (lo, p) in x._groups.items()]
    sizes = [abs(d) for _, _, digits in rows for d in digits]
    x._cbound, slot = sum(sizes), _slot_for(max(sizes, default=0))
    if slot != x._slot:
        x._groups, x._slot = {k: (lo, _packed(digits, slot)) for k, lo, digits in rows}, slot


def add_products(acc: dict, items: Iterable[tuple], c2: RingElem) -> None:
    """Add c * c2 into acc[key] for each (key, c) of items, in place; a missing
    key starts at a zero of c's nvars, which c2 must share (or be ``_ONE``).
    Each product of two groups goes into its u-monomial's entry by one
    aligned addition: a q-part meeting one already there is shifted to the
    lower exponent, a cancelled lowest slot is shifted out and a zero sum
    deleted.  The bounds are checked as ``*`` checks them.  An item whose
    bound reaches 2^63 runs the same loop at slots that hold the bound, its
    total, c and c2 repacked there (c2's groups serve for c when c is c2);
    each total so widened is narrowed once, as the call ends.  Every total
    written drops its cached hash.  acc must own its totals: a zero one
    stays in it, and ``_collect`` hands the others out."""
    b, ub2, cb2 = c2._groups.items(), c2._ubound, c2._cbound
    get, slot, mask, wide = acc.get, _S, _MASK, None
    for key, c in items:
        total = get(key)
        if total is None:
            total = acc[key] = _make(c.nvars, {}, 0, 0)
        ubound = c._ubound + ub2
        if ubound > total._ubound:
            if ubound > U_EXP_MAX:
                raise RingError(
                    f"u-exponents of a product may reach {ubound}, past the limit {U_EXP_MAX}"
                )
            total._ubound = ubound
        total._cbound = cbound = total._cbound + c._cbound * cb2
        total._hash = None
        a = c._groups
        if cbound >= _LIMIT:  # below it, every factor of a product has 64-bit slots
            new = _slot_for(cbound)
            if slot != new:
                slot, mask, b = new, (1 << new) - 1, _repacked(c2._groups, c2._slot, new).items()
            a = b.mapping if c is c2 else _repacked(a, c._slot, slot)
            total._groups, total._slot = _repacked(total._groups, total._slot, slot), slot
            wide = wide or {}
            wide[id(total)] = total
        elif slot != _S:
            slot, mask, b = _S, _MASK, c2._groups.items()
        out = total._groups
        oget = out.get
        for ka, (la, pa) in a.items():
            for kb, (lb, pb) in b:
                k, lo, p = ka + kb, la + lb, pa * pb
                old = oget(k)
                if old is not None:
                    lo0, p0 = old
                    if lo0 < lo:
                        p = p0 + (p << slot * (lo - lo0))
                        lo = lo0
                    elif lo < lo0:
                        p += p0 << slot * (lo0 - lo)
                    else:
                        p += p0
                        if not p & mask:
                            if not p:
                                del out[k]
                                continue
                            zeros = ((p & -p).bit_length() - 1) // slot
                            p >>= slot * zeros
                            lo += zeros
                out[k] = (lo, p)
    if wide:
        for total in wide.values():
            _narrow(total)


def _collect(acc: Mapping) -> dict:
    """The nonzero totals of a dict that ``add_products`` filled, handed out."""
    return {key: total for key, total in acc.items() if total._groups}


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
    e_k(u_1, ..., u_m).  The e-fields of a key sit above its u-fields, so
    ``lift`` (zero e-fields) keeps a u-ring element's groups as they are.
    The map is injective on the elements free of u (u_1 + ... + u_m - e_1
    goes to 0).

    Images of e-monomials and of elements are memoised; equal inputs share
    one output.  A term whose u-exponent plus e-degree passes ``U_EXP_MAX``
    raises ``RingError`` before its image is formed.
    """

    __slots__ = ("m", "nvars", "width", "gens", "_monomials", "_images")

    def __init__(self, m: int, nvars: int = 0):
        self.m = m
        self.nvars = nvars
        self.width = max(m, nvars)
        us = [RingElem.u_var(i, self.width) for i in range(1, m + 1)]
        self.gens = elementary_symmetric_of(us)[1:]  # e_1..e_m(u), the images of the e_k
        self._monomials: dict[int, RingElem] = {}
        self._images: dict[RingElem, RingElem] = {}

    def lift(self, c: RingElem) -> RingElem:
        """c in Z[q^±1][u_1..u_nvars], as an element of the domain."""
        if c.nvars != self.nvars:
            raise RingError(f"expected {self.nvars} variables, got {c.nvars}")
        return _make(self.nvars + self.m, c._groups, c._ubound, c._cbound, c._slot)

    def _monomial(self, epart: int, top: int) -> RingElem:
        exps = _unpack(epart, self.m)[1]
        if sum(exps) + top > U_EXP_MAX:  # the u_1-exponent of the image
            raise RingError(
                f"an expansion's u-exponents reach {sum(exps) + top}, past {U_EXP_MAX}"
            )
        out = RingElem.one(self.width)
        for gen, f in zip(self.gens, exps):
            out = out * gen**f
        return out

    def __call__(self, c: RingElem) -> RingElem:
        image = self._images.get(c)
        if image is None:
            n, width = self.nvars, self.width
            if c.nvars != self.m + n:
                raise RingError(f"expected {self.m + n} variables, got {c.nvars}")
            ubits, pad = _W * n, _W * (width - n)
            acc = {0: _make(width, {}, 0, 0)}
            for key, group in c._groups.items():
                epart, upart = divmod(key, 1 << ubits)
                top = max(_unpack(upart, n)[1], default=0)
                mono = self._monomials.get(epart)
                if mono is None:
                    mono = self._monomials[epart] = self._monomial(epart, top)
                term = _make(width, {upart << pad: group}, top, c._cbound, c._slot)
                add_products(acc, ((0, mono),), term)
            image = self._images[c] = acc[0]
        return image


def elementary_symmetric_of(values: Sequence[RingElem]) -> list[RingElem]:
    """[e_0, ..., e_n] evaluated at the n values, by e_k <- e_k + v e_(k-1)
    for each value v in turn: n(n+1)/2 ring products."""
    if not values:
        raise RingError("need at least the ambient nvars; pass values or use const")
    es = [RingElem.one(values[0].nvars)]
    for v in values:
        es.append(v * es[-1])
        for k in range(len(es) - 2, 0, -1):
            es[k] = es[k] + v * es[k - 1]
    return es


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
    The lowest q-exponent is additive too, so no quotient term lies below
    low(a) - low(b); a step that would is inexact, which ends the loop.
    """
    a._check(b)
    if b.is_zero():
        raise ExactDivisionError("division by zero")
    n, high = a.nvars, ((1 << _W * a.nvars) - 1) // _FIELD << (_W - 1)  # u-fields' top bits
    qb, kb, cb = b._lead()
    floor = min((lo for lo, _ in a._groups.values()), default=0) - min(
        lo for lo, _ in b._groups.values()
    )
    quotient, rem = _make(n, {}, 0, 0), a
    while not rem.is_zero():
        qa, ka, ca = rem._lead()
        diff = ka + high - kb  # fields < 2^31: a top bit clears iff b's exponent is larger
        if ca % cb or diff & high != high or qa - qb < floor:
            raise ExactDivisionError("leading term does not divide")
        c, key = ca // cb, diff - high
        top = max(_unpack(key, n)[1], default=0)
        mon = _make(n, {key: (qa - qb, c)}, top, abs(c), _slot_for(abs(c)))
        quotient, rem = quotient + mon, rem - mon * b
    return quotient


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
