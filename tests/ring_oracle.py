"""Independent oracle for the ground ring: tuple-keyed sparse polynomials.

A monomial is the pair ``(q_exponent, u_exponents)`` and an element is a
dict from monomials to nonzero integers, multiplied term pair by term pair
with a fresh tuple key each time.  This is the straightforward
representation ``cycloschur.ring`` used before it packed monomials and
q-polynomials into integers; the ring tests compare the packed arithmetic
against it.
"""

from __future__ import annotations

import itertools
from typing import Sequence

Monomial = tuple[int, tuple[int, ...]]


class OracleElem:
    """An element of Z[q, q^-1, u_1..u_nvars] keyed by (q, u-tuple)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, int] | None = None):
        self.nvars = nvars
        self.terms = {
            (qe, tuple(ue)): c for (qe, ue), c in (terms or {}).items() if c
        }

    @staticmethod
    def one(nvars: int) -> "OracleElem":
        return OracleElem(nvars, {(0, (0,) * nvars): 1})

    def __add__(self, other: "OracleElem") -> "OracleElem":
        out = dict(self.terms)
        for mon, c in other.terms.items():
            new = out.get(mon, 0) + c
            if new:
                out[mon] = new
            else:
                out.pop(mon, None)
        return OracleElem(self.nvars, out)

    def __neg__(self) -> "OracleElem":
        return OracleElem(self.nvars, {mon: -c for mon, c in self.terms.items()})

    def __sub__(self, other: "OracleElem") -> "OracleElem":
        return self + (-other)

    def __mul__(self, other: "OracleElem") -> "OracleElem":
        out: dict[Monomial, int] = {}
        for (qa, ua), ca in self.terms.items():
            for (qb, ub), cb in other.terms.items():
                mon = (qa + qb, tuple(x + y for x, y in zip(ua, ub)))
                new = out.get(mon, 0) + ca * cb
                if new:
                    out[mon] = new
                else:
                    del out[mon]
        return OracleElem(self.nvars, out)

    def scale(self, c: int) -> "OracleElem":
        return OracleElem(self.nvars, {mon: c * v for mon, v in self.terms.items()})

    def __pow__(self, k: int) -> "OracleElem":
        result = OracleElem.one(self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items())

    def leading(self) -> tuple[Monomial, int]:
        mon = max(self.terms)
        return mon, self.terms[mon]

    def specialize_mod(self, p: int, q_val: int, u_vals: Sequence[int]) -> int:
        total = 0
        for (qe, ue), c in self.terms.items():
            val = c % p
            val = val * pow(q_val, qe, p) % p
            for u, e in zip(u_vals, ue):
                if e:
                    val = val * pow(u, e, p) % p
            total = (total + val) % p
        return total

    def to_json(self) -> list[dict]:
        return [
            {"c": c, "q": qe, "u": list(ue)} for (qe, ue), c in self.sorted_terms()
        ]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (qe, ue), c in self.sorted_terms():
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


def elementary(k: int, m: int) -> OracleElem:
    """e_k(u_1, ..., u_m): one monomial per k-subset of the variables."""
    return OracleElem(m, {
        (0, tuple(int(i in subset) for i in range(m))): 1
        for subset in itertools.combinations(range(m), k)
    })


def substitute(x: OracleElem, images: Sequence[OracleElem]) -> OracleElem:
    """x with its i-th variable replaced by images[i - 1], q kept."""
    nvars = images[0].nvars
    total = OracleElem(nvars)
    for (qe, ue), c in x.terms.items():
        term = OracleElem(nvars, {(qe, (0,) * nvars): c})
        for image, f in zip(images, ue):
            term = term * image**f
        total = total + term
    return total


def shift_digits(packed: int, slot: int) -> list[int]:
    """The signed slot-bit digits of packed, lowest first, one shift per
    slot: the loop ``ring._digits`` keeps below its byte threshold."""
    half, out = 1 << (slot - 1), []
    while packed:
        out.append(((packed + half) & (2 * half - 1)) - half)
        packed = (packed - out[-1]) >> slot
    return out


def shift_packed(digits: Sequence[int], slot: int) -> int:
    """The integer whose signed slot-bit digits are digits, lowest first."""
    return sum(d << slot * i for i, d in enumerate(digits))
