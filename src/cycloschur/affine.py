"""The extended affine Hecke algebra of type A on its Bernstein-style basis.

Free R-module with basis T_w X^a, w a permutation of {1..r} and a in Z^r
(signed exponents, all X_j invertible), subject to the same quadratic,
braid and exchange relations as the finite case:

    T_i X_i T_i = q X_{i+1},  T_i X_j = X_j T_i  (j != i, i+1),

but with NO polynomial relation on X_1.  Straightening uses the identical
three-case formula as the cyclotomic engine; right multiplication by X^a
is a plain exponent shift.  ``epsilon_u`` is the evaluation onto the
cyclotomic quotient, T_w -> T_w and X_j -> L_j; it is defined here for
nonnegative exponents, and for negative powers of X_1 only when a verified
inverse of e_m(u) is supplied (negative powers of X_j, j > 1, are
rejected).  Like a product, it multiplies coefficients in last, onto each
L^a as straightened once per target algebra (``HeckeAlgebra._jm_forms``).
"""

from __future__ import annotations

import math
from typing import Sequence

from .hecke import (
    AlgebraBase,
    ElementBase,
    HeckeAlgebra,
    HeckeElement,
    TermKey,
    _sum_of_products,
    _terms_to_json,
    sigma_nu,
)
from .permutations import Permutation, all_perms, identity
from .ring import _ONE, RingElem

class AffineElement(ElementBase):
    """Sparse R-linear combination of monomials T_w X^a, a in Z^r."""

    __slots__ = ()

    symbol = "X"

    def __mul__(self, other: AffineElement) -> AffineElement:
        return self._product(other)


class AffineAlgebra(AlgebraBase):
    """Context: rank r and the coefficient ring's u-variable count."""

    element_type = AffineElement

    def __init__(self, r: int, nvars: int = 0):
        if r < 1:
            raise ValueError("need r >= 1")
        self._init_ring(r, nvars)

    def _signature(self):
        return (self.r, self.nvars)

    def __repr__(self):
        return f"AffineAlgebra(r={self.r})"

    def x_monomial(self, a: Sequence[int]) -> AffineElement:
        a = tuple(int(v) for v in a)
        if len(a) != self.r:
            raise ValueError("exponent vector length mismatch")
        return AffineElement(self, {(identity(self.r), a): self._one})

    monomial = x_monomial

    def _exponent_path(self, w: Permutation, a: tuple[int, ...]) -> list:
        """One node (w, a), reached by a shift (none if a = 0)."""
        return [((w, a), (_shift, a))] if any(a) else []


def _shift(alg: AffineAlgebra, terms: dict, a: tuple[int, ...]) -> dict:
    """terms * X^a: a shift, one-to-one on keys."""
    return {(w, tuple(x + y for x, y in zip(b, a))): c for (w, b), c in terms.items()}


# The blockwise elementary symmetric X-polynomials: the cyclotomic builder
# serves both engines, each multiplying through its own ``_product``.
affine_sigma = sigma_nu


def _l1_inverse(target: HeckeAlgebra, em_inverse: RingElem) -> HeckeElement:
    """L_1^{-1} in the cyclotomic quotient, given a verified e_m(u)^{-1}."""
    m = target.m
    # e_k(u) = (-1)^(k+1) overflow[k-1], and e_0 = 1
    e = [target.one_c] + [c.scale((-1) ** k) for k, c in enumerate(target.overflow)]
    if em_inverse * e[m] != RingElem.one(target.nvars):
        raise ValueError("supplied element is not an inverse of e_m(u)")
    # L_1^{-1} = (-1)^(m+1) e_m^{-1} sum_k (-1)^k e_k L_1^(m-1-k): one monomial per k
    s, zeros = em_inverse.scale((-1) ** (m + 1)), (0,) * (target.r - 1)
    return target.elem({(identity(target.r), (m - 1 - k,) + zeros): e[k].scale((-1) ** k) * s
                        for k in range(m)})


def epsilon_u(
    x: AffineElement,
    target: HeckeAlgebra,
    em_inverse: RingElem | None = None,
) -> HeckeElement:
    """Evaluation onto the cyclotomic quotient: T_w -> T_w, X_j -> L_j.

    Nonnegative exponents always work.  Negative powers of X_1 require a
    verified inverse of e_m(u); negative powers of X_j for j > 1 are
    rejected.  Every exponent is checked before any straightening.

    The terms are grouped by exponent a into P_a = sum_w c_{w,a} T_w.  Each
    P_a * L^a is formed like a product onto target's coefficient-one L^a
    (``_jm_forms``, straightened once per algebra), the constants of L^a
    multiplied in last.  A power X_1^{-k} joins the group of k, whose sum
    is multiplied by L_1^{-k} at the end.
    """
    alg = x.alg
    if target.r != alg.r:
        raise ValueError("rank mismatch")
    if target.nvars != alg.nvars:
        raise ValueError("coefficient rings differ")
    if any(e < 0 for _, a in x._terms for e in a[1:]):
        raise ValueError("negative powers of X_j (j > 1) have no direct image")
    l1_inv: HeckeElement | None = None
    if any(a[0] < 0 for _, a in x._terms):
        if em_inverse is None:
            raise ValueError("negative powers of X_1 need a verified inverse of e_m(u)")
        l1_inv = _l1_inverse(target, em_inverse)
    # k -> a with a_1 clamped at 0 -> the terms of P_a, lifted to target's
    # coefficients, for the terms of x whose power of X_1 is -k (k = 0 for
    # every nonnegative power)
    groups: dict[int, dict[tuple[int, ...], dict[TermKey, RingElem]]] = {}
    zero_a = (0,) * alg.r
    lift = target._lift
    for (w, a), c in x._terms.items():
        a_plus = (max(a[0], 0),) + a[1:]
        groups.setdefault(max(-a[0], 0), {}).setdefault(a_plus, {})[(w, zero_a)] = lift(c)
    powers = target._jm_forms(a for by_a in groups.values() for a in by_a)
    parts = []
    for k, by_a in groups.items():
        part = HeckeElement(target, _sum_of_products(
            (HeckeElement(target, p_terms), powers[a]) for a, p_terms in by_a.items()))
        for _ in range(k):
            part = part * l1_inv
        parts.append(part)
    # one part is the answer as it stands: a sum would copy it
    return parts[0] if len(parts) == 1 else HeckeElement._sum(target, ((p, _ONE) for p in parts))


def coefficient_symmetry_check(z: AffineElement) -> bool:
    """Are the basis coefficients constant in w and symmetric in a?

    Checks c_{w,a} = c_{w',a} for all w, w' (with every w present whenever
    some coefficient at a is nonzero) and c_a = c_{a o v} for every place
    permutation v.
    """
    r = z.alg.r
    group = list(all_perms(r))
    by_a: dict[tuple[int, ...], dict[Permutation, RingElem]] = {}
    for (w, a), c in z.terms.items():
        by_a.setdefault(a, {})[w] = c
    values: dict[tuple[int, ...], RingElem] = {}
    for a, per_w in by_a.items():
        if len(per_w) != math.factorial(r):
            return False
        vals = set(per_w.values())
        if len(vals) != 1:
            return False
        values[a] = vals.pop()
    for a, c in values.items():
        for v in group:
            if values.get(v.apply_to_tuple(a)) != c:
                return False
    return True


def affine_to_json(x: AffineElement) -> dict:
    return {"r": x.alg.r, "terms": _terms_to_json(x)}
