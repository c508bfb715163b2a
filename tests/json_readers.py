"""Readers for the JSON the package writes, used by the tests' round trips.

The package only writes elements (``element_to_json``, ``affine_to_json``);
nothing in it reads them back.  These readers invert the writers, rejecting
any key that is not a monomial of the algebra, so that a round trip checks
the written form.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from cycloschur.affine import AffineAlgebra, AffineElement
from cycloschur.hecke import AlgebraBase, HeckeAlgebra, HeckeElement, TermKey
from cycloschur.permutations import Permutation
from cycloschur.ring import RingElem


def terms_from_json(
    alg: AlgebraBase, items: Iterable[Mapping], colors: int | None = None
) -> dict[TermKey, RingElem]:
    """Read a term list back, rejecting any key that is not a monomial of
    alg: w of size r and r exponents, in 0..colors-1 if colors is given."""
    terms: dict[TermKey, RingElem] = {}
    for item in items:
        w = Permutation(tuple(int(v) for v in item["w"]))
        if w.size != alg.r:
            raise ValueError("permutation size mismatch")
        a = tuple(int(v) for v in item["a"])
        in_range = colors is None or all(0 <= e < colors for e in a)
        if len(a) != alg.r or not in_range:
            raise ValueError(f"bad exponent vector {a}")
        c = RingElem.from_json(item["poly"], alg.nvars)
        # A repeated key adds up, by RingElem.__add__; a zero sum is dropped.
        total = terms.pop((w, a), None)
        total = c if total is None else total + c
        if not total.is_zero():
            terms[(w, a)] = total
    return terms


def element_from_json(alg: HeckeAlgebra, data: Mapping) -> HeckeElement:
    if int(data["m"]) != alg.m or int(data["r"]) != alg.r:
        raise ValueError("serialized element belongs to a different algebra")
    return alg.elem(terms_from_json(alg, data["terms"], alg.m))


def affine_from_json(alg: AffineAlgebra, data: Mapping) -> AffineElement:
    if int(data["r"]) != alg.r:
        raise ValueError("serialized element has a different rank")
    return alg.elem(terms_from_json(alg, data["terms"]))
