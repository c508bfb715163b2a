"""Signed-permutation (hyperoctahedral) comparison layer for m = 2.

With two colors the wreath group is the Coxeter group of type B on
generators s_0, s_1, ..., s_{r-1}, and the two-parameter specialization
u = (-1, q0) of the cyclotomic algebra is its Hecke algebra: T_0 := L_1
satisfies (T_0 + 1)(T_0 - q0) = 0 and braids with T_1.  Products of
generators along reduced words give a well-defined basis {t_w} indexed by
signed permutations.

This module provides reduced words by breadth-first search over the
Cayley graph (lex-least shortest word per element), t_w products in any
compatible engine, double-coset T-sums, the minimal double-coset elements
d_i = tau_1 ... tau_i (tau_j = s_{j-1} ... s_1 s_0) and their shifted
analogues, and the cross-checks tying the hom-basis vectors b_A to
double-coset sums: single-row coset identities, the shifted q^{-ai}
scaling, the full product formula with prefactor prod q^{-a~_{ij}
a^{(1)}_{ij}}, and the group-algebra degeneration at q = q0 = 1.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .guards import check_guard
from .hecke import HeckeAlgebra, HeckeElement, sigma_elementary
from .permutations import (
    Permutation,
    check_composition,
    coset_reps_within,
    theta_inverse,
    young_subgroup,
)
from .ring import RingElem
from .schur import b_element_of
from .wreath import (
    ColoredMatrix,
    ColoredPerm,
    colored_col_sums,
    colored_from_uncolored,
    colored_identity,
    colored_mul,
    colored_row_sums,
    colored_simple,
    colored_t,
    colored_word,
    double_coset_rep,
    enumerate_colored,
    j_supported,
    matrix_record,
    nu_colored,
    tilde_offsets,
)

_WORD_CACHE: dict[int, dict[ColoredPerm, tuple[int, ...]]] = {}


def typeb_algebra(r: int) -> HeckeAlgebra:
    """The m = 2 engine at u = (-1, q0), with q0 the single parameter."""
    minus_one = RingElem.const(-1, 1)
    q0 = RingElem.u_var(1, 1)
    return HeckeAlgebra(2, r, nvars=1, u_params=(minus_one, q0))


def signed_words(r: int, guard: int | None = None) -> dict[ColoredPerm, tuple[int, ...]]:
    """Lex-least reduced word for every signed permutation of rank r.

    Letter 0 is the sign flip at position one; letter i >= 1 is the
    adjacent transposition s_i.  Breadth-first search in generation order
    yields, for each element, the lexicographically least among its
    shortest words.
    """
    check_guard((2**r) * math.factorial(r), guard, f"signed permutation group of rank {r}")
    cached = _WORD_CACHE.get(r)
    if cached is not None:
        return cached
    gens = [colored_t(1, 2, r)] + [colored_simple(i, 2, r) for i in range(1, r)]
    words: dict[ColoredPerm, tuple[int, ...]] = {colored_identity(2, r): ()}
    frontier = [colored_identity(2, r)]
    while frontier:
        nxt = []
        for w in frontier:
            base = words[w]
            for gi, g in enumerate(gens):
                w2 = colored_mul(w, g)
                if w2 not in words:
                    words[w2] = base + (gi,)
                    nxt.append(w2)
        frontier = nxt
    _WORD_CACHE[r] = words
    return words


def t_element(alg: HeckeAlgebra, word: Sequence[int]) -> HeckeElement:
    """The product of generators along a word; letter 0 multiplies by L_1."""
    out = alg.one()
    for i in word:
        out = out.rmul_gen_L(1) if i == 0 else out.rmul_gen_T(i)
    return out


def t_of(alg: HeckeAlgebra, w: ColoredPerm) -> HeckeElement:
    if alg.m != 2 or alg.r != w.perm.size:
        raise ValueError("element and algebra do not match")
    return t_element(alg, signed_words(alg.r)[w])


def coset_sum(alg: HeckeAlgebra, elements: Iterable[ColoredPerm]) -> HeckeElement:
    return alg.combination((t_of(alg, w), alg.one_c) for w in elements)


# -- distinguished elements -------------------------------------------------


def tau_word(j: int) -> tuple[int, ...]:
    """s_{j-1} s_{j-2} ... s_1 s_0 as a word."""
    return tuple(range(j - 1, -1, -1))


def d_i_word(i: int) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for j in range(1, i + 1):
        out = out + tau_word(j)
    return out


def flip_word(j: int) -> tuple[int, ...]:
    """The palindromic word of the sign flip at position j."""
    return tuple(range(j - 1, 0, -1)) + (0,) + tuple(range(1, j))


def shifted_d_word(a: int, i: int) -> tuple[int, ...]:
    """The minimal representative with i flips among positions > a."""
    out: tuple[int, ...] = ()
    for t in range(1, i + 1):
        out = out + tuple(range(a + t - 1, a, -1)) + flip_word(a + 1)
    return out


def uncolored_subgroup(lam: Sequence[int], r: int) -> list[ColoredPerm]:
    lam = check_composition(lam)
    if sum(lam) != r:
        raise ValueError(f"{lam} is not a composition of {r}")
    return [colored_from_uncolored(w, 2) for w in young_subgroup(lam)]


def double_coset_elements(
    lam: Sequence[int], c: ColoredPerm, mu: Sequence[int], guard: int | None = None
) -> set[ColoredPerm]:
    """All x c y with x, y in the uncolored Young subgroups of lam, mu."""
    r = c.perm.size
    left = uncolored_subgroup(lam, r)
    right = uncolored_subgroup(mu, r)
    check_guard(len(left) * len(right), guard, "double coset enumeration")
    return {
        colored_mul(colored_mul(x, c), y) for x in left for y in right
    }


def matrix_double_coset(A: ColoredMatrix, guard: int | None = None) -> set[ColoredPerm]:
    return double_coset_elements(
        colored_row_sums(A), double_coset_rep(A), colored_col_sums(A), guard
    )


# -- cross-checks -----------------------------------------------------------


def verify_single_row_coset_basis(
    r: int, alg: HeckeAlgebra | None = None, guard: int | None = None
) -> dict:
    """x_(r) sigma_i equals the T-sum over the i-flip double coset of d_i:
    the shifted identity at a = 0, b = r (shifted_d_word(0, i) = d_i_word(i))."""
    return verify_shifted_coset_identity(0, r, r, alg, guard)


def verify_shifted_coset_identity(
    a: int, b: int, r: int, alg: HeckeAlgebra | None = None, guard: int | None = None
) -> dict:
    """x^a_b sigma^a_{b,i} = q^{-ai} T_{coset} for all 0 <= i <= b.

    The subgroup permutes positions a+1 .. a+b only, and the coset is
    taken inside the signed subgroup on those positions.
    """
    if b < 1 or a < 0 or a + b > r:
        raise ValueError("need b >= 1 and a + b <= r")
    if alg is None:
        alg = typeb_algebra(r)
    mu_ab = (1,) * a + (b,) + (1,) * (r - a - b)
    x = alg.x_lambda(mu_ab, guard)
    positions = tuple(range(a + 1, a + b + 1))
    results = []
    ok = True
    for i in range(b + 1):
        lhs = x * sigma_elementary(alg, i, positions=positions)
        d = colored_word(shifted_d_word(a, i), 2, r)
        coset = double_coset_elements(mu_ab, d, mu_ab)
        rhs = coset_sum(alg, coset).scale(RingElem.q_power(-a * i, alg.nvars))
        good = lhs == rhs
        ok = ok and good
        results.append({"i": i, "coset_size": len(coset), "ok": good})
    return {"a": a, "b": b, "r": r, "ok": ok, "cases": results}


def route_product(alg: HeckeAlgebra, A: ColoredMatrix) -> HeckeElement:
    """The alternative product formula for b_A (two colors only).

    q^{-sum of offsets times first-color counts} x_lam T_d (product of
    shifted minimal-flip factors in column-major order) (sum of T_w over
    the representatives of the color-refined stabilizer inside S_mu).
    """
    if alg.m != 2:
        raise ValueError("the product formula is specific to two colors")
    size, lam, mu, _, nu, _ = matrix_record(A)
    if alg.r != sum(lam):
        raise ValueError("rank mismatch")
    offsets = tilde_offsets(A)
    supported = set(j_supported(A))
    n = len(A)
    exponent = 0
    elem = alg.x_lambda(lam) * alg.from_perm(theta_inverse(size))
    for j in range(n):
        for i in range(n):
            if (i, j) not in supported:
                continue
            a_off = offsets[(i, j)]
            c1 = A[i][j][0]
            exponent += a_off * c1
            elem = elem * t_element(alg, shifted_d_word(a_off, c1))
    seq = alg.elem({(w, (0,) * alg.r): alg.one_c for w in coset_reps_within(mu, nu)})
    return (elem * seq).scale(RingElem.q_power(-exponent, alg.nvars))


def verify_route_agreement(
    n: int, r: int, alg: HeckeAlgebra | None = None, sample: int | None = None, seed: int = 0
) -> dict:
    """b_A built from the symmetric-element definition equals the
    column-major flip-factor product, over Theta_2(n, r)."""
    if alg is None:
        alg = typeb_algebra(r)
    basis = list(enumerate_colored(n, r, 2))
    if sample is not None and sample < len(basis):
        basis = random.Random(seed).sample(basis, k=sample)
    bad = [A for A in basis if b_element_of(alg, A) != route_product(alg, A)]
    return {"n": n, "r": r, "checked": len(basis), "ok": not bad, "failures": bad}


def group_specialize(x: HeckeElement) -> dict[tuple[Permutation, tuple[int, ...]], Fraction]:
    """Coordinates of x in the group algebra at q = 1 and split parameters.

    For the two-variable generic engine the parameters go to (-1, 1); for
    the one-variable engine the remaining parameter goes to 1.  Either
    way L_1 becomes the order-two flip.
    """
    nvars = x.alg.nvars
    if x.alg.m != 2:
        raise ValueError("two colors expected")
    if nvars == 2:
        u_vals: tuple = (Fraction(-1), Fraction(1))
    elif nvars == 1:
        u_vals = (Fraction(1),)
    else:
        raise ValueError("unrecognized parameter layout")
    out: dict[tuple[Permutation, tuple[int, ...]], Fraction] = {}
    for (w, a), c in x.terms.items():
        val = c.specialize(Fraction(1), u_vals)
        if val:
            out[(w, a)] = val
    return out


def group_element_key(w: ColoredPerm) -> tuple[Permutation, tuple[int, ...]]:
    """The normal-form coordinate T_perm L^colors of a group element."""
    return (w.perm, w.colors)


def group_values(x: HeckeElement) -> dict[tuple[Permutation, tuple[int, ...]], int]:
    """``group_specialize(x)`` of the two-variable engine, in ints: at q = 1
    each coefficient is the sum of its groups' Horner values at u = (-1, 1)."""
    values = {key: sum(h for _, h in c._horner(1, (-1, 1))) for key, c in x.terms.items()}
    return {key: val for key, val in values.items() if val}


def double_coset_keys(A: ColoredMatrix) -> set[tuple[Permutation, tuple[int, ...]]]:
    """``group_element_key`` of each element x c y of ``matrix_double_coset(A)``:
    (x * c.perm * y, c.colors read through y), from the tabled Young subgroups."""
    _, lam, mu, _, _, c = matrix_record(A)
    left, right = young_subgroup(lam), young_subgroup(mu)
    check_guard(len(left) * len(right), None, "double coset enumeration")
    colored = [(y, y.apply_to_tuple(c.colors)) for y in right]
    return {(xc * y, colors) for xc in [x * c.perm for x in left] for y, colors in colored}


def verify_group_algebra_basis(n: int, r: int) -> dict:
    """At q = 1, u = (-1, 1) every b_A degenerates to its double-coset sum."""
    alg = HeckeAlgebra(2, r)
    basis = list(enumerate_colored(n, r, 2))
    bad = [
        A for A in basis
        if group_values(b_element_of(alg, A)) != dict.fromkeys(double_coset_keys(A), 1)
    ]
    return {"n": n, "r": r, "checked": len(basis), "ok": not bad, "failures": bad}


def example_matrix() -> ColoredMatrix:
    return (((0, 0), (1, 0)), ((1, 1), (0, 0)))


def verify_worked_example(alg: HeckeAlgebra | None = None) -> dict:
    """The worked two-color rank-3 case: factorization of the minimal
    colored representative, the T-product expansion, and the three-coset
    form of b_A."""
    if alg is None:
        alg = typeb_algebra(3)
    A = example_matrix()
    lam, mu = (1, 2), (2, 1)
    checks: dict[str, bool] = {}

    # group-level factorization: (s1 s2) t1 t3 = s0 s1 s0 s2
    lhs_g = colored_mul(
        colored_mul(colored_word((1, 2), 2, 3), colored_t(1, 2, 3)),
        colored_t(3, 2, 3),
    )
    checks["factorization"] = lhs_g == colored_word((0, 1, 0, 2), 2, 3)
    checks["minimal_rep"] = double_coset_rep(A) == colored_word((0, 1, 0, 2), 2, 3)

    q = alg.q
    one = alg.one_c
    lead = t_element(alg, (1, 2)) * t_element(alg, (0,)) * t_element(alg, flip_word(3))
    expansion = (
        t_element(alg, (0, 1, 0, 2)).scale(q * q)
        + t_element(alg, (1, 0, 1, 0, 2)).scale(q * (q - one))
        + t_element(alg, (1, 2, 0, 1, 0, 1, 2)).scale(q - one)
    )
    checks["t_product_expansion"] = lead == expansion

    b = b_element_of(alg, A)
    x_lam = alg.x_lambda(lam)
    x_mu = alg.x_lambda(mu)
    qinv = RingElem.q_power(-1, alg.nvars)
    checks["b_from_lead"] = b == (x_lam * lead * x_mu).scale(qinv * qinv)

    c = qinv * (q - one)
    sandwich = (
        x_lam * t_element(alg, (0, 1, 0, 2)) * x_mu
        + (x_lam * t_element(alg, (1, 0, 1, 0, 2)) * x_mu).scale(c)
        + (x_lam * t_element(alg, (1, 2, 0, 1, 0, 2)) * x_mu).scale(c)
    )
    checks["b_three_sandwiches"] = b == sandwich

    cosets = (
        coset_sum(alg, double_coset_elements(lam, colored_word((0, 1, 0, 2), 2, 3), mu))
        + coset_sum(
            alg, double_coset_elements(lam, colored_word((1, 0, 1, 0, 2), 2, 3), mu)
        ).scale(c)
        + coset_sum(
            alg, double_coset_elements(lam, colored_word((1, 2, 0, 1, 0, 2), 2, 3), mu)
        ).scale(c)
    )
    checks["b_three_cosets"] = b == cosets
    checks["stabilizer_composition"] = nu_colored(A) == (0, 0, 1, 1, 1, 0, 0, 0)
    return {"ok": all(checks.values()), "checks": checks}


def signed_poincare(r: int) -> dict[int, int]:
    """Length generating function of the signed permutation group."""
    counts: dict[int, int] = {}
    for word in signed_words(r).values():
        counts[len(word)] = counts.get(len(word), 0) + 1
    return counts
