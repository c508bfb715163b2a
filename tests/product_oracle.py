"""Independent oracle for engine products: the per-term loop over the direct rules.

``product`` straightens the left factor afresh for every term T_w M^a of
the right factor, one generator at a time, and adds each piece into the
result with ``RingElem`` arithmetic.  Every step applies the three-case
rule or the cyclotomic overflow chain to every term directly: nothing is
tabulated, no prefix is shared, and no sum is accumulated in place.  This
is how ``cycloschur.hecke`` formed products before it kept step tables;
the tests compare the engine's products against it.

``epsilon`` is the evaluation of an affine element onto the cyclotomic
algebra the same way: each term's coefficient is straightened through
L_1^{a_1} ... L_r^{a_r} one letter at a time, coefficient first, as
``cycloschur.affine.epsilon_u`` did before it multiplied coefficients in
last.

``sigma_nu`` and ``tail`` form sigma(A) and tail(A) = T_d sigma(A) (sum of
T_v) as ``cycloschur.hecke``/``cycloschur.schur`` did before sigma was
multiplied out on exponent vectors: one engine product per elementary
factor e_t(L's of a block), each factor a sum of monomials built one by
one (``elementary``), and T_d multiplied in as a product of its own.
"""

from __future__ import annotations

import itertools

from cycloschur.permutations import (
    Permutation,
    blocks,
    coset_reps_within,
    identity,
    nu_of,
    reduced_word,
    theta_inverse,
)
from cycloschur.ring import RingElem
from cycloschur.wreath import a_ddot, colored_col_sums, colored_size


def _add(out: dict, key, c: RingElem) -> None:
    cur = out.get(key)
    new = c if cur is None else cur + c
    if new.is_zero():
        out.pop(key, None)
    else:
        out[key] = new


def _swap_positions(w: Permutation, i: int) -> Permutation:
    im = list(w.im)
    im[i - 1], im[i] = im[i], im[i - 1]
    return Permutation(tuple(im))


def rmul_T(alg, terms: dict, i: int) -> dict:
    """terms * T_i by the three-case rule, term by term."""
    q, one = alg.q, alg.one_c
    qm1 = q - one
    out: dict = {}
    for (w, a), c in terms.items():
        ai, aj = a[i - 1], a[i]
        a_sw = a[: i - 1] + (aj, ai) + a[i + 1 :]
        wsi = _swap_positions(w, i)
        if w.im[i - 1] < w.im[i]:
            _add(out, (wsi, a_sw), c)
        else:
            _add(out, (w, a_sw), c * qm1)
            _add(out, (wsi, a_sw), c * q)
        if ai < aj:
            for t in range(1, aj - ai + 1):
                b = list(a_sw)
                b[i - 1] -= t
                b[i] += t
                _add(out, (w, tuple(b)), c * qm1)
        elif ai > aj:
            for t in range(0, ai - aj):
                b = list(a_sw)
                b[i - 1] += t
                b[i] -= t
                _add(out, (w, tuple(b)), c * (one - q))
    return out


def rmul_L(alg, terms: dict, j: int) -> dict:
    """terms * L_j: shift, or reduce through L_1^m and the chain
    L_j = q^{1-j} T_{j-1}..T_1 L_1 T_1..T_{j-1}."""
    m = alg.m
    out: dict = {}
    high: dict = {}
    for (w, a), c in terms.items():
        if a[j - 1] < m - 1:
            _add(out, (w, a[: j - 1] + (a[j - 1] + 1,) + a[j:]), c)
        elif j == 1:
            for k in range(1, m + 1):
                _add(out, (w, (m - k,) + a[1:]), c * alg.overflow[k - 1])
        else:
            high[(w, a)] = c
    if high:
        cur = high
        for i in range(j - 1, 0, -1):
            cur = rmul_T(alg, cur, i)
        cur = rmul_L(alg, cur, 1)
        for i in range(1, j):
            cur = rmul_T(alg, cur, i)
        scale = RingElem.q_power(1 - j, alg.nvars)
        for key, c in cur.items():
            _add(out, key, c * scale)
    return out


def shift(terms: dict, a: tuple[int, ...]) -> dict:
    """terms * X^a in the affine engine: a plain exponent shift."""
    return {(w, tuple(x + y for x, y in zip(b, a))): c for (w, b), c in terms.items()}


def product(alg, left: dict, right: dict, affine: bool = False) -> dict:
    """The normal form of left * right, both given as {(w, a): RingElem}."""
    out: dict = {}
    for (w2, a2), c2 in right.items():
        cur = left
        for letter in reduced_word(w2):
            cur = rmul_T(alg, cur, letter)
        if affine:
            cur = shift(cur, a2)
        else:
            for j, e in enumerate(a2, start=1):
                for _ in range(e):
                    cur = rmul_L(alg, cur, j)
        for key, c in cur.items():
            _add(out, key, c * c2)
    return out


def l1_inverse(alg, em_inverse: RingElem) -> dict:
    """L_1^{-1} = (-1)^(m+1) e_m^{-1} sum_{k<m} (-1)^k e_k L_1^(m-1-k), from
    prod_i (L_1 - u_i) = 0; raises unless em_inverse * e_m = 1."""
    m, r = alg.m, alg.r
    # overflow[k-1] = (-1)^(k+1) e_k
    e = [alg.one_c] + [c.scale((-1) ** (k + 1)) for k, c in enumerate(alg.overflow, 1)]
    if em_inverse * e[m] != alg.one_c:
        raise ValueError("not an inverse of e_m(u)")
    lead = em_inverse.scale((-1) ** (m + 1))
    out: dict = {}
    for k in range(m):
        _add(out, (identity(r), (m - 1 - k,) + (0,) * (r - 1)), lead * e[k].scale((-1) ** k))
    return out


def epsilon(alg, terms: dict, em_inverse: RingElem | None = None) -> dict:
    """T_w -> T_w, X_j -> L_j on an affine {(w, a): c}, into the cyclotomic
    algebra alg, term by term; X_1^{-1} maps to ``l1_inverse``."""
    zero = (0,) * alg.r
    out: dict = {}
    for (w, a), c in terms.items():
        if any(e < 0 for e in a[1:]):
            raise ValueError("negative powers of X_j (j > 1) have no direct image")
        cur = {(w, zero): c}
        for j, e in enumerate(a, start=1):
            for _ in range(max(e, 0)):
                cur = rmul_L(alg, cur, j)
        if a[0] < 0:
            if em_inverse is None:
                raise ValueError("negative powers of X_1 need an inverse of e_m(u)")
            inverse = l1_inverse(alg, em_inverse)
            for _ in range(-a[0]):
                cur = product(alg, cur, inverse)
        for key, v in cur.items():
            _add(out, key, v)
    return out


def elementary(alg, k: int, positions):
    """e_k of the L_j (X_j) for j in positions, one monomial at a time."""
    total = alg.zero()
    for subset in itertools.combinations(positions, k):
        exps = [0] * alg.r
        for j in subset:
            exps[j - 1] += 1
        total = total + alg.monomial(exps)
    return total


def sigma_nu(alg, nu, exps, start=None):
    """start (default 1) times prod_t e_t(L's of each block of nu)^exps,
    one engine product per factor."""
    result = alg.one() if start is None else start
    for blk, ex in zip(blocks(nu), exps):
        for t, e in enumerate(ex, start=1):
            for _ in range(e):
                result = result * elementary(alg, t, blk)
    return result


def tail(alg, A):
    """T_d * sigma(A) * (sum of T_v over the representatives closing it)."""
    size = colored_size(A)
    reps = coset_reps_within(colored_col_sums(A), nu_of(size))
    seq = alg.elem({(v, (0,) * alg.r): alg.one_c for v in reps})
    sigma = sigma_nu(alg, nu_of(size), nu_of(a_ddot(A)))
    return alg.from_perm(theta_inverse(size)) * sigma * seq
