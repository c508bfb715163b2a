"""The cyclotomic Hecke algebra of the complex reflection group G(m, 1, r).

Over R = Z[q, q^-1, u_1..u_m], the algebra H has generators T_1..T_{r-1}
and commuting elements L_1..L_r subject to

- (T_i + 1)(T_i - q) = 0 and the braid relations,
- (L_1 - u_1)(L_1 - u_2)...(L_1 - u_m) = 0,
- T_i L_i T_i = q L_{i+1}, and T_i L_j = L_j T_i for j != i, i+1.

Elements are kept in the normal form  sum  c_{w,a} T_w L^a  with w a
permutation and a in {0..m-1}^r, a free R-basis of rank m^r r!.  The two
workhorses are:

- straightening (moving L^a rightward past a generator T_i):
  L^a T_i = T_i L^{a s_i}                                  if a_i = a_{i+1},
  L^a T_i = T_i L^{a s_i} + (q-1) * sum_{t=1}^{a_{i+1}-a_i}
            L^{a s_i - t(e_i - e_{i+1})}                    if a_i < a_{i+1},
  L^a T_i = T_i L^{a s_i} + (1-q) * sum_{t=0}^{a_i-a_{i+1}-1}
            L^{a s_i + t(e_i - e_{i+1})}                    if a_i > a_{i+1},
  where a s_i swaps the i-th and (i+1)-st entries; every correction
  exponent stays inside {0..m-1}^r, so no reduction is needed;

- cyclotomic overflow: L_1^m = sum_{k=1}^m (-1)^{k+1} e_k(u) L_1^{m-k},
  and for j > 1 the overflow runs through the chain
  L_j = q^{1-j} T_{j-1}..T_1 L_1 T_1..T_{j-1}.

Right multiplication by L^a applies the word L_r^{a_r} ... L_1^{a_1}, high
L_j first: an overflow of L_j costs more the larger j is, and applied
first it meets the element while that is still small.

The parameters reach straightening only through the coefficients
overflow[k-1] = (-1)^(k+1) e_k(u) of the cyclotomic relation, which
identify the algebra.  ``HeckeAlgebra(m, r)`` uses the generic u_1..u_m;
explicit ring elements (for instance (-1, Q) at two parameters) give
specialized models; ``overflow=`` takes the coefficients directly.

An algebra with the generic coefficients +-e_k(u_1..u_m), however given,
keeps its coefficients privately (``_terms``) over
Z[q^±1][e_1..e_m][u_1..u_nvars] with e_k free, so its step tables hold
short e-polynomials.  A coefficient is lifted where it enters (``elem``,
``scale``, ``epsilon_u``) and expanded by ``ring.ElementaryExpansion``
where it is read: ``terms`` and all that reads it (printing, JSON, module
coordinates, ``LeftForm``).  The expansion is not injective
(u_1 + u_2 - e_1 goes to 0), so ``==`` and ``is_zero`` compare expansions
unless the private forms are equal.  Specialized algebras (and the affine
one) run the same code with the identity for both maps.

``AlgebraBase`` and ``ElementBase`` hold what the affine engine (``affine``)
shares with this one: the linear structure (``LinearCombination``, shared
with ``schur.SchurElement`` too), T-straightening through the step tables,
the words of monomials, their prefix walk ``_fill`` (which the Schur memo
also uses), the product loop and the JSON term lists; the sigma builders
take either.  ``_sum_of_products`` is the one product: ``*`` (so sigma
and the appendix rebuild), tau and the left form, and ``affine.epsilon_u``
sum through it.  ``LinearCombination._sum`` is the one sum of elements:
``+``, ``scale``, ``AlgebraBase.combination`` (public coefficients,
lifted) and the parts of ``affine.epsilon_u`` add every c * x into one
dict.  Every keyed sum of coefficients is the kernel
``ring.add_products``: its sums are filled in place and belong to their
dict until ``ring._collect`` hands them out; no coefficient of an operand
is written.  A dict whose keys never meet (a step column of
``_t_column``, say) is built plainly, without the kernel.
``HeckeAlgebra._jm_forms`` keeps the normal forms of the L^a asked for
(not of T_w L^a, w != id) in one ``_fill`` row per algebra, read by
``jm_monomial`` and ``epsilon_u``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from .guards import check_guard
from .permutations import (
    Permutation,
    all_perms,
    blocks,
    check_composition,
    coset_reps_within,
    double_coset_factor,
    identity,
    nu_of,
    right_coset_factor,
    simple,
    young_subgroup,
    young_subgroup_size,
)
from .ring import (
    _ONE,
    ElementaryExpansion,
    RingElem,
    RingError,
    _collect,
    add_products,
    elementary_symmetric_of,
)
from .wreath import ColoredMatrix, a_ddot, colored_size

TermKey = tuple[Permutation, tuple[int, ...]]
StepColumn = tuple[tuple[TermKey, RingElem], ...]


def _swap_positions(w: Permutation, i: int) -> Permutation:
    """w * s_i: exchange positions i, i+1 of the one-line word."""
    im = list(w.im)
    im[i - 1], im[i] = im[i], im[i - 1]
    return Permutation(tuple(im))


def _swap_values(w: Permutation, i: int) -> Permutation:
    """s_i * w: exchange the values i, i+1."""
    im = list(w.im)
    pi, pj = im.index(i), im.index(i + 1)
    im[pi], im[pj] = i + 1, i
    return Permutation(tuple(im))


class AlgebraBase:
    """What the cyclotomic and affine engines share.

    A context of rank r over Z[q, q^-1, u_1..u_nvars]: the ring constants
    (public, and lifted to the private ring of ``_cvars`` fields that the
    straightening rules use), equality by ``_signature``, and the
    constructors of elements with zero exponent part, and the word of T_w M^a
    (``_path``).  A subclass names its element class in ``element_type`` and
    the exponent part of that word in ``_exponent_path``.
    """

    element_type: type[ElementBase]

    def _init_ring(self, r: int, nvars: int, expansion: ElementaryExpansion | None = None) -> None:
        self.r = r
        self.nvars = nvars
        self.q = RingElem.q_power(1, nvars)
        self.one_c = RingElem.one(nvars)
        self.qm1 = self.q - self.one_c
        # The private coefficient ring: with an expansion, its m e-fields
        # come before the nvars u-fields; without one it is the public ring.
        self._expansion = expansion
        self._cvars = nvars if expansion is None else expansion.m + nvars
        self._q, self._one, self._qm1 = map(self._lift, (self.q, self.one_c, self.qm1))
        self._neg_qm1 = -self._qm1
        # Step tables, filled lazily by _rmul_T/_rmul_L: _steps_T[i] maps a
        # monomial T_w M^a to the right action of T_i on it, as a tuple of
        # (monomial, constant) pairs, and _steps_L[j] does the same for L_j.
        # So a monomial's straightening, and a cyclotomic overflow chain,
        # runs once per algebra rather than once per term.
        self._steps_T: list[dict[TermKey, StepColumn]] = [{} for _ in range(r)]
        self._steps_L: list[dict[TermKey, StepColumn]] = [{} for _ in range(r + 1)]
        # module_coords: (w, lam) -> the minimal representative of S_lam w.
        self._coset_reps: dict[tuple[Permutation, tuple[int, ...]], Permutation] = {}
        self._reps_within: dict[tuple, list[Permutation]] = {}  # coset_reps_within

    def __eq__(self, other):
        return type(other) is type(self) and self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def _lift(self, c: RingElem) -> RingElem:
        """A public coefficient in the private ring; RingError if its width
        is not the algebra's ``nvars``."""
        if self._expansion is not None:
            return self._expansion.lift(c)
        if c.nvars != self.nvars:
            raise RingError(f"expected {self.nvars} variables, got {c.nvars}")
        return c

    def _public(self, terms: dict) -> dict:
        """A dict of private coefficients expanded to the public ring,
        without the entries that expand to zero (terms itself if there is
        no expansion)."""
        expand = self._expansion
        if expand is None:
            return terms
        return {key: image for key, c in terms.items() if not (image := expand(c)).is_zero()}

    def _path(self, key: TermKey) -> list:
        """The nodes from (id, 0) to key = (w, a) for ``_fill``, each with the
        letter reaching it: (v, 0) along the reduced word of w by (_rmul_T, i),
        then ``_exponent_path(w, a)``; each node's own path ends at it."""
        w, a = key
        v, zero = identity(self.r), (0,) * self.r
        nodes = [((v, zero), None)]
        for i in w.word():
            v = _swap_positions(v, i)
            nodes.append(((v, zero), (_rmul_T, i)))
        return nodes + self._exponent_path(w, a)

    def coset_reps_within(self, mu: tuple[int, ...], nu: tuple[int, ...]) -> list[Permutation]:
        """``permutations.coset_reps_within(mu, nu)``, memoised on the algebra."""
        if (mu, nu) not in self._reps_within:
            self._reps_within[mu, nu] = coset_reps_within(mu, nu)
        return self._reps_within[mu, nu]

    def elem(self, terms: Mapping[TermKey, RingElem]) -> ElementBase:
        lift = self._lift
        return self.element_type(self, {k: lift(c) for k, c in terms.items() if not c.is_zero()})

    def combination(self, pairs: Iterable[tuple[ElementBase, RingElem]]) -> ElementBase:
        """The sum of c * x over the pairs (element x of this algebra, public
        coefficient c), in one ``LinearCombination._sum``."""
        lift = self._lift
        return self.element_type._sum(self, ((x, lift(c)) for x, c in pairs))

    def zero(self) -> ElementBase:
        return self.element_type(self, {})

    def one(self) -> ElementBase:
        return self.from_perm(identity(self.r))

    def scalar(self, c: RingElem) -> ElementBase:
        return self.elem({(identity(self.r), (0,) * self.r): c})

    def gen_T(self, i: int) -> ElementBase:
        if not 1 <= i <= self.r - 1:
            raise ValueError(f"T index {i} out of range 1..{self.r - 1}")
        return self.from_perm(simple(i, self.r))

    def from_perm(self, w: Permutation) -> ElementBase:
        if w.size != self.r:
            raise ValueError("permutation size mismatch")
        return self.element_type(self, {(w, (0,) * self.r): self._one})

    def x_lambda(self, lam: Sequence[int], guard: int | None = None) -> ElementBase:
        """The q-symmetrizer sum of T_w over the Young subgroup of lam."""
        lam = check_composition(lam)
        if sum(lam) != self.r:
            raise ValueError(f"{lam} is not a composition of {self.r}")
        check_guard(young_subgroup_size(lam), guard, f"Young subgroup of {lam}")
        zero_a = (0,) * self.r
        return self.element_type(
            self, {(w, zero_a): self._one for w in young_subgroup(lam)}
        )


class LinearCombination:
    """A sparse R-linear combination: ``_terms`` maps basis keys to nonzero
    coefficients, over the structure ``alg`` (an algebra, or a Schur
    context), which + and == compare.  ``terms`` is what a caller reads:
    ``_terms`` itself here, the expanded coefficients in ``ElementBase``."""

    __slots__ = ("alg", "_terms")

    def __init__(self, alg, terms: dict):
        self.alg = alg
        self._terms = terms

    @property
    def terms(self) -> dict:
        return self._terms

    def _check(self, other: LinearCombination) -> None:
        if self.alg != other.alg:
            raise ValueError("elements from different algebras")

    @classmethod
    def _sum(cls, alg, pairs: Iterable[tuple[LinearCombination, RingElem]]):
        """The sum of c * x over the pairs (element x over alg, private
        coefficient c of alg's width, or ``_ONE``), all added into one dict
        of fresh totals by the kernel."""
        acc: dict = {}
        for x, c in pairs:
            if x.alg != alg:
                raise ValueError("elements from different algebras")
            add_products(acc, x._terms.items(), c)
        return cls(alg, _collect(acc))

    def __add__(self, other):
        return self._sum(self.alg, ((self, _ONE), (other, _ONE)))

    def __neg__(self):
        return type(self)(self.alg, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: RingElem):
        next(iter(self._terms.values()), c)._check(c)  # the kernel trusts c's nvars
        return self._sum(self.alg, ((self, c),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        # Equal private forms have equal public ones; else compare those.
        return self.alg == other.alg and (
            self._terms == other._terms or self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self._terms or not self.terms


class ElementBase(LinearCombination):
    """A sparse R-linear combination of monomials T_w M^a.

    M is L in the cyclotomic engine and X in the affine one (``symbol``).
    The engines differ only in the word of M^a, which each algebra supplies
    as ``_exponent_path``.
    Coefficients enter through the algebra's lift and are read through its
    expansion (see the module docstring).
    """

    __slots__ = ()

    @property
    def terms(self) -> dict[TermKey, RingElem]:
        return self.alg._public(self._terms)

    def scale(self, c: RingElem) -> ElementBase:
        return super().scale(self.alg._lift(c))

    def rmul_gen_T(self, i: int) -> ElementBase:
        return type(self)(self.alg, _rmul_T(self.alg, self._terms, i))

    # -- multiplication ----------------------------------------------------

    def _rmul_monomials(self, keys: Iterable[TermKey]) -> list[tuple[TermKey, dict]]:
        """[(k, self * T_w2 M^a2) for each monomial k = (w2, a2) of keys]:
        one ``_fill`` of a row that starts at self, so each shared prefix of
        the words ``alg._path`` is applied once."""
        alg = self.alg
        keys = list(keys)
        row = _fill({(identity(alg.r), (0,) * alg.r): self._terms}, keys, alg._path,
                    lambda terms, g: g[0](alg, terms, g[1]))
        return [(key, row[key]) for key in keys]

    def _product(self, other: ElementBase) -> ElementBase:
        """self * other, by ``_sum_of_products``."""
        self._check(other)
        return type(self)(self.alg, _sum_of_products([(self, other._terms)]))

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, RingElem]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0].im, kv[0][1]))

    def __str__(self) -> str:
        terms = self.sorted_terms()
        if not terms:
            return "0"
        parts = []
        for (w, a), c in terms:
            factors = []
            if not w.is_identity():
                factors.append("T[" + ",".join(map(str, w.im)) + "]")
            if any(a):
                factors.append(self.symbol + "[" + ",".join(map(str, a)) + "]")
            if not factors:
                factors.append("1")
            parts.append(f"({c})*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class HeckeElement(ElementBase):
    """A sparse R-linear combination of normal-form monomials T_w L^a."""

    __slots__ = ()

    symbol = "L"

    # -- generator actions -------------------------------------------------

    def rmul_gen_L(self, j: int) -> HeckeElement:
        return HeckeElement(self.alg, _rmul_L(self.alg, self._terms, j))

    def lmul_gen_T(self, i: int) -> HeckeElement:
        """Left multiplication T_i * x in a single pass (L parts untouched):
        T_i T_w is T_{s_i w}, or (q - 1) T_w + q T_{s_i w} when s_i w < w."""
        alg, acc = self.alg, {}
        for (w, a), c in self._terms.items():
            s_w = (_swap_values(w, i), a)
            add_products(acc, (((w, a), alg._qm1), (s_w, alg._q))
                         if w.has_left_descent(i) else ((s_w, alg._one),), c)
        return HeckeElement(alg, _collect(acc))

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        return self._product(other)


class HeckeAlgebra(AlgebraBase):
    """Context object: degree m, rank r, and the parameter list."""

    element_type = HeckeElement

    def __init__(
        self,
        m: int,
        r: int,
        nvars: int | None = None,
        u_params: Sequence[RingElem] | None = None,
        overflow: Sequence[RingElem] | None = None,
    ):
        """Parameters u_params (default: the generic u_1..u_m), or else the
        cyclotomic coefficients ``overflow`` directly (u_params is then None)."""
        if m < 1 or r < 1:
            raise ValueError("need m >= 1 and r >= 1")
        if nvars is None:
            nvars = m
        # expand.gens: e_1..e_m(u), formed once for overflow, generic test and expansion.
        expand = ElementaryExpansion(m, nvars) if nvars >= m else None
        if overflow is None:
            given = u_params is not None
            us = u_params if given else [RingElem.u_var(i, nvars) for i in range(1, m + 1)]
            u_params = tuple(us)
            if len(u_params) != m:
                raise ValueError(f"need {m} parameters, got {len(u_params)}")
            overflow = _overflow_of(elementary_symmetric_of(u_params)[1:] if given else expand.gens)
        elif u_params is not None:
            raise ValueError("give u_params or overflow, not both")
        # L_1^m = sum_k overflow[k-1] L_1^{m-k}
        self.overflow = tuple(overflow)
        if len(self.overflow) != m or any(c.nvars != nvars for c in self.overflow):
            raise ValueError(f"need {m} coefficients in the declared ring")
        # The generic relation straightens over free e_k (module docstring).
        generic = expand is not None and self.overflow == _overflow_of(expand.gens)
        self._init_ring(r, nvars, expand if generic else None)
        self._overflow = tuple(
            RingElem.u_var(k, self._cvars).scale((-1) ** (k + 1)) for k in range(1, m + 1)
        ) if generic else self.overflow
        self.m = m
        self.u_params = u_params
        # _jm_row: the forms of L^a at (id, a), filled on request (_jm_forms);
        # their keys and coefficients are objects of _pool, shared where equal.
        root = (identity(r), (0,) * r)
        self._jm_row, self._pool = {root: {root: self._one}}, {root: root, self._one: self._one}

    def _signature(self):
        return (self.m, self.r, self.nvars, self.overflow)

    def __repr__(self):
        return f"HeckeAlgebra(m={self.m}, r={self.r})"

    def dim(self) -> int:
        return self.m**self.r * math.factorial(self.r)

    def gen_L(self, j: int) -> HeckeElement:
        if not 1 <= j <= self.r:
            raise ValueError(f"L index {j} out of range 1..{self.r}")
        return self.one().rmul_gen_L(j)

    def jm_monomial(self, a: Sequence[int]) -> HeckeElement:
        """L_1^{a_1} ... L_r^{a_r}, exponents reduced: a copy of ``_jm_forms``."""
        a = tuple(int(x) for x in a)
        if len(a) != self.r or any(x < 0 for x in a):
            raise ValueError(f"bad exponent vector {a}")
        return HeckeElement(self, dict(self._jm_forms([a])[a]))

    def _jm_forms(self, exps: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], dict]:
        """{a: the private form of L^a in ``_jm_row``, not to be mutated} for a
        in exps; ``_fill`` walks each missing a, interning the nodes it stores."""
        intern = self._pool.setdefault
        keys = {a: (identity(self.r), a) for a in exps}
        row = _fill(self._jm_row, keys.values(), self._path, lambda terms, g: {
            intern(k, k): intern(c, c) for k, c in g[0](self, terms, g[1]).items()})
        return {a: row[key] for a, key in keys.items()}

    monomial = jm_monomial

    def _exponent_path(self, w: Permutation, a: tuple[int, ...]) -> list:
        """The nodes (w, b) along L_r^{a_r} ... L_1^{a_1}, high L_j first (see
        the module docstring), each reached by (_rmul_L, j)."""
        b, nodes = [0] * self.r, []
        for j in range(self.r, 0, -1):
            for _ in range(a[j - 1]):
                b[j - 1] += 1
                nodes.append(((w, tuple(b)), (_rmul_L, j)))
        return nodes

    def check_dim(self, guard: int | None) -> None:
        """Raise GuardError if the normal-form basis is larger than guard."""
        check_guard(self.dim(), guard, f"normal-form basis m={self.m}, r={self.r}")

    def pbw_basis(self, guard: int | None = None) -> Iterator[TermKey]:
        self.check_dim(guard)
        for w in all_perms(self.r):
            for a in itertools.product(range(self.m), repeat=self.r):
                yield (w, a)


def _overflow_of(es: Sequence[RingElem]) -> tuple[RingElem, ...]:
    """The coefficients (-1)^(k+1) e_k of L_1^m's reduction, from [e_1..e_m]."""
    return tuple(-e if k % 2 == 0 else e for k, e in enumerate(es, 1))


def _fill(row: dict, keys: Iterable, path, step) -> dict:
    """row, with a value for every key of keys: the one prefix walk.

    ``path(key)`` lists (node, letter reaching it) from the start, whose
    value row holds, to key; ``step(value, letter)`` applies one letter.
    A missing key resumes at the longest node of its path in row, and
    every node passed is stored, so no node is stepped to twice."""
    for key in keys:
        if key not in row:
            nodes = path(key)
            k = len(nodes) - 1
            while nodes[k][0] not in row:
                k -= 1
            value = row[nodes[k][0]]
            for node, letter in nodes[k + 1 :]:
                value = row[node] = step(value, letter)
    return row


def _sum_of_products(pairs: Iterable[tuple[ElementBase, Mapping[TermKey, RingElem]]]) -> dict:
    """The private terms of the sum of x * y over the pairs (x, terms of y):
    the straightened monomials of each y (``_rmul_monomials``), with y's
    coefficients multiplied in last, all summed by the kernel."""
    acc: dict[TermKey, RingElem] = {}
    for x, coeffs in pairs:
        for key, terms in x._rmul_monomials(coeffs):
            add_products(acc, terms.items(), coeffs[key])
    return _collect(acc)


def _apply_steps(alg, terms, table, build, g) -> dict[TermKey, RingElem]:
    """Right multiplication of a normal-form dict by one generator.

    ``table`` maps a monomial to its column, the generator's right action
    on it; a missing column is made by ``build(alg, monomial, g)``.
    """
    acc: dict[TermKey, RingElem] = {}
    for key, c in terms.items():
        column = table.get(key)
        if column is None:
            column = table[key] = tuple(build(alg, key, g).items())
        add_products(acc, column, c)
    return _collect(acc)


def _rmul_T(
    alg: AlgebraBase, terms: Mapping[TermKey, RingElem], i: int
) -> dict[TermKey, RingElem]:
    """Right multiplication of a normal-form dict by T_i."""
    if not 1 <= i <= alg.r - 1:
        raise ValueError(f"T index {i} out of range")
    return _apply_steps(alg, terms, alg._steps_T[i], _t_column, i)


def _rmul_L(
    alg: HeckeAlgebra, terms: Mapping[TermKey, RingElem], j: int
) -> dict[TermKey, RingElem]:
    """Right multiplication of a normal-form dict by L_j."""
    if not 1 <= j <= alg.r:
        raise ValueError(f"L index {j} out of range")
    return _apply_steps(alg, terms, alg._steps_L[j], _l_column, j)


def _t_column(alg: AlgebraBase, key: TermKey, i: int) -> dict[TermKey, RingElem]:
    """T_w M^a * T_i by the three-case rule of the module docstring, its
    constants the algebra's own.  Its keys are distinct but one: when
    w s_i < w and a_i > a_(i+1), the (q-1) T_w M^(a s_i) term and the t = 0
    correction cancel, and neither is written."""
    w, a = key
    ai, aj = a[i - 1], a[i]
    head, tail = a[: i - 1], a[i + 1 :]
    a_sw, wsi = head + (aj, ai) + tail, _swap_positions(w, i)
    descent = w.im[i - 1] > w.im[i]
    column: dict[TermKey, RingElem] = {}
    if descent and ai <= aj:
        column[w, a_sw] = alg._qm1
    column[wsi, a_sw] = alg._q if descent else alg._one
    if ai < aj:
        for t in range(1, aj - ai + 1):
            column[w, head + (aj - t, ai + t) + tail] = alg._qm1
    elif ai > aj:
        for t in range(1 if descent else 0, ai - aj):
            column[w, head + (aj + t, ai - t) + tail] = alg._neg_qm1
    return column


def _l_column(alg: HeckeAlgebra, key: TermKey, j: int) -> dict[TermKey, RingElem]:
    """T_w L^a * L_j: an exponent shift, or the cyclotomic overflow."""
    w, a = key
    m = alg.m
    if a[j - 1] < m - 1:
        return {(w, a[: j - 1] + (a[j - 1] + 1,) + a[j:]): alg._one}
    if j == 1:
        return {(w, (m - k,) + a[1:]): c for k, c in enumerate(alg._overflow, 1) if not c.is_zero()}
    # overflow via L_j = q^{1-j} T_{j-1}..T_1 L_1 T_1..T_{j-1}
    cur: dict[TermKey, RingElem] = {key: alg._one}
    for i in range(j - 1, 0, -1):
        cur = _rmul_T(alg, cur, i)
    cur = _rmul_L(alg, cur, 1)
    for i in range(1, j):
        cur = _rmul_T(alg, cur, i)
    scale = RingElem.q_power(1 - j, alg._cvars)
    return {k: c * scale for k, c in cur.items()}


# -- anti-automorphism and the left-handed view ----------------------------


def _from_left_terms(
    alg: HeckeAlgebra, items: Iterable[tuple[tuple[int, ...], Permutation, RingElem]]
) -> HeckeElement:
    """Normal form of the sum of c L^a T_w over the triples (a, w, c), c
    private: the sum over a of the product L^a * (sum of c T_w)."""
    id_r, zero = identity(alg.r), (0,) * alg.r
    by_a: dict[tuple[int, ...], dict[TermKey, RingElem]] = {}
    for a, w, c in items:  # one triple per (a, w)
        by_a.setdefault(a, {})[(w, zero)] = c
    return HeckeElement(alg, _sum_of_products(
        (HeckeElement(alg, {(id_r, a): alg._one}), p) for a, p in by_a.items()))


def tau(x: HeckeElement) -> HeckeElement:
    """The anti-automorphism fixing every T_i and L_j.

    Sends T_w L^a to L^a T_{w^{-1}}, re-expanded into normal form.
    """
    return _from_left_terms(x.alg, ((a, w.inv(), c) for (w, a), c in x._terms.items()))


class LeftForm:
    """An element written on the left-handed basis L^a T_w, with public
    coefficients."""

    __slots__ = ("alg", "coeffs")

    def __init__(
        self, alg: HeckeAlgebra, coeffs: dict[tuple[tuple[int, ...], Permutation], RingElem]
    ):
        self.alg = alg
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    def __eq__(self, other):
        if not isinstance(other, LeftForm):
            return NotImplemented
        return self.alg == other.alg and self.coeffs == other.coeffs


def to_left_form(x: HeckeElement) -> LeftForm:
    """Coordinates of x on the basis L^a T_w.

    Uses the anti-automorphism twice: if tau(x) = sum c_{v,b} T_v L^b then
    x = sum c_{v,b} L^b T_{v^{-1}}.
    """
    y = tau(x)
    return LeftForm(x.alg, {(a, w.inv()): c for (w, a), c in y.terms.items()})


def from_left_form(lf: LeftForm) -> HeckeElement:
    lift = lf.alg._lift
    return _from_left_terms(lf.alg, ((a, w, lift(c)) for (a, w), c in lf.coeffs.items()))


# -- block elementary symmetric elements -----------------------------------


def sigma_elementary(
    alg: AlgebraBase, k: int, positions: Sequence[int] | None = None
) -> ElementBase:
    """e_k of the commuting elements (L_j, or X_j in the affine engine) for
    j in positions (default: all)."""
    if positions is None:
        positions = range(1, alg.r + 1)
    positions = list(positions)
    if not 0 <= k <= len(positions):
        raise ValueError(f"k = {k} out of range for {len(positions)} positions")
    if any(not 1 <= j <= alg.r for j in positions):
        raise ValueError(f"positions {positions} out of range 1..{alg.r}")
    poly = Counter(
        tuple(s.count(j) for j in range(1, alg.r + 1)) for s in itertools.combinations(positions, k)
    )
    return alg.one() * _poly_element(alg, poly)


def sigma_nu(
    alg: AlgebraBase, nu: Sequence[int], exps: Sequence[Sequence[int]], start=None
) -> ElementBase:
    """start (default 1) times prod_t e_t(L's of block c)^{exps[c][t-1]}
    over the blocks c of nu (X's in place of L's in the affine engine).

    The L_j commute, so the product is multiplied out on exponent vectors
    and multiplied into the element as one product, which reduces exponents
    >= m on the way: after every m - 1 factors of a block in the cyclotomic
    engine, as walks through overflows cost more than the products they
    replace (a factor raises an exponent by at most 1).
    """
    nu = check_composition(nu)
    if sum(nu) != alg.r:
        raise ValueError(f"{nu} is not a composition of {alg.r}")
    if len(exps) != len(nu):
        raise ValueError("need one exponent tuple per block")
    start = alg.one() if start is None else start
    if start.alg != alg:
        raise ValueError("start element belongs to another algebra")
    m, cur, poly = getattr(alg, "m", None), start, {(0,) * alg.r: 1}
    for blk, ex in zip(blocks(nu), exps):
        if len(ex) != len(blk):
            raise ValueError(f"exponent tuple {tuple(ex)} does not match block size {len(blk)}")
        depth = 0  # factors of this block in poly, a bound on their exponents
        for t, e in enumerate(ex, start=1):
            steps = [tuple(s.count(j) for j in range(1, alg.r + 1))
                     for s in itertools.combinations(blk, t)]
            for _ in range(int(e)):
                if m is not None and depth and depth >= m - 1:
                    cur, poly, depth = cur * _poly_element(alg, poly), {(0,) * alg.r: 1}, 0
                product: Counter = Counter()
                for a, c in poly.items():
                    for step in steps:
                        product[tuple(x + y for x, y in zip(a, step))] += c
                poly, depth = product, depth + 1
    return cur * _poly_element(alg, poly)


def _poly_element(alg: AlgebraBase, poly: Mapping[tuple[int, ...], int]) -> ElementBase:
    """sum_a poly[a] M^a, its exponents a not yet reduced: a right factor."""
    id_r, cvars = identity(alg.r), alg._cvars
    return alg.element_type(alg, {(id_r, a): RingElem.const(c, cvars) for a, c in poly.items()})


def sigma_ddot(alg: AlgebraBase, A: ColoredMatrix, start=None) -> ElementBase:
    """start (default 1) times the interpolating symmetric element of A.

    Blocks follow the column-major composition of the entry-sum matrix;
    block (i, j) carries the reindexed exponent tuple of the colored entry,
    whose entries sum to less than m: no L-exponent reaches m.
    """
    return sigma_nu(alg, nu_of(colored_size(A)), nu_of(a_ddot(A)), start)


# -- module coordinates and linear tests -----------------------------------


def module_coords(
    x: HeckeElement, lam: Sequence[int]
) -> dict[tuple[Permutation, tuple[int, ...]], RingElem]:
    """Coordinates of x in the free module x_lam H on its monomial basis.

    The basis vectors x_lam T_d L^a (d a minimal right-coset representative)
    expand as sum_{u} T_{u d} L^a with all coefficients equal, so grouping
    the normal-form terms of x by coset recovers the coordinates; any
    mismatch means x does not lie in the module, and raises.
    """
    return _module_coords(x.alg, x.terms, lam)


def _module_coords(alg: AlgebraBase, terms: Mapping[TermKey, RingElem], lam) -> dict:
    """module_coords on a dict of normal-form terms: public ones, or private
    ones free of u, whose expansion is injective."""
    lam = check_composition(lam)
    if sum(lam) != alg.r:
        raise ValueError(f"{lam} is not a composition of {alg.r}")
    size = young_subgroup_size(lam)
    reps = alg._coset_reps
    coords: dict[tuple[Permutation, tuple[int, ...]], RingElem] = {}
    counts: dict[tuple[Permutation, tuple[int, ...]], int] = {}
    for (w, a), c in terms.items():
        d = reps.get((w, lam))
        if d is None:
            d = reps[(w, lam)] = right_coset_factor(w, lam)[1]
        key = (d, a)
        if key in coords:
            if coords[key] != c:
                raise ValueError("element does not lie in the cyclic module")
            counts[key] += 1
        else:
            coords[key] = c
            counts[key] = 1
    for key, n in counts.items():
        if n != size:
            raise ValueError("element does not lie in the cyclic module")
    return coords


def eigen_test(x: HeckeElement, i: int, side: str) -> bool:
    """Does T_i act on x by the scalar q (from the given side)?"""
    if side == "left":
        return x.lmul_gen_T(i) == x.scale(x.alg.q)
    if side == "right":
        return x.rmul_gen_T(i) == x.scale(x.alg.q)
    raise ValueError("side must be 'left' or 'right'")


def appendix_basis_coords(
    x: HeckeElement, lam: Sequence[int], mu: Sequence[int]
) -> dict[tuple[Permutation, Permutation, tuple[int, ...], Permutation], RingElem]:
    """Coordinates on the basis T_u T_d L^b T_v of the whole algebra.

    Here u runs over the Young subgroup of lam, d over minimal double coset
    representatives, b over {0..m-1}^r and v over the minimal right-coset
    representatives attached to the cell of d inside the Young subgroup of
    mu.  Triangular elimination: the longest surviving normal-form monomial
    of T_u T_d L^b T_v is T_{udv} L^{b v} with coefficient 1, so repeatedly
    matching the longest term of x determines the coordinates.  The
    elimination runs on x's private form; its coordinates are expanded last
    (a coordinate that expands to zero is dropped).
    """
    lam = check_composition(lam)
    mu = check_composition(mu)
    alg = x.alg
    coords: dict[tuple[Permutation, Permutation, tuple[int, ...], Permutation], RingElem] = {}
    work: dict[TermKey, RingElem] = {}
    add_products(work, x._terms.items(), _ONE)  # fresh totals: x's stay as they are
    while work := _collect(work):
        w, a = max(work, key=lambda k: (k[0].length(), k[0].im, k[1]))
        c = work[(w, a)]
        u, d, v = double_coset_factor(w, lam, mu)
        b = v.inv().apply_to_tuple(a)
        add_products(coords, (((u, d, b, v), c),), _ONE)  # a copy: c is work's own
        # subtract c T_u T_d L^b T_v, where T_u T_d L^b is the monomial (ud, b)
        rebuilt = HeckeElement(alg, {(u * d, b): alg._one}) * alg.from_perm(v)
        add_products(work, rebuilt._terms.items(), -c)
    return alg._public(_collect(coords))


# -- serialization ---------------------------------------------------------


def _terms_to_json(x: ElementBase) -> list[dict]:
    return [
        {"w": list(w.im), "a": list(a), "poly": c.to_json()}
        for (w, a), c in x.sorted_terms()
    ]


def element_to_json(x: HeckeElement) -> dict:
    return {"m": x.alg.m, "r": x.alg.r, "terms": _terms_to_json(x)}
