"""Slim cyclotomic q-Schur algebras on their hom-space bases.

For compositions lam, mu of r with at most n parts, the hom space from the
cyclic module x_mu H to x_lam H has a basis indexed by the n x n colored
matrices with row sums lam and column sums mu.  The basis vector of the
colored matrix A is right multiplication by

    b_A = x_lam T_d sigma seq,   where
    d    = minimal representative of the double coset of the entry sums,
    sigma = the blockwise symmetric element of the reindexed colors,
    seq  = sum of T_v over the minimal coset representatives attached to
           the column-major refinement inside the Young subgroup of mu,

and the endomorphism algebra of the direct sum over all of Lambda(n, r) is
the slim Schur algebra, of rank C(m n^2 + r - 1, r) over R.

Structure constants are computed by a division-free triangular elimination
against the leading terms of the b_A (the longest representative times the
lex-greatest monomial of sigma, which always has coefficient 1), read off
A alone (``_leading_term``): one sweep over each block's leads, sorted once
per context (``_sweep``), subtracts the rest of each b_C in turn.
Composition is right factor first: (x * y) acts by y then x.

A zero part of a weight adds no position to S_lam, so b_A = b_{A*}, A*
being A with its zero rows and columns moved to the end (``squeezed``).
The memos of b_A key on A*, and ``multiply_basis`` computes A* B* once per
context, then puts the zero rows and columns back by interned maps.
A squeezed product sums the x_lam H coordinates of b_A T_w L^a, memoised
per (A, (w, a)) in ``SchurContext._actions``, against the coefficients of
tail(B), and eliminates that sum: it never forms b_A * tail(B) in H.
The memo is filled on module coordinates by ``hecke._fill`` along the
words ``hecke._path``, as every product in H is, through step tables of
x_lam H: the column of a module key (d, c) under T_i or L_j is
x_lam T_d L^c T_i (or L_j) straightened in H and read in module
coordinates, built once per (squeezed lam, generator).

``tail_of``/``b_element_of`` evaluate b_A in any algebra: H_u(r), its
type-B specialisation, or the affine lift, with T_d sigma straightened in
one walk from T_d over the exponent vectors of sigma.  The parameters u reach
straightening only through the coefficients +-e_k(u) of the cyclotomic
relation, so every b_A and structure constant lies in Z[q^±1][e_1..e_m].
A ``SchurContext`` straightens, memoises and eliminates on its algebra
``hecke``, whose private coefficients keep e_1..e_m free (see ``hecke``):
the memos hold u-free e-polynomials, the elimination sweeps in that ring
and expands only the coordinates it returns, and ``tail``, ``b_element``
and ``b_coords`` read to u like any element.  Rank certificates use the
e-coordinates: the e_k are algebraically independent, so ranks over
Frac Z[q, e] and Frac Z[q, u] agree.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .guards import check_guard
from .hecke import (
    AlgebraBase,
    ElementBase,
    HeckeAlgebra,
    HeckeElement,
    LinearCombination,
    TermKey,
    _apply_steps,
    _fill,
    _module_coords,
    eigen_test,
    module_coords,
    sigma_ddot,
)
from .permutations import (
    Composition,
    IntMatrix,
    Permutation,
    check_composition,
    compositions,
    coset_reps_within,
    identity,
    j_set,
    left_coset_factor,
    nu_of,
    theta,
    young_subgroup,
    young_subgroup_size,
)
from .ring import _ONE, RingElem, _collect, add_products, exact_rank, modular_rank
from .wreath import (
    ColoredMatrix,
    colored_count,
    colored_row_sums,
    enumerate_colored,
    enumerate_colored_with_margins,
    matrix_record,
)


def embed_matrix(A: IntMatrix, m: int) -> ColoredMatrix:
    """Place an ordinary matrix in the color-0 slot of each entry."""
    return tuple(
        tuple((0,) * (m - 1) + (int(v),) for v in row) for row in A
    )


def diagonal_matrix(lam: Sequence[int], m: int) -> ColoredMatrix:
    """The colored diagonal matrix of a composition (color-0 entries)."""
    lam = check_composition(lam)
    n = len(lam)
    diag = [[lam[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return embed_matrix(diag, m)


_UNGUARDED = object()  # basis() called without a guard


class SchurContext:
    """The slim Schur algebra for (m, n, r) over ``hecke`` = H_u(r), with
    per-basis memos in ``hecke``'s private coordinates.  Keyed by A*:
    tail(A), b_A, b_A's module coordinates, ``_actions[A*]``: (w, a) -> the
    module coordinates of b_A T_w L^a; keyed by A: A's margins and squeeze,
    and the rest of b_A below its lead; keyed by a block: its sweep."""

    def __init__(self, m: int, n: int, r: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.m = m
        self.n = n
        self.r = r
        self.hecke = HeckeAlgebra(m, r)
        self._basis: list[ColoredMatrix] | None = None
        self._tails: dict[ColoredMatrix, HeckeElement] = {}
        self._bs: dict[ColoredMatrix, HeckeElement] = {}
        self._coords: dict[ColoredMatrix, dict] = {}
        # Memos of _eliminate: _sweeps[(lam, mu)] holds the block's
        # (leading term, C) pairs, greatest first; _rests[C] the other
        # private coordinates of b_C, negated.
        self._sweeps: dict[tuple[Composition, Composition], tuple] = {}
        self._rests: dict[ColoredMatrix, tuple] = {}
        # _actions[A][(w, a)]: ((module key, coefficient), ...) of b_A T_w L^a,
        # equal keys and coefficients being one object, through _pool;
        # filled on module coordinates through _msteps[(lam, _rmul_T, i)]
        # (or _rmul_L, j): module key -> the column of T_i (L_j) on it.
        self._actions: dict[ColoredMatrix, dict[TermKey, tuple]] = {}
        self._pool: dict = {}
        self._msteps: dict[tuple, dict[TermKey, tuple]] = {}
        self._margins: dict[ColoredMatrix, tuple[Composition, Composition]] = {}
        # _products[(A*, B*)]: structure constants; _backs[(lam, mu)][C*]: C.
        self._squeezed: dict[ColoredMatrix, ColoredMatrix] = {}
        self._products: dict[tuple, dict[ColoredMatrix, RingElem]] = {}
        self._backs: dict[tuple, dict[ColoredMatrix, ColoredMatrix]] = {}

    def __eq__(self, other):
        return isinstance(other, SchurContext) and (self.m, self.n, self.r) == (
            other.m, other.n, other.r
        )

    def __hash__(self):
        return hash((self.m, self.n, self.r))

    def __repr__(self):
        return f"SchurContext(m={self.m}, n={self.n}, r={self.r})"

    def rank(self) -> int:
        return colored_count(self.n, self.r, self.m)

    def weights(self) -> list[Composition]:
        return list(compositions(self.r, self.n))

    def basis(self, guard=_UNGUARDED) -> list[ColoredMatrix]:
        """The basis matrices, enumerated once.  A guard given explicitly
        (None: the default guard) is checked on every call, also against a
        cached basis; without one, only the enumeration checks the default."""
        if self._basis is None:
            cap = None if guard is _UNGUARDED else guard
            self._basis = list(enumerate_colored(self.n, self.r, self.m, cap))
        elif guard is not _UNGUARDED:
            check_guard(len(self._basis), guard, f"colored matrices ({self.m},{self.n},{self.r})")
        return self._basis

    def weight(self, lam: Sequence[int]) -> Composition:
        """lam as a composition, if it is one of r into n parts; else raise."""
        lam = check_composition(lam)
        if len(lam) != self.n or sum(lam) != self.r:
            raise ValueError(f"{list(lam)} is not a composition of {self.r} into {self.n} parts")
        return lam

    def check_matrix(self, A: ColoredMatrix) -> None:
        """Raise unless A is an n x n matrix of m-color entries summing to r."""
        n, m = self.n, self.m
        if not (
            len(A) == n
            and all(len(row) == n and all(len(e) == m and min(e) >= 0 for e in row) for row in A)
            and sum(colored_row_sums(A)) == self.r
        ):
            raise ValueError(f"{matrix_to_json(A)} is not a basis matrix of S({m}; {n}, {self.r})")

    def basis_block(
        self, lam: Sequence[int], mu: Sequence[int], guard: int | None = None
    ) -> list[ColoredMatrix]:
        lam, mu = self.weight(lam), self.weight(mu)
        return list(enumerate_colored_with_margins(lam, mu, self.m, guard))

    def margins(self, A: ColoredMatrix) -> tuple[Composition, Composition]:
        """(row sums, column sums) of A, from its ``wreath.matrix_record``, memoised."""
        if A not in self._margins:
            self._margins[A] = matrix_record(A)[1:3]
        return self._margins[A]

    def squeezed(self, A: ColoredMatrix) -> ColoredMatrix:
        """A*: A with its zero rows and columns moved to the end, one object
        per value, memoised (A*'s own entry is A*)."""
        S = self._squeezed.get(A)
        if S is None:
            rows, cols = (sorted(range(len(w)), key=lambda i: not w[i]) for w in self.margins(A))
            S = tuple(tuple(A[i][j] for j in cols) for i in rows)
            S = self._squeezed[A] = self._squeezed.setdefault(S, S)
        return S

    # -- the basis homomorphisms, memoised ----------------------------------

    def tail(self, A: ColoredMatrix) -> HeckeElement:
        """T_d * sigma * (coset sum): b_A without the leading symmetrizer."""
        A = self.squeezed(A)
        elem = self._tails.get(A)
        if elem is None:
            elem = self._tails[A] = tail_of(self.hecke, A)
        return elem

    def b_element(self, A: ColoredMatrix) -> HeckeElement:
        A = self.squeezed(A)
        elem = self._bs.get(A)
        if elem is None:
            elem = self._bs[A] = self.hecke.x_lambda(self.margins(A)[0]) * self.tail(A)
        return elem

    def _b_coords(self, A: ColoredMatrix) -> dict:
        """b_coords(A) in private coordinates, free of u."""
        A = self.squeezed(A)
        coords = self._coords.get(A)
        if coords is None:
            coords = self._coords[A] = _module_coords(
                self.hecke, self.b_element(A)._terms, self.margins(A)[0]
            )
        return coords

    def b_coords(self, A: ColoredMatrix) -> dict:
        """Coordinates of b_A in the module x_lam H (see module_coords)."""
        return self.hecke._public(self._b_coords(A))

    def _action_row(self, A: ColoredMatrix, keys: Iterable[TermKey]) -> dict[TermKey, tuple]:
        """_actions[A], with an entry for every monomial (w, a) in keys.

        ``hecke._fill`` walks the row from b_A's module coordinates along
        the words of ``hecke._path``, as ``_rmul_monomials`` walks H: each
        letter is one ``_apply_steps`` on module coordinates through the
        step table ``_msteps[(lam, *letter)]``, and each node is stored
        interned."""
        row = self._actions.setdefault(A, {})
        if not row:
            row[identity(self.r), (0,) * self.r] = self._interned(self._b_coords(A))
        lam = self.margins(A)[0]

        def step(coords: tuple, letter: tuple) -> tuple:
            g = (lam, *letter)
            table = self._msteps.setdefault(g, {})
            return self._interned(_apply_steps(self.hecke, dict(coords), table, _module_column, g))

        return _fill(row, keys, self.hecke._path, step)

    def _interned(self, coords: dict) -> tuple:
        """coords as ((key, coefficient), ...), each an object of _pool."""
        intern = self._pool.setdefault
        return tuple((intern(x, x), intern(c, c)) for x, c in coords.items())


def _module_column(alg: HeckeAlgebra, key: TermKey, g: tuple) -> dict:
    """x_lam T_d L^c g on the module basis of x_lam H, for key = (d, c) and
    g = (lam, _rmul_T, i) or (lam, _rmul_L, j): x_lam T_d L^c g straightened
    in H and read in module coordinates."""
    lam, rmul, i = g
    d, c = key
    moved = rmul(alg, {(u * d, c): alg._one for u in young_subgroup(lam)}, i)
    return _module_coords(alg, moved, lam)


def tail_of(alg: AlgebraBase, A: ColoredMatrix) -> ElementBase:
    """T_d sigma(A) (sum of T_v over the coset representatives closing it):
    b_A without the leading symmetrizer, in alg (X's in place of L's in the
    affine algebra).  T_d sigma(A) is ``sigma_ddot`` started at T_d, which
    writes its terms with no product; A's invariants are its matrix record."""
    record = matrix_record(A)
    seq = {(v, (0,) * alg.r): alg._one for v in coset_reps_within(record.cols, nu_of(record.size))}
    return sigma_ddot(alg, A, alg.from_perm(record.rep.perm)) * alg.element_type(alg, seq)


def b_element_of(alg: AlgebraBase, A: ColoredMatrix) -> ElementBase:
    """b_A = x_lam tail(A) in alg, lam the row sums of A."""
    return alg.x_lambda(matrix_record(A).rows) * tail_of(alg, A)


# -- triangular expansion in the hom basis ---------------------------------


class NotInSpanError(ValueError):
    """The element does not lie in the span of the hom-space basis."""


def _term_order_key(mu: Composition):
    """The order of module terms (d2, c): length of d2, then c pulled back
    by the S_mu part of d2, then d2 and c themselves (so no ties)."""

    def key(item: tuple[Permutation, tuple[int, ...]]):
        d2, c = item
        v = left_coset_factor(d2, mu)[1]
        return (d2.length(), v.inv().apply_to_tuple(c), d2.im, c)

    return key


def _leading_term(ctx: SchurContext, A: ColoredMatrix) -> tuple[Permutation, tuple[int, ...]]:
    """The greatest module term (d2, c) of b_A, whose coefficient is 1.

    d2 = theta^-1(|A|) v0 and c = the blockwise suffix sums of a_ddot(A),
    entries taken column by column, placed by v0: v0 is the longest of the
    coset representatives attached to the refinement nu of mu.
    """
    record = matrix_record(A)
    v0 = coset_reps_within(record.cols, nu_of(record.size))[-1]  # sorted by length
    ahat = tuple(
        sum(block[t:]) for col in zip(*record.ddot) for block in col for t in range(len(block))
    )
    return record.rep.perm * v0, v0.apply_to_tuple(ahat)


def module_dimension(ctx: SchurContext, lam: Sequence[int]) -> int:
    """Rank of the module x_lam H over R: r!/|S_lam| * m^r."""
    return (
        math.factorial(ctx.r) // young_subgroup_size(check_composition(lam))
    ) * ctx.m**ctx.r


def _sweep(ctx: SchurContext, lam: Composition, mu: Composition) -> tuple:
    """((leading term of b_C, C), ...) over the (lam, mu) block, greatest
    lead first, memoised per block.  The block is at most the module
    dimension: its b_C are independent in x_lam H."""
    sweep = ctx._sweeps.get((lam, mu))
    if sweep is None:
        key = _term_order_key(mu)
        block = enumerate_colored_with_margins(lam, mu, ctx.m, module_dimension(ctx, lam))
        leads = [(_leading_term(ctx, C), C) for C in block]
        leads.sort(key=lambda item: key(item[0]), reverse=True)
        sweep = ctx._sweeps[lam, mu] = tuple(leads)
    return sweep


def _rest(coords: dict, lead: tuple, mu: Composition) -> tuple:
    """The coordinates of b_C other than its lead, negated, after checking
    that the lead has coefficient 1 and every other term lies below it."""
    c = coords.get(lead)
    if c is None or c != RingElem.one(c.nvars):
        raise AssertionError(f"leading coefficient at {lead[0].im} is not 1")
    key = _term_order_key(mu)
    top = key(lead)
    rest = tuple((k, -v) for k, v in coords.items() if k != lead)
    if any(key(k) >= top for k, _ in rest):
        raise AssertionError(f"a term of the basis vector leading at {lead[0].im} lies above it")
    return rest


def express_in_hom_basis(
    ctx: SchurContext,
    z: HeckeElement,
    lam: Sequence[int],
    mu: Sequence[int],
) -> dict[ColoredMatrix, RingElem]:
    """Coordinates of z in the basis {b_A : row sums lam, column sums mu}.

    Division-free: each b_C has coefficient 1 at its leading module term
    and lies below it elsewhere, under (representative length, pulled-back
    exponent), so one descending sweep over the leads of the block reads
    off each coordinate and subtracts the rest of its b_C.  Raises
    NotInSpanError when z is outside the span.
    """
    lam = check_composition(lam)
    mu = check_composition(mu)
    if z.alg != ctx.hecke:
        raise ValueError("element does not belong to the context's algebra")
    # z's private coefficients may hold parts that expand to zero, so its
    # public coordinates are lifted, into fresh totals (a lift shares its
    # groups), and swept as multiply_basis sweeps: expansion is a ring map,
    # so sweeping before it gives what sweeping after it would.
    lift = ctx.hecke._lift
    coords: dict = {}
    add_products(coords, ((k, lift(c)) for k, c in module_coords(z, lam).items()), _ONE)
    return _eliminate(ctx, coords, lam, mu)


def _eliminate(
    ctx: SchurContext, coords: dict, lam: Composition, mu: Composition
) -> dict[ColoredMatrix, RingElem]:
    """The elimination of express_in_hom_basis on private x_lam H
    coordinates, against the b_C of the block, whose non-leading parts are
    memoised, negated, in ``ctx._rests``; the coordinates it returns are
    expanded.  ``coords`` is a dict that ``ring.add_products`` filled,
    zero sums included: the sweep consumes it, adding f times each rest
    into it by the kernel.

    The system is unitriangular, so the sweep accepts exactly the
    elements of the span; a coordinate left over that expands to nonzero
    is outside."""
    out: dict[ColoredMatrix, RingElem] = {}
    for lead, C in _sweep(ctx, lam, mu):
        if not coords:
            break
        f = coords.pop(lead, None)
        if f is None or f.is_zero():
            continue
        out[C] = f
        rest = ctx._rests.get(C)
        if rest is None:
            rest = ctx._rests[C] = _rest(ctx._b_coords(C), lead, mu)
        if rest:
            add_products(coords, rest, f)
    public = ctx.hecke._public
    if left := public(_collect(coords)):
        raise NotInSpanError(f"{len(left)} module terms lie outside the span of the basis")
    return public(out)


# -- elements of the Schur algebra -----------------------------------------


class SchurElement(LinearCombination):
    """An R-linear combination of hom-basis vectors, over the context ``ctx``."""

    __slots__ = ()

    def __init__(self, ctx: SchurContext, terms: dict[ColoredMatrix, RingElem]):
        super().__init__(ctx, {A: c for A, c in terms.items() if not c.is_zero()})

    @property
    def ctx(self) -> SchurContext:
        return self.alg

    def __mul__(self, other: "SchurElement") -> "SchurElement":
        self._check(other)
        acc: dict[ColoredMatrix, RingElem] = {}
        for A, ca in self.terms.items():
            for B, cb in other.terms.items():
                add_products(acc, multiply_basis(self.ctx, A, B).items(), ca * cb)
        return SchurElement(self.ctx, acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for A, c in sorted(self.terms.items()):
            parts.append(f"({c})*Phi{A}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SchurElement({self})"


def multiply_basis(
    ctx: SchurContext, A: ColoredMatrix, B: ColoredMatrix
) -> dict[ColoredMatrix, RingElem]:
    """Structure constants of Phi_A o Phi_B (apply B's map first): those of
    A* B* with the zero rows and columns of lam and mu put back."""
    (lam, mid), (mid_b, mu) = ctx.margins(A), ctx.margins(B)
    if mid != mid_b:
        return {}
    pair = ctx.squeezed(A), ctx.squeezed(B)
    product = ctx._products.get(pair)
    if product is None:
        product = ctx._products[pair] = _multiply_squeezed(ctx, *pair)
    back = ctx._backs.get((lam, mu))
    if back is None:
        block = enumerate_colored_with_margins(lam, mu, ctx.m)
        back = ctx._backs[lam, mu] = {ctx.squeezed(C): C for C in block}
    return {back[C]: c for C, c in product.items()}  # a fresh dict: callers may edit it


def _multiply_squeezed(ctx: SchurContext, A: ColoredMatrix, B: ColoredMatrix) -> dict:
    """The body of multiply_basis, on squeezed composable A and B."""
    lam, mu = ctx.margins(A)[0], ctx.margins(B)[1]
    tail = ctx.tail(B)._terms
    row = ctx._action_row(A, tail)
    acc: dict = {}
    for key, c2 in tail.items():
        add_products(acc, row[key], c2)
    return _eliminate(ctx, acc, lam, mu)


def basis_element(ctx: SchurContext, A: ColoredMatrix) -> SchurElement:
    return SchurElement(ctx, {A: RingElem.one(ctx.hecke.nvars)})


def idempotent(ctx: SchurContext, lam: Sequence[int]) -> SchurElement:
    """The projection onto the lam summand: the diagonal basis vector."""
    return basis_element(ctx, diagonal_matrix(ctx.weight(lam), ctx.m))


def identity_element(ctx: SchurContext) -> SchurElement:
    """The sum of the idempotents: every diagonal basis vector, coefficient 1."""
    one = RingElem.one(ctx.hecke.nvars)
    return SchurElement(ctx, {diagonal_matrix(lam, ctx.m): one for lam in ctx.weights()})


def embed_q_schur(ctx: SchurContext, A: IntMatrix) -> SchurElement:
    """The classical q-Schur basis vector of an ordinary matrix, embedded."""
    return basis_element(ctx, embed_matrix(A, ctx.m))


def phi_pair(ctx: SchurContext, lam: Sequence[int], mu: Sequence[int]) -> SchurElement:
    """The basis vector of the identity double coset for margins (lam, mu)."""
    lam, mu = check_composition(lam), check_composition(mu)
    A = theta(lam, identity(ctx.r), mu)
    return embed_q_schur(ctx, A)


# -- verification routines -------------------------------------------------


def verify_rank(
    ctx: SchurContext,
    trials: int = 3,
    seed: int = 0,
    exact: bool = False,
) -> dict:
    """Certify that the hom-basis vectors are independent, block by block.

    For each pair of weights the coordinate vectors of the b's, taken on
    the context's own algebra in e-coordinates, are stacked as sparse rows,
    and their rank (``modular_rank``, or ``exact_rank`` if `exact`) is
    certified to equal the block size.  Returns a report with the certified
    total and the closed-form count.
    """
    nvars = ctx.hecke._cvars
    expected = ctx.rank()
    total = 0
    blocks_report = []
    for lam in ctx.weights():
        for mu in ctx.weights():
            block = ctx.basis_block(lam, mu)
            if not block:
                continue
            col_index: dict = {}
            rows = [
                {col_index.setdefault(k, len(col_index)): c for k, c in ctx._b_coords(A).items()}
                for A in block
            ]
            if exact:
                got = exact_rank(rows, len(col_index), nvars)
            else:
                got = modular_rank(rows, nvars, trials=trials, seed=seed)
            total += got
            blocks_report.append(
                {"lam": list(lam), "mu": list(mu), "size": len(block), "rank": got}
            )
    ok = total == expected and all(b["rank"] == b["size"] for b in blocks_report)
    return {
        "expected": expected,
        "certified": total,
        "ok": ok,
        "blocks": blocks_report,
    }


def verify_commutative(ctx: SchurContext) -> dict:
    """Check that the n = 1 slim Schur algebra is commutative."""
    if ctx.n != 1:
        raise ValueError("commutativity check applies to n = 1")
    basis = ctx.basis()
    failures = []
    for A in basis:
        for B in basis:
            left = multiply_basis(ctx, A, B)
            right = multiply_basis(ctx, B, A)
            if left != right:
                failures.append((A, B))
    return {"size": len(basis), "ok": not failures, "failures": failures}


def eigen_certificate(ctx: SchurContext, lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Symbolic two-sided eigen property of every b in the (lam, mu) block."""
    lam, mu = check_composition(lam), check_composition(mu)
    for A in ctx.basis_block(lam, mu):
        b = ctx.b_element(A)
        for i in j_set(lam):
            if not eigen_test(b, i, "left"):
                return False
        for j in j_set(mu):
            if not eigen_test(b, j, "right"):
                return False
    return True


def _eigen_rows(alg: HeckeAlgebra, guard: int | None) -> tuple[int, dict]:
    """(basis size, rows): rows[(side, i)][okey] = {col: coefficient of okey in T_i h - q h
    (side "L") or h T_i - q h ("R"), h the monomial of column col}, i in 1..r-1."""
    basis = list(alg.pbw_basis(guard))
    rows: dict = {}
    for col, key in enumerate(basis):
        mono = alg.elem({key: alg.one_c})
        q_mono = mono.scale(alg.q)
        for i in range(1, alg.r):
            for side, moved in (("L", mono.lmul_gen_T(i)), ("R", mono.rmul_gen_T(i))):
                for okey, c in (moved - q_mono).terms.items():
                    rows.setdefault((side, i), {}).setdefault(okey, {})[col] = c
    return len(basis), rows


def _nullity(alg: HeckeAlgebra, eigen_rows: tuple[int, dict], lam, mu, seed: int) -> int:
    size, rows = eigen_rows
    gens = [("L", i) for i in j_set(lam)] + [("R", j) for j in j_set(mu)]
    picked = [row for gen in gens for row in rows.get(gen, {}).values()]
    return size - modular_rank(picked, alg.nvars, trials=1, seed=seed)


def verify_hom_space_dims(ctx: SchurContext, seed: int = 0, guard: int | None = None) -> dict:
    """Solution-space dimensions match the block sizes, for every block
    (on the eigen equations of ``_eigen_rows``, built once)."""
    eigen_rows = _eigen_rows(ctx.hecke, guard)
    blocks = []
    ok = True
    for lam in ctx.weights():
        for mu in ctx.weights():
            expected = len(ctx.basis_block(lam, mu))
            got = _nullity(ctx.hecke, eigen_rows, lam, mu, seed)
            blocks.append(
                {"lam": list(lam), "mu": list(mu), "expected": expected, "dim": got}
            )
            ok = ok and got == expected
    return {"ok": ok, "blocks": blocks}


# -- serialization ---------------------------------------------------------


def matrix_to_json(A: ColoredMatrix) -> list:
    return [[list(entry) for entry in row] for row in A]


def matrix_from_json(data) -> ColoredMatrix:
    A = tuple(tuple(tuple(entry) for entry in row) for row in data)
    if any(type(x) is not int for row in A for entry in row for x in entry):  # no bool
        raise TypeError(f"not a matrix of JSON integers: {data!r}")
    return A
