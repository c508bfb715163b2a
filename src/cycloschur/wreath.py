"""The wreath product (Z/m) wr S_r: colored permutations and colored matrices.

A colored permutation w sends i to zeta^{colors[i]} * perm(i), where zeta
is a formal primitive m-th root acting on m disjoint copies of {1..r} and
``colors`` is indexed by the INPUT position.  Composition follows the same
convention as plain permutations, (w o v)(i) = w(v(i)), which on the data
reads: perm = perm_w * perm_v and colors[i] = colors_v[i] +
colors_w[perm_v(i)] mod m.

For compositions lam, mu of r, double cosets S_lam g S_mu of the wreath
product by UNCOLORED Young subgroups are classified by n x n matrices of
m-tuples of naturals ("colored matrices") with row sums lam and column
sums mu: entry (i, j) counts, per color class, the overlap of
zeta^t R_i^lam with g(R_j^mu).  Color index t runs 1..m with t = m
standing for color 0.  ``double_coset_rep`` rebuilds the distinguished
representative of a colored matrix: the uncolored minimal representative
of the entry-sum matrix, followed by a diagonal color element that colors
each column-major block with colors 1, 1, .., 2, 2, .., 0 according to the
tuple.

|A|, the margins, a_ddot(A), nu_colored(A) and double_coset_rep(A) are read
from one record per matrix (``matrix_record``), kept for the life of the
process; an invalid matrix raises and is never stored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .guards import DEFAULT_GUARD, check_guard
from .permutations import (
    Composition,
    IntMatrix,
    Permutation,
    _rows,
    _tabled,
    blocks,
    check_composition,
    col_sums,
    compositions,
    ddot,
    identity,
    matrices_with_margins,
    nu_of,
    row_sums,
    simple,
    theta_inverse,
)

# A colored matrix: n x n nested tuples, each entry an m-tuple of naturals.
ColoredMatrix = tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True, order=True, slots=True)
class ColoredPerm:
    """An element of (Z/m) wr S_r: i maps to zeta^{colors[i]} * perm(i)."""

    m: int
    colors: tuple[int, ...]
    perm: Permutation

    def __post_init__(self):
        if len(self.colors) != self.perm.size:
            raise ValueError("colors length must match permutation size")
        if any(not 0 <= c < self.m for c in self.colors):
            raise ValueError(f"colors must lie in 0..{self.m - 1}")

    @property
    def size(self) -> int:
        return self.perm.size

    def apply(self, i: int) -> tuple[int, int]:
        """Image of position i as (color, value)."""
        return self.colors[i - 1], self.perm(i)

    def is_identity(self) -> bool:
        return self.perm.is_identity() and all(c == 0 for c in self.colors)


def colored_mul(w: ColoredPerm, v: ColoredPerm) -> ColoredPerm:
    """(w o v)(i) = w(v(i)), built without validating again: its colors are
    reduced mod m, one per position."""
    if w.m != v.m or w.size != v.size:
        raise ValueError("mismatched wreath products")
    colors = tuple(
        (v.colors[i] + w.colors[v.perm.im[i] - 1]) % w.m for i in range(w.size)
    )
    product = object.__new__(ColoredPerm)
    for field, value in zip(("m", "colors", "perm"), (w.m, colors, w.perm * v.perm)):
        object.__setattr__(product, field, value)
    return product


def colored_identity(m: int, r: int) -> ColoredPerm:
    return ColoredPerm(m, (0,) * r, identity(r))


def colored_simple(i: int, m: int, r: int) -> ColoredPerm:
    """Generator s_i for i >= 1; s_0 is the color generator t_1."""
    if i == 0:
        return colored_t(1, m, r)
    return ColoredPerm(m, (0,) * r, simple(i, r))


def colored_t(j: int, m: int, r: int) -> ColoredPerm:
    """The color generator t_j: adds one color unit at position j."""
    if not 1 <= j <= r:
        raise ValueError(f"t index {j} out of range 1..{r}")
    colors = [0] * r
    colors[j - 1] = 1 % m
    return ColoredPerm(m, tuple(colors), identity(r))


def colored_inverse(w: ColoredPerm) -> ColoredPerm:
    pinv = w.perm.inv()
    colors = tuple((-w.colors[pinv.im[i] - 1]) % w.m for i in range(w.size))
    return ColoredPerm(w.m, colors, pinv)


def colored_from_uncolored(p: Permutation, m: int) -> ColoredPerm:
    return ColoredPerm(m, (0,) * p.size, p)


def colored_word(letters: Sequence[int], m: int, r: int) -> ColoredPerm:
    """Product of generators, letters read left to right; 0 means s_0."""
    out = colored_identity(m, r)
    for i in letters:
        out = colored_mul(out, colored_simple(i, m, r))
    return out


def enumerate_wreath(m: int, r: int, guard: int | None = None) -> Iterator[ColoredPerm]:
    """All m^r * r! elements, guarded."""
    check_guard(m**r * math.factorial(r), guard, f"wreath product m={m}, r={r}")
    for im in itertools.permutations(range(1, r + 1)):
        p = Permutation(im)
        for colors in itertools.product(range(m), repeat=r):
            yield ColoredPerm(m, colors, p)


# -- colored matrices ------------------------------------------------------


class MatrixRecord(NamedTuple):
    """The invariants of a colored matrix, each read by the function named."""

    size: IntMatrix  # colored_size
    rows: Composition  # colored_row_sums
    cols: Composition  # colored_col_sums
    ddot: tuple[tuple[tuple[int, ...], ...], ...]  # a_ddot
    nu: Composition  # nu_colored
    rep: ColoredPerm  # double_coset_rep


_MATRICES: dict[ColoredMatrix, MatrixRecord] = {}
_SHARED: dict[tuple, tuple] = {}  # the one object of each |A| and each row of a_ddot(A)


def matrix_record(A: ColoredMatrix) -> MatrixRecord:
    """A's record, tabled as in ``permutations``: keyed by A with its entries
    validated, and raising unless A is a rectangular matrix of compositions."""
    return _tabled(_MATRICES, _matrix_record, A, lambda A: tuple(map(_rows, A)))


def _matrix_record(A: ColoredMatrix) -> MatrixRecord:
    size = _SHARED.setdefault(size := _rows(map(sum, row) for row in A), size)
    d, m = theta_inverse(size), len(A[0][0]) if A and A[0] else 1  # d: raises unless rectangular
    # each column-major block colored 1, .., 1, 2, .., 2, .., 0 by its entry
    colors = tuple(t % m for e in nu_of(A) for t, count in enumerate(e, 1) for _ in range(count))
    return MatrixRecord(
        size, check_composition(row_sums(size)), check_composition(col_sums(size)),
        tuple(_SHARED.setdefault(dd := tuple(map(ddot, row)), dd) for row in A),
        tuple(part for e in nu_of(A) for part in e),
        ColoredPerm(m, colors, d))


def colored_size(A: ColoredMatrix) -> IntMatrix:
    """Entrywise total |A|: sum of each m-tuple."""
    return matrix_record(A).size


def colored_row_sums(A: ColoredMatrix) -> Composition:
    return matrix_record(A).rows


def colored_col_sums(A: ColoredMatrix) -> Composition:
    return matrix_record(A).cols


def group_by_row_sums(matrices: Sequence[ColoredMatrix]) -> dict[Composition, list[int]]:
    """Positions of the matrices, grouped by row sums, in increasing order.

    The composable partners B of A (col sums of A = row sums of B) are then
    one lookup instead of a scan of every pair.
    """
    out: dict[Composition, list[int]] = {}
    for j, B in enumerate(matrices):
        out.setdefault(colored_row_sums(B), []).append(j)
    return out


def colored_matrix_of(
    lam: Sequence[int], g: ColoredPerm, mu: Sequence[int]
) -> ColoredMatrix:
    """Entry (i, j), slot t: #{p in R_j^mu : perm(p) in R_i^lam, color = t mod m}.

    Slot t runs 1..m; slot m counts color 0.  Constant on double cosets by
    uncolored Young subgroups.
    """
    lam, mu = check_composition(lam), check_composition(mu)
    m = g.m
    if sum(lam) != g.size or sum(mu) != g.size:
        raise ValueError("composition sizes must match the permutation")
    out = []
    for rb in blocks(lam):
        row = []
        for cb in blocks(mu):
            counts = [0] * m
            for p in cb:
                color, val = g.apply(p)
                if val in rb:
                    counts[(color - 1) % m] += 1  # slot m counts color 0
            row.append(tuple(counts))
        out.append(tuple(row))
    return tuple(out)


def tilde_offsets(A: ColoredMatrix) -> dict[tuple[int, int], int]:
    """Column-major partial sums of |A| before each entry (0-indexed keys)."""
    size = colored_size(A)
    cells = [(i, j) for j in range(len(size[0]) if size else 0) for i in range(len(size))]
    return dict(zip(cells, itertools.accumulate((size[i][j] for i, j in cells), initial=0)))


def double_coset_rep(A: ColoredMatrix) -> ColoredPerm:
    """The distinguished representative of the double coset encoded by A.

    Uncolored part: the minimal representative of the entry-sum matrix.
    Color part: in each column-major block, the first a^(1) positions get
    color 1, the next a^(2) color 2, ..., the final a^(m) color 0.
    """
    return matrix_record(A).rep


def nu_colored(A: ColoredMatrix) -> Composition:
    """Column-major, color-refined flattening of A: a composition of r.

    The Young subgroup of this composition is the stabilizer
    rep^{-1} S_lam rep  intersect  S_mu for the distinguished representative.
    """
    return matrix_record(A).nu


def a_ddot(A: ColoredMatrix) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entrywise composition reindexing: each m-tuple entry a becomes
    ddot(a), a tuple of length sum(a) with entries summing to < m."""
    return matrix_record(A).ddot


def j_supported(A: ColoredMatrix) -> list[tuple[int, int]]:
    """Entries (i, j), 0-indexed, carrying at least one nonzero color."""
    m = len(A[0][0]) if A and A[0] else 1
    return [(i, j) for i, row in enumerate(A) for j, entry in enumerate(row)
            if entry[m - 1] < sum(entry)]


def enumerate_colored(
    n: int, r: int, m: int, guard: int | None = None
) -> Iterator[ColoredMatrix]:
    """All n x n colored matrices with entry tuples in N^m summing to r.

    There are C(m n^2 + r - 1, r) of them; guarded against explosion.
    """
    cells = m * n * n
    check_guard(colored_count(n, r, m), guard, f"colored matrices ({m},{n},{r})")
    for flat in compositions(r, cells):
        yield tuple(
            tuple(
                flat[(i * n + j) * m : (i * n + j) * m + m] for j in range(n)
            )
            for i in range(n)
        )


def colored_count(n: int, r: int, m: int) -> int:
    """|Theta_m(n, r)| = C(m n^2 + r - 1, r)."""
    return math.comb(m * n * n + r - 1, r)


def enumerate_colored_with_margins(
    lam: Sequence[int], mu: Sequence[int], m: int, guard: int | None = None
) -> Iterator[ColoredMatrix]:
    """Colored matrices with prescribed row sums lam and column sums mu.

    The guard bounds the whole block: the color splits of every entry-sum
    matrix are counted before the first matrix is yielded, and the count
    stops at the first entry-sum matrix that takes it past the guard.
    """
    lam, mu = check_composition(lam), check_composition(mu)
    cap = DEFAULT_GUARD if guard is None else guard
    splits = []
    total = 0
    for size in matrices_with_margins(lam, mu):
        per_cell = [list(compositions(entry, m)) for row in size for entry in row]
        splits.append((len(size), len(size[0]) if size else 0, per_cell))
        total += math.prod(map(len, per_cell))
        if total > cap:
            break
    check_guard(total, guard, "colored matrices with margins")
    for n_rows, n_cols, per_cell in splits:
        for combo in itertools.product(*per_cell):
            yield tuple(
                tuple(combo[i * n_cols + j] for j in range(n_cols))
                for i in range(n_rows)
            )
