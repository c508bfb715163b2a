"""Symmetric group combinatorics: words, cosets, and matrix correspondences.

Conventions, fixed once for the whole package:

- A permutation w of {1..r} is stored by its one-line notation
  ``im = (w(1), ..., w(r))``.
- Permutations are interned: ``Permutation(im)`` returns the one live
  object of its word (held weakly, so unused words are freed), so term-key
  lookups hash and compare permutations by identity, in C.  Identity hashes
  make the order of a set holding permutations depend on memory addresses,
  so no output may depend on set iteration order: such sets feed sums and
  equality only.
- Composition of permutations is ``(u * v)(i) = u(v(i))``.
- The simple reflection s_i swaps the values i and i+1; as a right factor
  it swaps positions i, i+1 of the one-line word, as a left factor it swaps
  the values i, i+1.
- ``length(w)`` is the inversion count, and ``reduced_word(w)`` returns the
  lexicographically smallest reduced expression, letters being generator
  indices read left to right (so the word (1, 2) means s_1 * s_2).
- Compositions are tuples of nonnegative integers; the composition lam of r
  cuts {1..r} into consecutive value blocks R_1, R_2, ... of sizes lam_i.
- The Young subgroup S_lam permutes each block internally.  Its generator
  index set j_set(lam) consists of the i < r that are NOT partial sums
  of lam.
- coset_reps(lam) lists the minimal-length representatives d of the right
  cosets S_lam d; these satisfy d^{-1}(i) < d^{-1}(i+1) for i in j_set(lam)
  and make lengths additive: length(u * d) = length(u) + length(d) for
  every u in S_lam.
- Every minimal representative is the placement of a label word: given
  lam_k copies of each block index k, it puts block k's values, in
  increasing order, at the positions labelled k.
- Double cosets S_lam w S_mu correspond bijectively to nonnegative integer
  matrices with row sums lam and column sums mu, via
  theta(lam, w, mu)[i][j] = |R_i^lam  intersect  w(R_j^mu)|; theta_inverse
  rebuilds the minimal-length representative from the matrix.
"""

from __future__ import annotations

import itertools
import math
import weakref
from functools import total_ordering
from typing import Iterable, Iterator, Sequence

Composition = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


# One-line word -> its live permutation; an entry goes when its object dies.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@total_ordering
class Permutation:
    """A permutation of {1..r} in one-line notation, interned by ``im``:
    hashing and equality are those of ``object``, ordering compares ``im``."""

    __slots__ = ("im", "_word", "__weakref__")

    def __new__(cls, im: Iterable[int]) -> Permutation:
        im = tuple(im)
        self = _INTERNED.get(im)
        if self is None:
            r = len(im)
            if sorted(im) != list(range(1, r + 1)):
                raise ValueError(f"not a permutation of 1..{r}: {im}")
            im = tuple(map(int, im))
            self = _INTERNED[im] = object.__new__(cls)
            object.__setattr__(self, "im", im)
            object.__setattr__(self, "_word", None)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Permutation is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (Permutation, (self.im,))

    def __repr__(self) -> str:
        return f"Permutation(im={self.im!r})"

    def __lt__(self, other):
        return self.im < other.im if type(other) is Permutation else NotImplemented

    @property
    def size(self) -> int:
        return len(self.im)

    def __call__(self, i: int) -> int:
        return self.im[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.im[j - 1] for j in other.im))

    def inv(self) -> "Permutation":
        out = [0] * self.size
        for pos, val in enumerate(self.im, start=1):
            out[val - 1] = pos
        return Permutation(tuple(out))

    def word(self) -> tuple[int, ...]:
        """``reduced_word(self)``, computed once per permutation."""
        word = self._word
        if word is None:
            word = reduced_word(self)
            object.__setattr__(self, "_word", word)
        return word

    def length(self) -> int:
        return len(self.word())

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.im, start=1))

    def has_left_descent(self, i: int) -> bool:
        """length(s_i * w) < length(w); holds iff i appears after i+1."""
        return self.im.index(i) > self.im.index(i + 1)

    def apply_to_tuple(self, a: Sequence) -> tuple:
        """Place permutation: (a . w) = (a_{w(1)}, ..., a_{w(r)}).

        A right action: (a . v) . w = a . (v * w).
        """
        return tuple(a[v - 1] for v in self.im)


def identity(r: int) -> Permutation:
    return Permutation(tuple(range(1, r + 1)))


def simple(i: int, r: int) -> Permutation:
    if not 1 <= i <= r - 1:
        raise ValueError(f"generator index {i} out of range 1..{r - 1}")
    im = list(range(1, r + 1))
    im[i - 1], im[i] = im[i], im[i - 1]
    return Permutation(tuple(im))


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """Lexicographically smallest reduced word for w.

    Greedy: repeatedly strip the smallest left descent.
    """
    word: list[int] = []
    r = w.size
    cur = w
    while not cur.is_identity():
        for i in range(1, r):
            if cur.has_left_descent(i):
                word.append(i)
                cur = simple(i, r) * cur
                break
    return tuple(word)


def all_perms(r: int) -> Iterator[Permutation]:
    for im in itertools.permutations(range(1, r + 1)):
        yield Permutation(im)


# -- compositions ----------------------------------------------------------


def check_composition(lam: Sequence[int]) -> Composition:
    lam = tuple(int(x) for x in lam)
    if any(x < 0 for x in lam):
        raise ValueError(f"composition parts must be nonnegative: {lam}")
    return lam


def partial_sums(lam: Sequence[int]) -> tuple[int, ...]:
    """All prefix sums lam_1, lam_1+lam_2, ..., up to and including the total."""
    return tuple(itertools.accumulate(lam))


def blocks(lam: Sequence[int]) -> list[range]:
    """Consecutive value blocks R_1, R_2, ... (1-indexed, possibly empty)."""
    out = []
    start = 1
    for part in lam:
        out.append(range(start, start + part))
        start += part
    return out


def j_set(lam: Sequence[int]) -> frozenset[int]:
    """Generator indices of the Young subgroup: i < r not a partial sum."""
    r = sum(lam)
    sums = set(partial_sums(lam))
    return frozenset(i for i in range(1, r) if i not in sums)


def _capped(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All tuples x with 0 <= x_j <= caps[j] summing to total, lexicographically."""
    if total == 0 or len(caps) <= 1:
        # Nothing is left to place, or the last part takes all that is left.
        if total == 0 or caps and 0 < total <= caps[0]:
            yield (total,) * len(caps)
        return
    later = caps[1:]
    for first in range(min(total, caps[0]) + 1):
        for rest in _capped(total - first, later):
            yield (first,) + rest


def compositions(r: int, n: int) -> Iterator[Composition]:
    """All weak compositions of r into exactly n parts, lexicographically."""
    return _capped(r, (r,) * n)


def young_subgroup(lam: Sequence[int]) -> Iterator[Permutation]:
    """All elements of S_lam, as permutations of {1..sum(lam)}."""
    lam = check_composition(lam)
    for pieces in itertools.product(*map(itertools.permutations, blocks(lam))):
        yield Permutation(itertools.chain(*pieces))


def young_subgroup_size(lam: Sequence[int]) -> int:
    size = 1
    for part in lam:
        size *= math.factorial(part)
    return size


# -- coset representatives -------------------------------------------------


def _label_word(lam: Sequence[int]) -> tuple[int, ...]:
    """(0^lam_1, 1^lam_2, ...): the entry of value v is the index of its block."""
    return tuple(k for k, part in enumerate(lam) for _ in range(part))


def _placed(labels: Iterable[int], lam: Sequence[int]) -> Permutation:
    """The permutation that puts the values of block k of lam, in increasing
    order, at the positions labelled k; labels holds lam_k copies of k."""
    nxt = list(itertools.accumulate(lam, initial=1))
    im = []
    for k in labels:
        im.append(nxt[k])
        nxt[k] += 1
    if len(im) != sum(lam):
        raise ValueError("size mismatch between composition and permutation")
    return Permutation(im)


def _arrangements(labels: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each distinct rearrangement of labels once, in lexicographic order."""
    if not labels:
        yield ()
    for k in sorted(set(labels)):
        rest = list(labels)
        rest.remove(k)
        for tail in _arrangements(rest):
            yield (k, *tail)


def coset_reps(lam: Sequence[int]) -> list[Permutation]:
    """Minimal-length representatives of the right cosets S_lam d.

    The placements of every arrangement of lam's label word, sorted by
    (length, one-line word).
    """
    lam = check_composition(lam)
    return coset_reps_within((sum(lam),), lam)


def right_coset_factor(
    w: Permutation, lam: Sequence[int]
) -> tuple[Permutation, Permutation]:
    """Factor w = u * d with u in S_lam and d the minimal rep of S_lam w.

    d places each block of lam at the positions p whose w(p) lies in it.
    """
    lam = check_composition(lam)
    d = _placed(w.apply_to_tuple(_label_word(lam)), lam)
    return w * d.inv(), d


def left_coset_factor(
    w: Permutation, mu: Sequence[int]
) -> tuple[Permutation, Permutation]:
    """Factor w = d * v with v in S_mu and d the minimal rep of w S_mu.

    d is the inverse of the minimal rep of S_mu w^{-1}.
    """
    mu = check_composition(mu)
    d_inv = _placed(w.inv().apply_to_tuple(_label_word(mu)), mu)
    return d_inv.inv(), d_inv * w


def double_coset_factor(
    w: Permutation, lam: Sequence[int], mu: Sequence[int]
) -> tuple[Permutation, Permutation, Permutation]:
    """The unique factorization w = u * d * v with additive lengths.

    Here d is the minimal element of S_lam w S_mu, u lies in S_lam, and v
    lies in S_mu and is a minimal right-coset representative for the Young
    subgroup of nu_of(theta(lam, d, mu)) inside S_mu.
    """
    u, d1 = right_coset_factor(w, lam)
    d, v = left_coset_factor(d1, mu)
    if u.length() + d.length() + v.length() != w.length():
        raise AssertionError(
            f"double coset factorization not additive for {w.im}"
        )
    return u, d, v


# -- the matrix correspondence ---------------------------------------------


def theta(lam: Sequence[int], w: Permutation, mu: Sequence[int]) -> IntMatrix:
    """The block-intersection matrix |R_i^lam  intersect  w(R_j^mu)|.

    Constant on double cosets S_lam w S_mu; row sums lam, column sums mu.
    """
    lam = check_composition(lam)
    mu = check_composition(mu)
    if sum(lam) != sum(mu) or sum(lam) != w.size:
        raise ValueError("size mismatch between compositions and permutation")
    lam_blocks = blocks(lam)
    mu_blocks = blocks(mu)
    out = []
    for rb in lam_blocks:
        rset = set(rb)
        row = []
        for cb in mu_blocks:
            row.append(sum(1 for j in cb if w(j) in rset))
        out.append(tuple(row))
    return tuple(out)


def row_sums(A: IntMatrix) -> Composition:
    return tuple(sum(row) for row in A)


def col_sums(A: IntMatrix) -> Composition:
    if not A:
        return ()
    return tuple(sum(row[j] for row in A) for j in range(len(A[0])))


def theta_inverse(A: IntMatrix) -> Permutation:
    """The minimal-length representative of the double coset encoded by A.

    The placement, for the row sums of A, of the word that labels the
    positions column block by column block: a_1j positions with row block
    1, then a_2j with row block 2, and so on.
    """
    labels = (i for col in zip(*A) for i, a in enumerate(col) for _ in range(a))
    return _placed(labels, row_sums(A))


def nu_of(A: IntMatrix) -> Composition:
    """Column-major flattening of A: (a_11, a_21, ..., a_12, a_22, ...).

    A composition of the total sum that refines the column sums.
    """
    if not A:
        return ()
    return tuple(A[i][j] for j in range(len(A[0])) for i in range(len(A)))


def matrices_with_margins(
    lam: Sequence[int], mu: Sequence[int]
) -> Iterator[IntMatrix]:
    """All nonnegative integer matrices with row sums lam and column sums mu."""
    lam = check_composition(lam)
    mu = check_composition(mu)
    if sum(lam) != sum(mu):
        return

    def rec(rows_left: tuple[int, ...], cols_left: tuple[int, ...]):
        if not rows_left:
            if all(c == 0 for c in cols_left):
                yield ()
            return
        for row in _capped(rows_left[0], cols_left):
            new_cols = tuple(c - v for c, v in zip(cols_left, row))
            for rest in rec(rows_left[1:], new_cols):
                yield (row,) + rest

    yield from rec(lam, mu)


def coset_reps_within(
    mu: Sequence[int], nu: Sequence[int]
) -> list[Permutation]:
    """Minimal right-coset representatives of S_nu inside S_mu.

    Requires nu to refine mu: equal totals, and every partial sum of mu is
    0 or a partial sum of nu.  The placements of nu's label word with the
    labels inside each block of mu arranged in every way, sorted by
    (length, one-line word).
    """
    mu = check_composition(mu)
    nu = check_composition(nu)
    if sum(mu) != sum(nu) or not set(partial_sums(mu)) <= {0, *partial_sums(nu)}:
        raise ValueError(f"{nu} does not refine {mu}")
    word = _label_word(nu)
    per_block = [_arrangements(word[b.start - 1 : b.stop - 1]) for b in blocks(mu)]
    reps = [_placed(itertools.chain(*pieces), nu) for pieces in itertools.product(*per_block)]
    reps.sort(key=lambda d: (d.length(), d.im))
    return reps


# -- composition reindexing ------------------------------------------------


def ddot(lam: Sequence[int]) -> tuple[int, ...]:
    """Reindex an m-part composition of k as a k-tuple with sum < m.

    With p_t the partial sums of lam and b_i = #{t < m : p_t >= i} for
    i = 1..k, returns (b_1 - b_2, ..., b_{k-1} - b_k, b_k).  A bijection
    from m-part compositions of k onto k-tuples of naturals summing to at
    most m - 1; see ddot_inverse.
    """
    lam = check_composition(lam)
    m = len(lam)
    k = sum(lam)
    if k == 0:
        return ()
    sums = partial_sums(lam)[: m - 1]
    b = [sum(1 for p in sums if p >= i) for i in range(1, k + 1)]
    return tuple(b[i] - b[i + 1] for i in range(k - 1)) + (b[k - 1],)


def ddot_inverse(dd: Sequence[int], m: int) -> Composition:
    """Inverse of ddot: recover the m-part composition from the k-tuple."""
    dd = tuple(int(x) for x in dd)
    k = len(dd)
    if any(x < 0 for x in dd) or sum(dd) > m - 1:
        raise ValueError(f"{dd} is not a {k}-tuple with sum < {m}")
    # suffix sums rebuild b, then conjugate back to partial sums
    b = [sum(dd[i:]) for i in range(k)]
    p = [sum(1 for bi in b if bi >= m - t) for t in range(1, m)]
    lam = []
    prev = 0
    for pt in p:
        lam.append(pt - prev)
        prev = pt
    lam.append(k - prev)
    return tuple(lam)
