"""The composition tables of ``permutations`` against independent versions.

``blocks``, ``young_subgroup``, ``ddot`` and ``theta_inverse`` build each
value once per validated input and hand out that one object for the life
of the process.  Here each is compared with a version written from its
definition, sharing no code with the package beyond ``Permutation``:

- the blocks, from the partial sums;
- the Young subgroup, by filtering all of S_r for the permutations that
  map every block onto itself;
- ddot, from its formula, and by the ddot_inverse round trip;
- theta_inverse(A), as the unique minimal-length w with theta(lam, w, mu)
  equal to A, theta counted from the blocks.

The comparison runs on every composition of r <= 5 into at most 4 parts
and every n x n entry-sum matrix with n <= 3 and r <= 4.
"""

from __future__ import annotations

import itertools

from cycloschur.permutations import (
    Permutation,
    blocks,
    check_composition,
    ddot,
    ddot_inverse,
    theta_inverse,
    young_subgroup,
)


def all_compositions(max_r: int = 5, max_parts: int = 4) -> list[tuple[int, ...]]:
    return [
        lam
        for parts in range(max_parts + 1)
        for lam in itertools.product(range(max_r + 1), repeat=parts)
        if sum(lam) <= max_r
    ]


def all_matrices(max_n: int = 3, max_r: int = 4) -> list[tuple[tuple[int, ...], ...]]:
    out = []
    for n in range(1, max_n + 1):
        for flat in itertools.product(range(max_r + 1), repeat=n * n):
            if sum(flat) <= max_r:
                out.append(tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
    return out


def block_ranges(lam) -> list[range]:
    return [range(sum(lam[:i]) + 1, sum(lam[:i + 1]) + 1) for i in range(len(lam))]


def young_oracle(lam) -> list[Permutation]:
    """S_lam, in lexicographic order of one-line words."""
    r = sum(lam)
    return [
        Permutation(im) for im in itertools.permutations(range(1, r + 1))
        if all({im[p - 1] for p in blk} == set(blk) for blk in block_ranges(lam))
    ]


def ddot_oracle(lam) -> tuple[int, ...]:
    """(b_1 - b_2, ..., b_{k-1} - b_k, b_k), b_i = #{t < m : p_t >= i}."""
    m, k = len(lam), sum(lam)
    p = [sum(lam[:t]) for t in range(1, m)]
    b = [len([pt for pt in p if pt >= i]) for i in range(1, k + 1)]
    return tuple(b[i] - (b[i + 1] if i + 1 < k else 0) for i in range(k))


def theta_oracle(lam, im, mu) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sum(1 for j in cb if im[j - 1] in rb) for cb in block_ranges(mu))
        for rb in block_ranges(lam)
    )


def inversions(im) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(im)), 2) if im[i] > im[j])


def test_blocks_and_young_subgroups_match_their_definitions():
    comps = all_compositions()
    assert len(comps) == 1 + 6 + 21 + 56 + 126
    for lam in comps:
        assert blocks(lam) == tuple(block_ranges(lam)), lam
        assert young_subgroup(lam) == tuple(young_oracle(lam)), lam


def test_ddot_matches_its_definition_and_round_trips():
    for lam in all_compositions():
        assert ddot(lam) == ddot_oracle(lam), lam
        if lam:
            assert ddot_inverse(ddot(lam), len(lam)) == lam, lam


def test_theta_inverse_is_the_minimal_element_of_its_double_coset():
    matrices = all_matrices()
    assert len(matrices) == 715 + 70 + 5
    for A in matrices:
        lam = tuple(sum(row) for row in A)
        mu = tuple(sum(col) for col in zip(*A))
        coset = [im for im in itertools.permutations(range(1, sum(lam) + 1))
                 if theta_oracle(lam, im, mu) == A]
        shortest = min(map(inversions, coset))
        minimal = [im for im in coset if inversions(im) == shortest]
        assert [theta_inverse(A).im] == minimal, A


def test_tabled_values_are_immutable_and_shared():
    for lam in all_compositions(4, 3):
        as_list = list(lam)
        for f in (check_composition, blocks, young_subgroup, ddot):
            value = f(lam)
            assert type(value) is tuple, (f, lam)
            assert f(lam) is value and f(as_list) is value, (f, lam)
    for A in all_matrices(2, 3):
        d = theta_inverse(A)
        assert theta_inverse([list(row) for row in A]) is d is theta_inverse(A)
