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

The colored-matrix records of ``wreath`` are checked the same way, each
field from its definition on every colored matrix with n, r, m <= 3, the
distinguished representative as the minimal element of its double coset
with its colors laid out block by block.  ``tail_of`` and ``sigma_ddot``,
which write T_d sigma(A) with no product from tabled block factors, are
compared with the product chain of ``tests/product_oracle.py`` and with
``sigma_nu``'s product started at T_d, in H, in the type-B specialisation
and in the affine algebra, and on matrices with more colors than m.
"""

from __future__ import annotations

import itertools
import math

import product_oracle
import pytest

from cycloschur import hecke, wreath
from cycloschur.affine import AffineAlgebra
from cycloschur.hecke import HeckeAlgebra, sigma_ddot, sigma_nu
from cycloschur.permutations import (
    Permutation,
    blocks,
    check_composition,
    coset_reps_within,
    ddot,
    ddot_inverse,
    theta_inverse,
    young_subgroup,
)
from cycloschur.schur import b_element_of, tail_of
from cycloschur.typeb import typeb_algebra
from cycloschur.wreath import (
    a_ddot,
    colored_col_sums,
    colored_matrix_of,
    colored_row_sums,
    colored_size,
    double_coset_rep,
    matrix_record,
    nu_colored,
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


# -- the colored-matrix records of ``wreath`` and the sigma table of ``hecke``


def matrices_of(n: int, r: int, m: int) -> list:
    """Every n x n matrix of m-tuples of naturals summing to r, by stars and
    bars over the m n^2 slots."""
    slots = m * n * n
    out = []
    for bars in itertools.combinations(range(r + slots - 1), slots - 1):
        cuts = (-1, *bars, r + slots - 1)
        flat = [cuts[k + 1] - cuts[k] - 1 for k in range(slots)]
        entries = [tuple(flat[k * m:(k + 1) * m]) for k in range(n * n)]
        out.append(tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n)))
    return out


def record_oracle(A) -> dict:
    """Each field of A's record from its definition: |A|, its margins, ddot of
    each entry, the column-major color-refined flattening, and (m, colors,
    one-line word) of the distinguished representative: the minimal element
    of the double coset of |A|, colored 1, .., 1, 2, .., 2, .., 0 block by
    block in column-major order."""
    n, m = len(A), len(A[0][0])
    size = tuple(tuple(sum(e) for e in row) for row in A)
    lam, mu = tuple(map(sum, size)), tuple(sum(row[j] for row in size) for j in range(n))
    column_major = [A[i][j] for j in range(n) for i in range(n)]
    coset = [im for im in itertools.permutations(range(1, sum(lam) + 1))
             if theta_oracle(lam, im, mu) == size]
    shortest = min(map(inversions, coset))
    (perm,) = [im for im in coset if inversions(im) == shortest]
    colors = tuple(t % m for e in column_major for t in range(1, m + 1) for _ in range(e[t - 1]))
    return {"size": size, "rows": lam, "cols": mu,
            "ddot": tuple(tuple(ddot_oracle(e) for e in row) for row in A),
            "nu": tuple(x for e in column_major for x in e), "rep": (m, colors, perm)}


def test_matrix_records_match_their_definitions():
    grid = list(itertools.product((1, 2, 3), range(4), (1, 2, 3)))
    matrices = [A for n, r, m in grid for A in matrices_of(n, r, m)]
    assert len(matrices) == sum(math.comb(m * n * n + r - 1, r) for n, r, m in grid) == 6299
    readers = {"size": colored_size, "rows": colored_row_sums, "cols": colored_col_sums,
               "ddot": a_ddot, "nu": nu_colored, "rep": double_coset_rep}
    for A in matrices:
        record, expected = matrix_record(A), record_oracle(A)
        fields = record._asdict()
        rep = fields.pop("rep")
        assert (rep.m, rep.colors, rep.perm.im) == expected.pop("rep"), A
        assert fields == expected, A
        for name, read in readers.items():
            assert read(A) is getattr(record, name), (name, A)
        assert colored_matrix_of(record.rows, rep, record.cols) == A


def test_a_record_is_built_once_and_shared():
    A = (((0, 1), (1, 0)), ((2, 0), (0, 0)))
    record = matrix_record(A)
    assert matrix_record(A) is record and wreath._MATRICES[A] is record
    equal = tuple(tuple(tuple(e) for e in row) for row in ([list(e) for e in row] for row in A))
    assert equal == A and equal is not A and matrix_record(equal) is record


def test_a_list_or_float_matrix_reads_the_record_of_its_int_tuples():
    for A in ([[[0, 1], [1, 0]], [[0, 0], [1, 1]]], (((0, 1.0), (1, 0)), ((0, 0), (1, 1)))):
        before = set(map(id, wreath._MATRICES))
        valid = tuple(tuple(tuple(map(int, e)) for e in row) for row in A)
        record = matrix_record(A)
        assert record is matrix_record(A) is matrix_record(valid)
        assert all(type(x) is int for row in record.size for x in row)
        new = [key for key in wreath._MATRICES if id(key) not in before]
        assert new == [valid] or not new and valid in wreath._MATRICES, new
    for key in wreath._MATRICES:
        assert all(type(x) is int for row in key for e in row for x in e), key


def test_an_invalid_matrix_raises_on_every_call_and_is_never_stored():
    ragged = (((1, 0), (0, 1)), ((1, 0),))
    for A in (ragged, [list(map(list, row)) for row in ragged], (((2, -1),),),
              (((float("inf"), 0),),), (((0.5, 0.5),),)):
        stored = len(wreath._MATRICES)
        for read in (matrix_record, colored_size, colored_row_sums, double_coset_rep):
            for _ in range(2):
                with pytest.raises(ValueError):
                    read(A)
        assert len(wreath._MATRICES) == stored


SIGMA_CASES = {
    "generic-332": (HeckeAlgebra(3, 2), 3, 3),
    "generic-223": (HeckeAlgebra(2, 3), 2, 2),
    "typeb-23": (typeb_algebra(3), 2, 2),
    "affine-232": (AffineAlgebra(2, nvars=3), 2, 3),
    "more-colors-than-m": (HeckeAlgebra(2, 2), 2, 3),
}


@pytest.mark.parametrize("name", SIGMA_CASES)
def test_tail_and_sigma_match_the_product_routes(name):
    """T_d sigma(A), written with no product, against the oracle's chain of
    products, and against sigma_nu's product started at T_d (the route
    ``tail_of`` took before)."""
    alg, n, m = SIGMA_CASES[name]
    for A in matrices_of(n, alg.r, m):
        expected = record_oracle(A)
        nu = tuple(expected["size"][i][j] for j in range(n) for i in range(n))
        exps = tuple(expected["ddot"][i][j] for j in range(n) for i in range(n))
        d = alg.from_perm(Permutation(expected["rep"][2]))
        chain = product_oracle.sigma_nu(alg, nu, exps)
        assert sigma_ddot(alg, A)._terms == chain._terms, A
        route = sigma_nu(alg, nu, exps, d)
        assert sigma_ddot(alg, A, d)._terms == route._terms == (d * chain)._terms, A
        reps = coset_reps_within(expected["cols"], nu)
        seq = alg.elem({(v, (0,) * alg.r): alg.one_c for v in reps})
        assert tail_of(alg, A)._terms == (route * seq)._terms, A
        assert tail_of(alg, A)._terms == product_oracle.tail(alg, A)._terms, A


def test_each_sigma_polynomial_is_built_once(monkeypatch):
    built = []

    def counted(key, build=hecke._sigma_poly):
        built.append(key)
        return build(key)

    monkeypatch.setattr(hecke, "_SIGMA", {})
    monkeypatch.setattr(hecke, "_sigma_poly", counted)
    for _ in range(2):
        for alg in (HeckeAlgebra(3, 2), AffineAlgebra(2, nvars=3)):
            for A in matrices_of(2, 2, 3):
                tail_of(alg, A)
    assert len(built) == len(set(built)) == len(hecke._SIGMA) > 1


def test_a_matrix_of_another_rank_raises():
    A = (((0, 1), (1, 0)), ((0, 0), (0, 0)))  # r = 2
    for alg in (HeckeAlgebra(2, 3), AffineAlgebra(3, nvars=2), typeb_algebra(3)):
        for f in (sigma_ddot, tail_of, b_element_of):
            with pytest.raises(ValueError):
                f(alg, A)
        with pytest.raises(ValueError):
            sigma_ddot(alg, A, alg.from_perm(Permutation((2, 1, 3))))
