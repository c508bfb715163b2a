"""The affine engine and its evaluation onto the cyclotomic quotient.

The affine algebra has invertible multiplication generators X_1..X_r
alongside the braid generators; its PBW basis is T_w * X^a with a any
integer vector.  Evaluation sends X_j to the Murphy element L_j of a
cyclotomic engine of the same rank, and is a ring map because both
sides satisfy the same commutation rules.  Hom-space elements lift to
the affine side, and symmetric X-polynomials have coefficient vectors
that are symmetric in the exponent and constant across the T-part.
"""

from __future__ import annotations

from cycloschur.affine import (
    AffineAlgebra,
    affine_sigma,
    coefficient_symmetry_check,
    epsilon_u,
)
from cycloschur.hecke import HeckeAlgebra
from cycloschur.ring import RingElem
from cycloschur.schur import SchurContext, b_element_of


def main() -> None:
    r = 3
    aff = AffineAlgebra(r, nvars=2)
    print(f"affine engine at rank {r} over Z[q^+-1, u1, u2]")
    print()

    x1 = aff.x_monomial([1, 0, 0])
    x1_inv = aff.x_monomial([-1, 0, 0])
    print("the X generators are invertible:")
    print("  X1 * X1^-1 =", x1 * x1_inv)
    print()

    q = RingElem.q_power(1, aff.nvars)
    lhs = aff.gen_T(1) * x1 * aff.gen_T(1)
    rhs = aff.x_monomial([0, 1, 0]).scale(q)
    print("the mixed relation T1 X1 T1 == q X2:", lhs == rhs)
    print()

    sym = aff.x_lambda((r,)) * affine_sigma(aff, (r,), [(1, 1, 0)])
    print("a symmetrized element times an elementary symmetric polynomial")
    print("in the X's has coefficients constant in T_w and symmetric in the")
    print("exponent vector:", coefficient_symmetry_check(sym))
    print()

    cyc = HeckeAlgebra(2, r, nvars=2)
    print("evaluation onto the cyclotomic engine (X_j -> L_j, T_w -> T_w):")
    img = epsilon_u(aff.x_monomial([0, 2, 0]), cyc)
    print("  X2^2 |->", img)
    a = aff.gen_T(1) * aff.x_monomial([1, 0, 1])
    b = aff.x_monomial([0, 1, 0]) * aff.gen_T(2)
    multiplicative = epsilon_u(a * b, cyc) == epsilon_u(a, cyc) * epsilon_u(b, cyc)
    print("  evaluation is multiplicative on a sample pair:", multiplicative)
    print()

    print("negative powers of X1 need a certified inverse of the parameter")
    print("product, which the generic coefficient ring does not contain:")
    try:
        epsilon_u(x1_inv, cyc)
    except ValueError as exc:
        print("  ValueError:", exc)
    print()

    ctx = SchurContext(2, 2, 2)
    aff2 = AffineAlgebra(2, nvars=2)
    A = ctx.basis()[7]
    lift = b_element_of(aff2, A)
    print("hom-space elements lift to the affine side and evaluate back:")
    print("  A =", A)
    print("  affine lift:", lift)
    print("  epsilon_u(lift) == b_A:", epsilon_u(lift, ctx.hecke) == ctx.b_element(A))


if __name__ == "__main__":
    main()
