"""Independent oracle for squeezed products: ``multiply_basis`` unsqueezed.

Before products were squeezed, ``multiply_basis`` computed every pair on
its own, with memos keyed on the matrices as given.  ``Unsqueezed`` keeps
that path: tail(B), b_A's module coordinates and the rows of b_A's action
are computed for A and B themselves (the step tables key on lam without
its zero parts, as they did), and no product is shared between pairs.  It
reads margins from ``wreath`` and builds b_A with ``b_element_of``, so no
code of ``SchurContext.squeezed``, its memos or its back-maps is on this
side.  From the context it uses only the algebra and the elimination
sweeps, whose blocks are keyed by the margins as given; ``eliminate`` is
its own copy of the sweep that walks them, sharing no code with
``schur._eliminate``.
"""

from __future__ import annotations

from cycloschur.hecke import (
    _apply_steps,
    _module_coords,
    _rmul_L,
    _rmul_T,
    _swap_positions,
)
from cycloschur.permutations import identity
from cycloschur.ring import _collect, add_products
from cycloschur.schur import (
    NotInSpanError,
    SchurContext,
    _module_column,
    _rest,
    _sweep,
    b_element_of,
    tail_of,
)
from cycloschur.wreath import colored_col_sums, colored_row_sums


class Unsqueezed:
    """multiply_basis on one (m, n, r), every memo keyed on A itself."""

    def __init__(self, m: int, n: int, r: int):
        self.ctx = SchurContext(m, n, r)
        self.hecke = self.ctx.hecke
        self.tails: dict = {}
        self.coords: dict = {}
        self.actions: dict = {}
        self.msteps: dict = {}
        self.rests: dict = {}

    def tail(self, A):
        if A not in self.tails:
            self.tails[A] = tail_of(self.hecke, A)
        return self.tails[A]

    def b_coords(self, A) -> dict:
        if A not in self.coords:
            b = b_element_of(self.hecke, A)
            self.coords[A] = _module_coords(self.hecke, b._terms, colored_row_sums(A))
        return self.coords[A]

    def action_row(self, A, keys) -> dict:
        """The row of b_A T_w L^a for each (w, a) of keys, filled as before."""
        row = self.actions.setdefault(A, {})
        lam = tuple(p for p in colored_row_sums(A) if p)  # the same x_lam
        r = self.hecke.r
        zero = (0,) * r
        if not row:
            row[identity(r), zero] = tuple(self.b_coords(A).items())
        for w, a in keys:
            if (w, a) in row:
                continue
            v, b = identity(r), list(zero)
            path = [((v, zero), None)]
            for i in w.word():
                v = _swap_positions(v, i)
                path.append(((v, zero), (lam, _rmul_T, i)))
            for j in range(r, 0, -1):
                for _ in range(a[j - 1]):
                    b[j - 1] += 1
                    path.append(((w, tuple(b)), (lam, _rmul_L, j)))
            k = len(path) - 1
            while path[k][0] not in row:
                k -= 1
            cur = dict(row[path[k][0]])
            for node, g in path[k + 1 :]:
                table = self.msteps.setdefault(g, {})
                cur = _apply_steps(self.hecke, cur, table, _module_column, g)
                row[node] = tuple(cur.items())
        return row

    def multiply_basis(self, A, B) -> dict:
        """Structure constants of Phi_A o Phi_B (apply B's map first)."""
        lam, mid = colored_row_sums(A), colored_col_sums(A)
        mid_b, mu = colored_row_sums(B), colored_col_sums(B)
        if mid != mid_b:
            return {}
        tail = self.tail(B)._terms
        row = self.action_row(A, tail)
        acc: dict = {}
        for key, c2 in tail.items():
            add_products(acc, row[key], c2)
        return self.eliminate(_collect(acc), lam, mu)

    def eliminate(self, coords: dict, lam, mu) -> dict:
        """The structure constants of the private module element ``coords``
        (consumed): one descending sweep over the (lam, mu) leads, each
        coordinate read at its lead and f times the rest of its b_C,
        memoised per C as given, added in."""
        out: dict = {}
        for lead, C in _sweep(self.ctx, lam, mu):
            f = coords.pop(lead, None)
            if f is None or f.is_zero():
                continue
            out[C] = f
            if C not in self.rests:
                self.rests[C] = _rest(self.b_coords(C), lead, mu)
            add_products(coords, self.rests[C], f)
        if _collect(coords):
            raise NotInSpanError("module terms lie outside the span of the basis")
        return self.hecke._public(out)
