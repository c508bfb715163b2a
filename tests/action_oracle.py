"""Independent oracle for the rows of ``SchurContext._actions``.

This is how a row entry was filled before the fills moved to module
coordinates: b_A is straightened in H by each monomial T_w L^a (the
grouped stack walk of ``tests/walk_oracle.py``, which shares the prefixes
of the words but no code with the ``hecke._fill`` of ``_action_row``), and
the coordinates in x_lam H are read off the normal form by
``_module_coords``, which raises if the element is not in the module.
"""

from __future__ import annotations

from typing import Iterable

from walk_oracle import rmul_monomials

from cycloschur.hecke import TermKey, _module_coords
from cycloschur.schur import SchurContext
from cycloschur.wreath import ColoredMatrix


def action_entries(ctx: SchurContext, A: ColoredMatrix, keys: Iterable[TermKey]) -> dict:
    """{(w, a): the private x_lam H coordinates of b_A T_w L^a} over keys."""
    lam = ctx.margins(A)[0]
    return {
        key: _module_coords(ctx.hecke, terms, lam)
        for key, terms in rmul_monomials(ctx.b_element(A), keys)
    }
