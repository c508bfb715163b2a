"""The packed form of a ring element never leaves ``ring.py``.

A standard-library AST check over ``src/cycloschur/*.py``: no module but
``ring.py`` reads or writes an attribute named after a packed field of
``RingElem`` (``_groups``, ``_slot``, ``_cbound``, ``_ubound``, ``_hash``).
Other modules go through the element's methods and through the kernel
``add_products`` and ``_collect``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycloschur"
PACKED = {"_groups", "_slot", "_cbound", "_ubound", "_hash"}


def packed_reads(source: str) -> list[tuple[int, str]]:
    """(line, field) of every attribute of source named after a packed field."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PACKED
    )


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "ring.py"],
    ids=lambda p: p.name,
)
def test_no_module_but_ring_reads_packed_fields(path):
    assert packed_reads(path.read_text()) == []


def test_the_check_sees_a_packed_field():
    source = "def f(c):\n    c._hash = None\n    return c._groups\n"
    assert packed_reads(source) == [(2, "_hash"), (3, "_groups")]
    assert packed_reads("def __hash__(self):\n    return self.slot\n") == []
    assert "_groups" in (PACKAGE / "ring.py").read_text()
