"""No module of the package imports a name that it never uses.

A standard-library AST check over ``src/cycloschur/*.py``: every name that
a ``from ... import`` binds (``from __future__`` aside) must be read
somewhere in the same module, as a name or inside a quoted annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycloschur"


def unused_imports(source: str) -> list[str]:
    """The names bound by ``from ... import`` in source and never read."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name != "*"
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for annotation in _annotations(node):
            for quoted in ast.walk(annotation):  # e.g. "SchurElement"
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    expr = ast.parse(quoted.value, mode="eval")
                    read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(bound - read)


def _annotations(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from x import used, unused\nfrom __future__ import annotations\nused()\n"
    assert unused_imports(source) == ["unused"]
    assert unused_imports("from x import T\ndef f(a: 'T'): pass\n") == []
