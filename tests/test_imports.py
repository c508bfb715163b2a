"""No module of the package imports a name that it never uses, or imports
inside a function.

A standard-library AST check over ``src/cycloschur/*.py``: every name that
a ``from ... import`` binds (``from __future__`` aside) must be read
somewhere in the same module, as a name or inside a quoted annotation; and
every import sits at module level, where a reader finds a module's
dependencies (none of the package's imports needs deferring to break a
cycle).
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


def function_imports(source: str) -> list[str]:
    """'function:line' for each import statement inside a function of source."""
    tree = ast.parse(source)
    return sorted({
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_imports(path.read_text()) == []


def test_the_check_sees_an_import_inside_a_function():
    source = (
        "import math\n"
        "def f():\n    import random\n    return random\n"
        "class C:\n    def g(self):\n        from .x import y\n        return y\n"
    )
    assert function_imports(source) == ["f:3", "g:7"]
    assert function_imports("import math\nfrom x import y\ndef f(): return math, y\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from x import used, unused\nfrom __future__ import annotations\nused()\n"
    assert unused_imports(source) == ["unused"]
    assert unused_imports("from x import T\ndef f(a: 'T'): pass\n") == []
