"""Every top-level function and class of the package is read somewhere.

A standard-library AST check, next to ``test_imports``: each top-level
``def`` and ``class`` of ``src/cycloschur/*.py`` must be read in ``src/``,
``tests/``, ``demos/`` or ``perfbench/`` outside its own body, as a name,
an attribute, an imported name, or a string constant equal to it (the
benchmark's tracer names its targets in strings).  A helper that a
refactor left without callers fails it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycloschur"
READERS = ("src", "tests", "demos", "perfbench")


def reads(tree: ast.AST) -> Counter:
    """How often each identifier is read in tree, by the four kinds above."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def definitions(tree: ast.Module) -> list[ast.AST]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds)]


def unread_definitions(package: Path, readers: list[Path]) -> list[str]:
    """module.name of each top-level definition in package read nowhere in
    the files readers but inside its own body."""
    total: Counter = Counter()
    for path in readers:
        total += reads(ast.parse(path.read_text()))
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in definitions(ast.parse(path.read_text())):
            if total[node.name] - reads(node)[node.name] <= 0:
                unread.append(f"{path.stem}.{node.name}")
    return unread


def test_every_definition_is_read():
    readers = [p for d in READERS for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(readers) > len(list(PACKAGE.glob("*.py")))
    assert unread_definitions(PACKAGE, readers) == []


def test_the_check_sees_an_unread_definition(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def used(): pass\n"
        "def by_string(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Unused: pass\n"
        "def mentioned():\n    '''not by_string itself'''\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from pkg.mod import used\nTARGETS = ['by_string']\nmod.mentioned\n")
    readers = [package / "mod.py", user]
    assert unread_definitions(package, readers) == ["mod.recursive", "mod.Unused"]
