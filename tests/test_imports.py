"""Every name an import binds is read somewhere in its module, and every
module-level private function of the package is read somewhere in it.

An AST scan over the package and the test suite: a module that imports a
name and never reads it carries dead weight and hides where a dependency
really comes from.  `from __future__` imports are compiler directives and
are skipped.  A private function is the package's own business, so one that
no package module reads (by name or as an attribute) is dead code, even if
a test still calls it.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = [os.path.join(ROOT, "src", "qtk"), os.path.join(ROOT, "tests")]


def python_files(scanned=SCANNED):
    for top in scanned:
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                yield os.path.join(top, name)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in read)


def test_scan_finds_an_unused_import():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["line 1: json"]
    assert unused_imports("from a.b import c as d\nfrom e import f\nf(d)\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", list(python_files()),
                         ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def private_functions(source: str) -> set[str]:
    """Names of the module-level functions whose names start with one _."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Every name the source loads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unread_private_functions(sources: list[str]) -> list[str]:
    defined = set().union(*(private_functions(src) for src in sources))
    read = set().union(*(names_read(src) for src in sources))
    return sorted(defined - read)


def test_scan_finds_an_unread_private_function():
    a = ("def _used(): pass\ndef _dead(): pass\ndef _via_attr(): pass\n"
         "def public(): return _used()\n")
    b = "from . import a\nx = a._via_attr\n"
    assert unread_private_functions([a]) == ["_dead", "_via_attr"]
    assert unread_private_functions([a, b]) == ["_dead"]
    assert unread_private_functions(["def __magic__(): pass\n"]) == []


def test_no_unread_private_functions_in_the_package():
    sources = []
    for path in python_files([os.path.join(ROOT, "src", "qtk")]):
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    assert unread_private_functions(sources) == []
