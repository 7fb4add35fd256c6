"""Every name an import binds is read somewhere in its module.

An AST scan over the package and the test suite: a module that imports a
name and never reads it carries dead weight and hides where a dependency
really comes from.  `from __future__` imports are compiler directives and
are skipped.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = [os.path.join(ROOT, "src", "qtk"), os.path.join(ROOT, "tests")]


def python_files():
    for top in SCANNED:
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
