"""Every name an import binds is read somewhere in its module, every
module-level private function of the package is read somewhere in it, and
every public function and method of the package is read somewhere.

An AST scan over the package and the test suite: a module that imports a
name and never reads it carries dead weight and hides where a dependency
really comes from.  `from __future__` imports are compiler directives and
are skipped.  A private function is the package's own business, so one that
no package module reads (by name or as an attribute) is dead code, even if
a test still calls it.  A public function or method is read if the
package, the tests or the benchmark read it; the benchmark's tracer names
the functions it rebinds in strings ("multipoly.integrate_polynomial"), so
there the parts of dotted-name strings count as reads too.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qtk")
PERFBENCH = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "perfbench", "tests")]
SCANNED = [PACKAGE, os.path.join(ROOT, "tests")]


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


def read_sources(scanned) -> list[str]:
    out = []
    for path in python_files(scanned):
        with open(path, encoding="utf-8") as fh:
            out.append(fh.read())
    return out


def test_no_unread_private_functions_in_the_package():
    assert unread_private_functions(read_sources([PACKAGE])) == []


def public_functions(source: str) -> set[str]:
    """Public module-level functions, and public methods of module-level
    classes as Class.method."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
        elif isinstance(node, ast.ClassDef):
            out.update(f"{node.name}.{item.name}" for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {name for name in out if not name.rsplit(".", 1)[-1].startswith("_")}


def names_in_strings(source: str) -> set[str]:
    """The parts of every string constant that is a dotted name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def unread_public_functions(package: list[str], readers: list[str],
                            by_string: list[str]) -> list[str]:
    defined = set().union(*(public_functions(src) for src in package))
    read = set().union(*(names_read(src) for src in package + readers),
                       *(names_in_strings(src) for src in by_string))
    return sorted(name for name in defined if name.rsplit(".", 1)[-1] not in read)


def test_scan_finds_an_unread_public_function():
    pkg = ("def used(): pass\ndef dead(): pass\ndef _private(): pass\n"
           "class Poly:\n    def embed(self): pass\n    def evaluate(self): pass\n"
           "    def traced(self): pass\n    def __eq__(self, other): pass\n")
    test = "from pkg import used\nused()\nPoly().evaluate()\n"
    bench = 'SPANS = ("pkg.Poly.traced", "not a name: dead")\n'
    assert unread_public_functions([pkg], [test], []) == \
        ["Poly.embed", "Poly.traced", "dead"]
    assert unread_public_functions([pkg], [test, bench], [bench]) == ["Poly.embed", "dead"]
    # a string read counts only where strings name rebound functions
    assert unread_public_functions([pkg], [test, bench], []) == \
        ["Poly.embed", "Poly.traced", "dead"]


def test_no_unread_public_functions():
    package = read_sources([PACKAGE])
    bench = read_sources(PERFBENCH)
    readers = read_sources([os.path.join(ROOT, "tests")]) + bench
    assert unread_public_functions(package, readers, bench) == []
