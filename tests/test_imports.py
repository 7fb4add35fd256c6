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

A start-up guard runs `import qtk.cli` in a fresh interpreter: it must not
load `dataclasses` (its import and the methods it generated cost each
process about 25 ms of start-up) nor, where CPython's built-in `_sha256`
or `_sha2` exists, `hashlib` (whose OpenSSL module `_hashlib` cost about
4 ms), and it must load every module the benchmark's tracer rebinds, so
that no lazy import can silently leave a module untraced.  Neither that
import nor a whole `betti` run may load `argparse`, `gettext` or `locale`
(4–10 ms of start-up and first parse per process).  No qtk module may
compile a regular expression on import (0.1–0.4 ms each), nor while
`betti` or `validate` reads a bundle file or a catalog pair.
"""

import ast
import contextlib
import importlib.util
import io
import os
import subprocess
import sys

import pytest

from qtk import charpair as cpm
from qtk.cli import main

import fans
from conftest import clear_caches

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


def test_cli_import_loads_no_dataclasses_and_every_traced_module():
    script = "import sys, qtk.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    loaded = set(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    assert "dataclasses" not in loaded
    if any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
        assert not {"hashlib", "_hashlib"} & loaded
    tracing = load_tracing()
    traced = {f"qtk.{qual.split('.')[0]}" for qual in tracing.SPANS + tracing.DISTINCT}
    traced |= {f"qtk.{mod}" for mod, _, _ in tracing.COUNTED.values()}
    assert traced <= loaded


@pytest.mark.parametrize("script", [
    "import sys, qtk.cli",
    "import sys, contextlib, io, qtk.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert qtk.cli.main(['betti', 'cp2']) == 0",
], ids=["import", "betti-run"])
def test_cli_loads_no_argparse(script):
    script += "\nprint(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    loaded = set(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    assert not {"argparse", "gettext", "locale"} & loaded


COMPILE_CALLERS = """
import re, sys
callers = set()

def wrap(real):
    def wrapper(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") == "re":  # re.match reaches _compile
            frame = frame.f_back
        callers.add(frame.f_globals.get("__name__", ""))
        return real(*args, **kwargs)
    return wrapper

re.compile, re._compile = wrap(re.compile), wrap(re._compile)
import qtk.cli
if sys.argv[1:]:
    import contextlib, io
    with contextlib.redirect_stdout(io.StringIO()):
        assert qtk.cli.main(sys.argv[1:]) == 0
print(" ".join(sorted(name for name in callers if name.split(".")[0] == "qtk")))
"""


def compile_callers(*argv: str) -> list[str]:
    """The qtk modules that compile a pattern in a fresh process that
    imports qtk.cli and runs `qtk argv`, if argv is given."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-c", COMPILE_CALLERS, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_cli_import_compiles_no_regular_expression():
    """A fresh `import qtk.cli` compiles no pattern from qtk's own code,
    neither by re.compile nor by re.match and the like: qtk's patterns are
    strings, compiled on first use."""
    assert compile_callers() == []


@pytest.mark.parametrize("command", ["betti", "validate"])
def test_reading_a_fan_compiles_no_regular_expression(tmp_path, command):
    """Reading a bundle file's rational strings and a catalog pair compiles
    no pattern: qtk reads numbers with str methods."""
    path = tmp_path / "cp3-over-cp1.bundle.json"
    path.write_text(fans.bundle_text(fans.cp_fan(3), 1, (1, -1, 2)))
    assert compile_callers(command, str(path)) == []
    assert compile_callers(command, "cp3") == []


def test_validate_and_betti_build_no_dual_frame(tmp_path):
    """Validation reads only a cone's determinants and ray adjugate, and
    betti no dual edge frame, so neither builds a Fraction frame."""
    path = tmp_path / "cp4-blowup.bundle.json"
    path.write_text(fans.bundle_text(fans.GOLDEN["cp4-blowup"]))
    clear_caches()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", str(path)]) == 0
        assert main(["betti", str(path)]) == 0
    assert cpm._cone.cache_info().currsize > 0
    assert cpm._frame.cache_info().currsize == 0
    clear_caches()


def load_tracing():
    """The benchmark's tracer module, read from its file."""
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    """Every function the benchmark's tracer rebinds is still there, so a
    refactor that renames or deletes one fails here, naming it, instead of
    in the traced benchmark run."""
    tracing = load_tracing()
    missing = []
    for qual in tracing.SPANS + tracing.DISTINCT:
        mod, attr = qual.split(".")
        if not callable(getattr(importlib.import_module(f"qtk.{mod}"), attr, None)):
            missing.append(qual)
    for qual, (mod, cls, attr) in tracing.COUNTED.items():
        owner = importlib.import_module(f"qtk.{mod}")
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(qual)
    assert missing == []
