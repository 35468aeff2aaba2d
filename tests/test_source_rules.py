"""The library stays exact, stdlib-only and free of unused code.

Every module of ``src/overt`` is parsed with ``ast``; none may hold a float
literal, use the name ``float``, or import anything but the standard
library and ``overt`` itself.  Every public module-level function and class
must be referenced outside its own definition by the library, the
benchmark, the demos, the test oracles or the acceptance tests; unit tests
do not count, and neither does the benchmark's tracer (``bench/spans.py``),
which wraps entry points by name without calling them, nor a re-export (an
import, or a name listed in ``__all__``).  Every name
imported by a module of the library, the tests or the demos must be used
in that module.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "overt").glob("*.py"))
CALLERS = [
    *SOURCES,
    *sorted(p for p in (ROOT / "bench").glob("*.py") if p.name != "spans.py"),
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "tests" / "helpers.py",
    ROOT / "tests" / "test_acceptance.py",
]
IMPORTERS = [
    *SOURCES,
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
]

# Public names kept without a caller, each for a reason of its own.
UNCALLED = (
    ("kernel.check_positivity_axioms", "states the paper's two positivity axioms as a check"),
    ("trees.parse_node", "reads trees.format_node's text syntax; tests round-trip the pair"),
    ("vietoris.format_term", "writes vietoris.parse_term's text syntax; tests round-trip the pair"),
)


def violations(tree: ast.AST) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append(f"line {node.lineno}: use of float")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = [] if node.level else [node.module]
            for name in names:
                top = name.split(".")[0]
                if top != "overt" and top not in sys.stdlib_module_names:
                    out.append(f"line {node.lineno}: import of {name}")
    return out


def _defines(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _lists_all(stmt: ast.AST) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def unreferenced(sources: dict, callers: list) -> list:
    """Public module-level functions and classes of the ``sources`` trees
    (keyed by module) that no ``callers`` tree names outside the definition
    itself.  A name counts as an ``ast.Name``, an ``ast.Attribute`` or a
    string constant, since tracing code looks entry points up by string;
    imports and ``__all__`` lists do not count."""
    public = {
        node.name: module
        for module, tree in sources.items()
        for node in tree.body
        if _defines(node) and not node.name.startswith("_")
    }
    used = set()
    for tree in callers:
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or _lists_all(stmt):
                continue  # a re-export names a symbol without using it
            own = stmt.name if _defines(stmt) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(f"{public[name]}.{name}" for name in public.keys() - used)


def unused_imports(tree: ast.AST) -> list:
    """Names an import binds that the module never loads; a name listed in
    ``__all__`` counts as used."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported.setdefault(a.asname or a.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported.setdefault(a.asname or a.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for stmt in tree.body:
        if _lists_all(stmt):
            used.update(c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "metric.py", "located.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exact_and_stdlib_only(path):
    assert violations(ast.parse(path.read_text(), filename=str(path))) == []


def test_rules_catch_violations():
    bad = "import numpy\nfrom scipy.linalg import norm\nx = 0.5\ny = float(1)\n"
    assert len(violations(ast.parse(bad))) == 4
    good = "from __future__ import annotations\nimport math\nfrom overt.reals import sqrt_bounds\n"
    assert violations(ast.parse(good)) == []


def test_no_unused_public_code():
    sources = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    callers = [ast.parse(p.read_text(), filename=str(p)) for p in CALLERS]
    assert unreferenced(sources, callers) == sorted(name for name, _ in UNCALLED)


def test_unused_rule_catches_violations():
    lib = ast.parse(
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def traced(): pass\n"
        "class Unused: pass\n"
        "class Reexported: pass\n"
        "def _private(): pass\n"
    )
    caller = ast.parse("import lib\nlib.used()\nSPANNED = [('lib', None, 'traced')]\n")
    package = ast.parse("from lib import Reexported\n__all__ = ['Reexported']\n")
    assert unreferenced({"lib": lib}, [lib, caller, package]) == [
        "lib.Reexported", "lib.Unused", "lib.recursive"
    ]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_unused_imports_rule_catches_violations():
    bad = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import random as rnd\n"
        "from fractions import Fraction\n"
        "from overt import kernel, located\n"
        "from overt.errors import PreconditionFailed\n"
        "__all__ = ['PreconditionFailed']\n"
        "x = os.path.join(kernel.TOP)\n"
    )
    assert unused_imports(bad) == ["line 3: rnd", "line 4: Fraction", "line 5: located"]
