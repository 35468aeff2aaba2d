"""The library stays exact and stdlib-only.

Every module of ``src/overt`` is parsed with ``ast``; none may hold a float
literal, use the name ``float``, or import anything but the standard
library and ``overt`` itself.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "overt").glob("*.py"))


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
