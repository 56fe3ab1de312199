"""Source hygiene of the package, checked with the standard library only."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "precboot"
# the package root re-exports what it imports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of every name an import binds that the module never
    reads; names in string annotations count as read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) \
            or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value))
                        if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


class TestUnusedImports:
    def test_checker_flags_only_unread_names(self):
        source = ("from __future__ import annotations\n"
                  "import os, sys as system\n"
                  "import numpy.linalg\n"
                  "from typing import List, Tuple\n"
                  "def f(x: List[int]) -> 'Tuple[int]':\n"
                  "    return numpy.linalg.norm(x)\n")
        assert unused_imports(source) == [(2, "os"), (2, "system")]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_no_unused_imports(self, path):
        assert unused_imports(path.read_text()) == []
