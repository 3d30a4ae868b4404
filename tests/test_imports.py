"""Every name a `sdedge` module imports is used there, or exported in its
`__all__`, and every name the package's `__all__` exports resolves.

A name that a refactor stops using, but leaves imported, is caught here
rather than left for a linter this project does not run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import sdedge

MODULES = sorted(Path(sdedge.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module's imports, `__future__`'s aside, that
    no expression in it reads and its `__all__` does not list."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_every_exported_name_resolves():
    assert [name for name in sdedge.__all__ if not hasattr(sdedge, name)] == []


def test_an_unused_import_is_found():
    tree = ast.parse("from array import array\nimport os.path\nfrom . import x as y\n"
                     "import json\n__all__ = ['y']\njson.dumps(1)\n")
    assert unused_imports(tree) == ["array (line 1)", "os (line 2)"]
