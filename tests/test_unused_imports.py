"""Every name a tailforge module imports or keeps private is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tailforge"


def unused_imports(source: str) -> list[str]:
    """Imported names never read in ``source``; __future__ imports are skipped.

    A name listed in ``__all__`` counts as used (a package re-export).
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = [(name, line) for name, line in imported.items() if name not in used]
    return sorted(f"{name} (line {line})" for name, line in unused)


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` bindings (not dunders) never read in ``source``."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        bound[n.id] = node.lineno
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        f"{name} (line {line})"
        for name, line in bound.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_checker_flags_an_unused_private_name():
    source = (
        "_TOL = 1e-10\n"
        "_USED = 2\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    return _USED\n"
    )
    assert unused_private_names(source) == ["_TOL (line 1)", "_helper (line 4)"]


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from os import path\n"
        "path.join('a')\n"
    )
    assert unused_imports(source) == ["math (line 2)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_private_names(module):
    assert unused_private_names((SRC / module).read_text(encoding="utf-8")) == []
