"""Every name a tailforge module imports is used in that module."""

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
