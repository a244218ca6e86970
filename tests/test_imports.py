import ast
from pathlib import Path

import pytest

import ordclust

MODULES = sorted(p for p in Path(ordclust.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads; ``__future__`` imports set compiler flags."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_check_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy as np\nfrom .data import a, b\nb(np)\n")
    assert _unused_imports(tree) == ["a (line 3)", "os (line 2)"]
