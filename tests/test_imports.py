import ast
import os
import subprocess
import sys
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


def _fresh_python(script: str) -> str:
    path = os.pathsep.join([str(Path(ordclust.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_ordclust_leaves_scipy_optimize_unloaded():
    # a fresh interpreter, since this test process loads scipy.optimize as a reference; linalg, special
    # and fft are the modules scipy.optimize brings in
    loaded = _fresh_python("import sys, ordclust, ordclust.cli, ordclust.fixtures\n"
                           "print(' '.join(m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.special',"
                           " 'scipy.fft') if m in sys.modules))\n")
    assert loaded.split() == []


def test_the_cli_freezes_what_its_imports_made():
    frozen, tracked = map(int, _fresh_python("import gc, ordclust.cli\n"
                                             "print(gc.get_freeze_count(), len(gc.get_objects()))\n").split())
    assert frozen > 10 * tracked  # a full collection scans only what came after the imports
