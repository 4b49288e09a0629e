"""No module of ``qiup`` keeps a module-level import it never uses.

Read with the standard library's ``ast``: a name that a module-level
``import`` or ``from ... import`` binds must appear as a name somewhere
else in its module, or in the module's ``__all__``.  The package's
``__init__`` re-exports names on purpose and is exempt, and so is
``from __future__``, which binds nothing.
"""
import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qiup"
MODULES = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s module-level imports bind and nothing in
    it reads."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.partition(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            used.update(ast.literal_eval(stmt.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    assert unused_imports((SOURCE / module).read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("from .observables import _series, visibility\n_series()\n", ["visibility (line 1)"]),
    ("import os.path\nimport numpy as np\nos.sep\n", ["np (line 2)"]),
    ("from __future__ import annotations\nimport math\n__all__ = ['math']\n", []),
    ("import math\ndef f(x: math.pi): pass\n", []),
])
def test_unused_imports_found(source, unused):
    assert unused_imports(source) == unused
