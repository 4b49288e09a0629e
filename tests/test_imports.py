"""No module of ``qiup`` keeps a module-level import it never uses, and no
private module-level name goes unread.

Read with the standard library's ``ast``: a name that a module-level
``import`` or ``from ... import`` binds must appear as a name somewhere
else in its module, or in the module's ``__all__``.  The package's
``__init__`` re-exports names on purpose and is exempt, and so is
``from __future__``, which binds nothing.  A private name (``_x``, not a
dunder) that a module-level ``def``, ``class`` or assignment binds must be
read somewhere in the package besides its own definition: as a name, as an
attribute or as the name a ``from ... import`` takes.  And ``observables``
imports nothing from ``dsl``: sweeps learn a circuit's statements from the
plan's structure table, so the statement rules stay in ``plan``.

A cold ``import qiup`` creates one dataclass, ``CircuitPlan``: the
decorator compiles each class's methods when the class is created, in every
process.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import src_env

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


def definitions(stmt: ast.stmt) -> list[str]:
    """The private names that the module-level statement ``stmt`` binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def reads(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads as a name, an attribute or an import."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names of ``sources`` (module name to text)
    that no module-level statement of any of them reads, other than the one
    that defines the name."""
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    read = [reads(stmt) for _, stmt in statements]
    unread = []
    for k, (module, stmt) in enumerate(statements):
        for name in definitions(stmt):
            if not any(name in names for j, names in enumerate(read) if j != k):
                unread.append(f"{module}:{name} (line {stmt.lineno})")
    return unread


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert unread_private_names(sources) == []


@pytest.mark.parametrize("sources, unread", [
    ({"a.py": "def _f(): pass\n"}, ["a.py:_f (line 1)"]),
    ({"a.py": "def _f(): pass\ndef g(): return _f()\n"}, []),
    ({"a.py": "def _f(): return _f()\n"}, ["a.py:_f (line 1)"]),
    ({"a.py": "_X: int = 1\n__all__ = []\n_Y = 2\nprint(_Y)\n"}, ["a.py:_X (line 1)"]),
    ({"a.py": "class _C: pass\n", "b.py": "from . import a\na._C()\n"}, []),
    ({"a.py": "_Z = 1\n", "b.py": "from .a import _Z as z\n"}, []),
])
def test_unread_private_names_found(sources, unread):
    assert unread_private_names(sources) == unread


def imported(source: str) -> set[str]:
    """Every module and name that ``source``, a module of ``qiup``, imports,
    dotted from the package: ``from .dsl import ParamRef`` gives
    ``qiup.dsl`` and ``qiup.dsl.ParamRef``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "qiup" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def imports_from(source: str, module: str) -> list[str]:
    return sorted(name for name in imported(source)
                  if name == module or name.startswith(module + "."))


def test_observables_imports_nothing_from_dsl():
    assert imports_from((SOURCE / "observables.py").read_text(), "qiup.dsl") == []


@pytest.mark.parametrize("source, found", [
    ("from .dsl import ParamRef\n", ["qiup.dsl", "qiup.dsl.ParamRef"]),
    ("from . import dsl\n", ["qiup.dsl"]),
    ("def f():\n    import qiup.dsl\n", ["qiup.dsl"]),
    ("from qiup.dsl import STATEMENTS as s\n", ["qiup.dsl", "qiup.dsl.STATEMENTS"]),
    ("from .plan import CircuitPlan\nfrom .dsl_extra import x\n", []),
])
def test_imports_from_found(source, found):
    assert imports_from(source, "qiup.dsl") == found


def test_import_creates_one_dataclass():
    # README documents dataclasses.replace on plans; every other class of
    # the loaded modules is a Record or a NamedTuple, and the verification
    # module, whose report is a dataclass too, loads only for verify
    script = ("import sys, qiup\n"
              "print(sorted({f'{v.__module__}.{v.__qualname__}'\n"
              "              for name, module in list(sys.modules.items())\n"
              "              if name == 'qiup' or name.startswith('qiup.')\n"
              "              for v in vars(module).values()\n"
              "              if isinstance(v, type) and hasattr(v, '__dataclass_fields__')}))\n"
              "print('qiup.verification' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['qiup.plan.CircuitPlan']", "False"]
