"""Every name a module imports is used in that module.

The Python files of ``src/``, ``tests/``, ``examples/`` and ``benchmarks/``
are parsed, and each name an ``import`` binds must be loaded somewhere in
the same file: as a ``Name`` (an attribute chain starts with one), inside
a quoted annotation, or listed in ``__all__``.  An ``__init__.py``
imports to re-export, so it is not checked, and neither is ``from
__future__ import ...``.  CI runs no linter, so this is the one check that
an import left behind by a change is deleted with it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRS = ("src", "tests", "examples", "benchmarks")


def _imported(tree: ast.Module) -> dict:
    """``{bound name: line}`` of every import in ``tree``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Names ``tree`` loads, names in its quoted annotations and in its
    ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation or ast.Module(body=[])):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return used


def unused_imports() -> list:
    found = []
    for d in DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            used = _used(tree)
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for name, line in _imported(tree).items()
                      if name not in used]
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom x import (a, b as c)\n"
                     "def f() -> 'a': pass\n__all__ = ['c']\n")
    assert set(_imported(tree)) - _used(tree) == {"os"}
