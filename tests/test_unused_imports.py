"""Every name a module under src/ imports is used in that module, and
every module it imports is stdlib, autocomm, or a declared dependency.

A name counts as used when the module refers to it as a bare name (in
code or in an annotation) or lists it in ``__all__``.  ``from __future__``
imports are directives, not names, and are skipped.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_every_import_is_used():
    unused = {}
    for path in sorted(SRC.rglob("*.py")):
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            unused[str(path.relative_to(SRC))] = found
    assert unused == {}


def test_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, json as js\n"
                     "from typing import Optional, Sequence\n"
                     "x: Optional[int] = js.loads('1')\n"
                     "__all__ = ['Sequence']\n")
    assert _unused_imports(tree) == ["line 2: os"]


def _dependencies() -> set[str]:
    """Import names of pyproject.toml's [project] dependencies."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            .replace("-", "_")
            for spec in re.findall(r'"([^"]+)"', block.group(1))}


def _top_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level package) of every absolute import in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".", 1)[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.split(".", 1)[0]))
    return found


def _undeclared_imports(tree: ast.Module, declared: set[str]) -> list[str]:
    allowed = set(sys.stdlib_module_names) | {"autocomm"} | declared
    return sorted(f"line {line}: {top}"
                  for line, top in _top_level_imports(tree)
                  if top not in allowed)


def test_every_import_is_stdlib_or_declared():
    declared = _dependencies()
    undeclared, imported = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported |= {top for _, top in _top_level_imports(tree)}
        found = _undeclared_imports(tree, declared)
        if found:
            undeclared[str(path.relative_to(SRC))] = found
    assert undeclared == {}
    # ...and no declared dependency goes unused.
    assert declared <= imported


def test_finds_an_undeclared_import():
    tree = ast.parse("import json, requests\n"
                     "import numpy.linalg\n"
                     "from . import gateway\n"
                     "from autocomm.rng import stream\n"
                     "def f():\n"
                     "    from urllib3 import util\n")
    assert _undeclared_imports(tree, {"numpy"}) == ["line 1: requests",
                                                   "line 6: urllib3"]
