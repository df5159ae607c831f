"""Every name a module under src/ imports is used in that module.

A name counts as used when the module refers to it as a bare name (in
code or in an annotation) or lists it in ``__all__``.  ``from __future__``
imports are directives, not names, and are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
