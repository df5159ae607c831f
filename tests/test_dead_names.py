"""Every public module-level function and class of the package, and every
public method of those classes, has a caller.

A name counts as called when some module under src/ refers to it: a bare
name, an attribute or an import; a method counts when any attribute of
that name is read, whatever the object.  Tests do not count, so code that
only its own unit test reaches is flagged and must be deleted, wired in, or
listed below with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "autocomm"

# Public names that nothing under src/ refers to, and why each stays.
ALLOWED = {
    "load_fixture_scene":
        "the channel-maps bench workload and ACCEPTANCE 6 load the bundled "
        "scenes with it",
    "EngineController":
        "bench/spans.py METHODS patches its decide; wiring it into the run "
        "layer is ROADMAP item 4",
}


def _public(nodes) -> list[ast.AST]:
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions() -> dict[str, str]:
    """Public module-level functions and classes, and the public methods of
    those classes as Class.method, name -> module file."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _public(tree.body):
            defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    defined[f"{node.name}.{method.name}"] = path.name
    return defined


def _references() -> set[str]:
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _bare(name: str) -> str:
    """The name a caller writes: the method's own name for Class.method."""
    return name.rsplit(".", 1)[-1]


def test_every_public_name_has_a_caller():
    referenced = _references()
    dead = sorted(f"{module}: {name}"
                  for name, module in _public_definitions().items()
                  if _bare(name) not in referenced and name not in ALLOWED)
    assert dead == []


def test_allowlist_has_no_stale_entries():
    defined = _public_definitions()
    referenced = _references()
    for name, reason in ALLOWED.items():
        assert reason
        assert name in defined, f"{name} is no longer defined"
        assert _bare(name) not in referenced, f"{name} now has a caller"
