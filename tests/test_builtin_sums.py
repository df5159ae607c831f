"""No builtin sum() adds floats under src/.

From Python 3.12 on, sum() adds floats with Neumaier compensation; 3.10
and 3.11 add left to right.  The package supports both, and its records
must not change with the interpreter, so float totals are written as
explicit left folds.  A call of builtin sum that adds only integers is
listed below with the reason it is exact.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "autocomm"

# "module.function: call" -> why the sum is exact on every interpreter.
ALLOWED = {
    "report._run_scheduling: sum(s.iterations_run for s in result.segments)":
        "iterations_run is an int per segment, so the total is an exact "
        "integer before float() turns it into the record's number",
}


def _builtin_sums(source: str, module: str) -> list[str]:
    """"module.function: call" for each call of the bare name sum, the
    call as written."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Name)
                  and child.func.id == "sum"):
                found.append(f"{module}.{scope}: "
                             f"{ast.get_source_segment(source, child)}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def _package_sums() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _builtin_sums(path.read_text(encoding="utf-8"), path.stem)
    return found


def test_every_builtin_sum_is_allowlisted():
    assert sorted(set(_package_sums()) - set(ALLOWED)) == []


def test_allowlist_has_no_stale_entries():
    assert sorted(set(ALLOWED) - set(_package_sums())) == []


def test_the_checker_finds_a_planted_sum():
    source = ("import numpy as np\n"
              "def f(xs):\n"
              "    a = np.sum(xs) + xs.sum() + math.fsum(xs)\n"
              "    return a + sum(x * 2 for x in xs)\n"
              "total = sum([0.1, 0.2])\n")
    assert _builtin_sums(source, "m") == ["m.f: sum(x * 2 for x in xs)",
                                          "m.<module>: sum([0.1, 0.2])"]
