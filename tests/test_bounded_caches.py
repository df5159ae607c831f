"""Every function cache under src/ has a bound, or a reason it needs none.

A sweep or a benchmark runs many scenarios in one process, so a cache
keyed by anything a scenario sets grows without limit.  A decorator counts
as bounded when it is ``lru_cache`` with the default size or an integer
``maxsize``; ``cache`` and ``lru_cache(maxsize=None)`` (or any size that
is not an integer literal) must be listed below with the reason their keys
are few.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "autocomm"

# "module.function" -> why its unbounded cache stays small.
ALLOWED = {
    "scheduling._submask_pairs":
        "keyed by a block's bit count: at most _BLOCK_BITS (10) for the "
        "low block, num_rbs - 10 for the high one, and the oracle's "
        "2^num_rbs tables keep num_rbs small",
    "configs._fields":
        "keyed by the scenario dataclasses, a fixed set",
    "configs._reader":
        "keyed by those dataclasses' field annotations, a fixed set",
    "configs._checks":
        "keyed by the parameter dataclasses, each checked under one name, "
        "a fixed set",
}


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(
        node, "id", "")


def _unbounded(decorator) -> bool:
    """True for cache, lru_cache(None) and lru_cache(maxsize=<not an int>)."""
    if _name(decorator) == "cache":
        return True
    if not (isinstance(decorator, ast.Call)
            and _name(decorator.func) == "lru_cache"):
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords
                                  if k.arg == "maxsize"]
    return any(not (isinstance(s, ast.Constant) and type(s.value) is int)
               for s in sizes)


def _unbounded_caches() -> set[str]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(_unbounded(d) for d in node.decorator_list)):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_every_unbounded_cache_is_allowlisted():
    assert sorted(_unbounded_caches() - set(ALLOWED)) == []


def test_allowlist_has_no_stale_entries():
    assert sorted(set(ALLOWED) - _unbounded_caches()) == []


def test_the_checker_tells_bounds_apart():
    def decorator(text):
        return ast.parse(f"@{text}\ndef f(): pass").body[0].decorator_list[0]

    for text in ("functools.cache", "cache", "functools.lru_cache(None)",
                 "lru_cache(maxsize=None)", "functools.lru_cache(maxsize=n)"):
        assert _unbounded(decorator(text)), text
    for text in ("functools.lru_cache", "functools.lru_cache()",
                 "lru_cache(8)", "functools.lru_cache(maxsize=8)",
                 "functools.wraps(g)", "staticmethod"):
        assert not _unbounded(decorator(text)), text
