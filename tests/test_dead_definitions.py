"""No dead code in the package: every top-level function and class in
``src/morsecount``, and every method and property of its classes, is
referenced outside its own definition somewhere in ``src/``, ``bench/`` or
``demos/``.  Tests do not count as callers, and neither does a string that
spells the name: listing a name as public, or naming it in a metric, is not
a call.  Dunder hooks (``__post_init__``, ``__call__``, ...) run implicitly
and are not checked."""
from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "morsecount"
SEARCHED = ("src", "bench", "demos")


def _references(tree: ast.AST):
    """(name, line) of every name a module mentions: bare names, attributes
    and imports.  String constants do not count, so a name listed in a table
    of strings (the package's ``_EXPORTS``, a tracer's metric names) is not
    a caller."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def test_every_package_definition_has_a_caller():
    used = defaultdict(list)  # name -> [(file, line)]
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in _references(ast.parse(path.read_text(), str(path))):
                used[name].append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, qualname in _definitions(ast.parse(path.read_text(), str(path))):
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own for p, line in used[node.name]):
                dead.append(f"{path.stem}.{qualname}")
    assert dead == []


def _definitions(tree: ast.Module):
    """(node, qualified name) of every top-level function and class, and of
    every method and property of those classes; dunder hooks are skipped."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or _is_dunder(node.name):
            continue
        yield node, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not _is_dunder(member.name):
                    yield member, f"{node.name}.{member.name}"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")
