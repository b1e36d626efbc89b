"""One reader of a quadrature scheme's kind: in ``src/`` only
``bubbles.weighted_power_integral`` branches on it.  Every other route
lends a scheme only its ``nodes`` and ``tol``, so a Monte Carlo scheme moves
no result that does not pass through that one weighted integral.  A read
is ``.kind`` (or ``getattr(..., "kind")``) taken off anything but ``self``:
a class reading its own field, as ``QuadratureScheme`` validating itself,
is not a reader."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _reads_kind(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "kind":
        return isinstance(node.ctx, ast.Load) and not (
            isinstance(node.value, ast.Name) and node.value.id == "self"
        )
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and any(isinstance(a, ast.Constant) and a.value == "kind" for a in node.args)
    )


def _functions(tree: ast.Module):
    """(node, qualified name) of every top-level function and every method
    of a top-level class; nested functions count toward their parent."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node, node.name
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs):
                    yield member, f"{node.name}.{member.name}"


def test_only_the_weighted_integral_reads_a_scheme_kind():
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        for node, qualname in _functions(ast.parse(path.read_text(), str(path))):
            if any(_reads_kind(sub) for sub in ast.walk(node)):
                readers.append(f"{path.stem}.{qualname}")
    assert readers == ["bubbles.weighted_power_integral"]
