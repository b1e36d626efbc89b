"""One reader of a curvature candidate's bumps one by one: in ``src/`` only
``KFunction`` loops over ``terms``.  It builds the array form every kernel
reads (``centers``, ``weights``, ``widths``, ``widths2``), so a rule such as
how a width is squared is written once.  A read is a ``for`` loop or a
comprehension whose iterable takes a ``.terms`` attribute; a truth test such
as ``if not K.terms`` is not a read."""
from __future__ import annotations

import ast
from pathlib import Path

from test_scheme_kind_readers import SRC, _functions


def _loops_over_terms(node: ast.AST) -> bool:
    if not isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        return False
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "terms"
        for sub in ast.walk(node.iter)
    )


def term_readers(src: Path = SRC) -> list[str]:
    """Qualified names of the functions and methods under ``src`` outside
    ``KFunction`` that loop over a ``.terms`` attribute."""
    readers = []
    for path in sorted(src.rglob("*.py")):
        for node, qualname in _functions(ast.parse(path.read_text(), str(path))):
            if qualname.startswith("KFunction."):
                continue
            if any(_loops_over_terms(sub) for sub in ast.walk(node)):
                readers.append(f"{path.stem}.{qualname}")
    return readers


def test_only_kfunction_loops_over_its_terms():
    assert term_readers() == []


def test_the_guard_sees_loops_and_comprehensions_but_not_truth_tests(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def loop(K):\n    for t in K.terms:\n        pass\n"
        "def comp(K):\n    return [t.width for t in K.terms]\n"
        "def zipped(K, g):\n    return {a: t for a, t in zip(g, K.terms)}\n"
        "def nested(K):\n    def inner():\n        return sum(t.weight for t in K.terms)\n"
        "    return inner\n"
        "def truth(K):\n    return 1.0 if not K.terms else len(K.terms)\n"
        "class KFunction:\n    def to_dict(self):\n"
        "        return [t for t in self.terms]\n"
        "class Other:\n    def read(self, K):\n        return [t for t in K.terms]\n"
    )
    assert term_readers(tmp_path) == [
        "mod.loop", "mod.comp", "mod.zipped", "mod.nested", "mod.Other.read",
    ]
