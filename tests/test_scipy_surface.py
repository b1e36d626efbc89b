"""The package imports nothing from scipy: its two special functions, ``ndtri``
and ``gammaln``, are in-package ports in ``sphere``.  Any scipy import in
``src/morsecount`` fails here, so no scipy module (``scipy.special`` alone adds
about 26 MB and 0.2-0.45 s to a cold ``flow``) comes back unseen."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "morsecount"


def _scipy_imports(tree: ast.AST):
    """(module, name, line) of every scipy import a module makes; a plain
    ``import scipy...`` has name None, and so does a string that names a
    scipy module (for ``importlib.import_module``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            for alias in node.names:
                yield node.module, alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy":
                    yield alias.name, None, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.split(".")[0] == "scipy":
                yield node.value, None, node.lineno


def test_the_package_imports_no_scipy():
    # the scan sees every form such an import can take
    source = (
        "import scipy.stats\n"
        "from scipy.stats import norm, qmc\n"
        "from scipy.special import ndtri\n"
        "importlib.import_module('scipy.stats')\n"
    )
    assert sorted(_scipy_imports(ast.parse(source)), key=lambda imp: imp[2]) == [
        ("scipy.stats", None, 1),
        ("scipy.stats", "norm", 2),
        ("scipy.stats", "qmc", 2),
        ("scipy.special", "ndtri", 3),
        ("scipy.stats", None, 4),
    ]
    found = [
        (path.stem, line, module, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name, line in _scipy_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
