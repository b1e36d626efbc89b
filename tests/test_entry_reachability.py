"""``src/`` is what its entry points run: every function in
``src/morsecount`` (top-level, method or nested ``def``) is entered by a CLI
subcommand or a demo, or is named in ``ALLOWED`` with its caller outside
``src/`` and the reason it stays.

One fresh interpreter runs, under a ``sys.settrace`` trace, ``verify
--exhaustive --max-m 6 --max-N 10``, ``flow`` on both S^3 presets,
``quadrature``, ``indices`` and ``bounds`` on every parity preset, and the
four demos, and records the first line of every ``src/`` code object it
enters.  This is the run-time complement of ``test_dead_definitions.py``,
which asks only that a name be mentioned somewhere.

Run as a script, ``python tests/test_entry_reachability.py`` prints every
function no entry point enters, with its line count and its allowlist
reason, and the totals.  Then, for every function the entry points do
enter, it lists the statements they never run (by first line; docstrings
are not statements here), with totals per module: the same trace keeps
every line executed in ``src/``.  A compound statement counts as run when
any line of it runs.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "morsecount"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_MONTE_CARLO = "Monte Carlo; no CLI subcommand or demo runs it, bench energy-scan does (ROADMAP item 16)"

#: function -> (a file outside ``src/`` that calls it, why no entry point does)
ALLOWED = {
    "__init__.__dir__": (
        "tests/test_cli.py",
        "dir(morsecount) lists the lazy exports (PEP 562); no entry point lists them",
    ),
    "bubbles._allocate": ("bench/workloads.py", _MONTE_CARLO),
    "bubbles._split_half": ("bench/workloads.py", _MONTE_CARLO),
    "bubbles._dilate": ("bench/workloads.py", _MONTE_CARLO),
    "bubbles._mc_weighted_integral": ("bench/workloads.py", _MONTE_CARLO),
    "bubbles.reduced_morse_index": (
        "bench/workloads.py",
        "the Morse index in the sum's own chart, for energy-scan's pins and "
        "bench/make_reference.py; a flow reads FlowReport.morse_index()",
    ),
    "cli.__getattr__": (
        "bench/workloads.py",
        "binds the lab's names on first access; pin-flow wraps "
        "cli.find_critical_points before a subcommand binds them",
    ),
    "cli.CLIFailure.__init__": ("tests/test_cli.py", "the exit 2-5 failure paths"),
    "cli.CLIFailure.payload": ("tests/test_cli.py", "the exit 2-5 failure paths"),
    "cli._Parser.error": ("tests/test_cli.py", "argparse's usage errors, exit 2"),
    "cli._parse_parities": ("tests/test_cli.py", "the --parities flag; the traced runs use presets"),
    "cli._ConfigFile.__call__": ("tests/test_cli.py", "the --config flag"),
    "presets.available_presets": (
        "bench/make_reference.py",
        "lists the bundled presets; an entry point names its preset",
    ),
}


def _cli_runs() -> list[list[str]]:
    """argv of every traced CLI run (``--out`` is added per run)."""
    parity = [
        path.stem
        for path in sorted((PACKAGE / "presets").glob("*.json"))
        if "parities" in json.loads(path.read_text())
    ]
    return [
        ["verify", "--exhaustive", "--max-m", "6", "--max-N", "10"],
        ["flow", "--preset", "three-bump-s3"],
        ["flow", "--preset", "three-max-one-saddle"],
        ["quadrature"],
        *[[mode, "--preset", name] for name in parity for mode in ("indices", "bounds")],
    ]


def _trace(out: Path) -> dict[str, list[tuple[str, int]]]:
    """(file name, line) of the first line of every ``src/`` code object the
    entry points enter, and of every ``src/`` line they execute; run in a
    fresh interpreter, since imports run code too."""
    import morsecount
    from morsecount.cli import main

    prefix = os.path.dirname(os.path.realpath(morsecount.__file__)) + os.sep
    entered, executed = set(), set()

    def line_trace(frame, event, arg):
        if event == "line":
            executed.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
        return line_trace

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((os.path.basename(code.co_filename), code.co_firstlineno))
            return line_trace
        return None

    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for i, argv in enumerate(_cli_runs()):
                code = main([*argv, "--out", str(out / f"cli_{i}")])
                assert code == 0, (argv, code)
            for demo in DEMOS:
                os.chdir(out)
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
    return {"entered": sorted(entered), "executed": sorted(executed)}


def _statements(nodes):
    """The statements among ``nodes`` and in their blocks, not in a nested
    ``def`` or ``class`` (a body of its own)."""
    for node in nodes:
        if isinstance(node, ast.stmt):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.expr)):
            yield from _statements(ast.iter_child_nodes(node))


def _definitions():
    """(qualified name, (file name, first line), line count, statement
    spans) of every ``def`` in the package; a decorated function's code
    starts at its first decorator, and a docstring is no statement."""
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [path.stem]
        found = []

        class Visitor(ast.NodeVisitor):
            def visit_ClassDef(self, node):
                stack.append(node.name)
                self.generic_visit(node)
                stack.pop()

            def visit_FunctionDef(self, node):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                spans = [(st.lineno, st.end_lineno) for st in _statements(body)]
                stack.append(node.name)
                found.append((".".join(stack), (path.name, first), node.end_lineno - first + 1, spans))
                self.generic_visit(node)
                stack.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

        Visitor().visit(ast.parse(path.read_text(), str(path)))
        yield from found


def _run_trace() -> tuple[set, set]:
    """(entered, executed) of one traced run in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, __file__, "--trace", out],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=600,
        )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout)
    return tuple({tuple(key) for key in trace[k]} for k in ("entered", "executed"))


def _unentered(entered: set) -> list[tuple[str, int]]:
    """(qualified name, line count) of every function no entry point enters."""
    return [(name, lines) for name, key, lines, _ in _definitions() if key not in entered]


def _unrun(entered: set, executed: set) -> list[tuple[str, int, list[int]]]:
    """(qualified name, statement count, first lines of the statements no
    entry point runs) of every function an entry point enters."""
    rows = []
    for name, (file, first), _, spans in _definitions():
        if (file, first) in entered:
            unrun = [
                lo for lo, hi in spans
                if not any((file, line) in executed for line in range(lo, hi + 1))
            ]
            rows.append((name, len(spans), unrun))
    return rows


@pytest.fixture(scope="module")
def unentered():
    return _unentered(_run_trace()[0])


def test_every_function_is_entered_or_allowed(unentered):
    assert [name for name, _ in unentered if name not in ALLOWED] == []


def test_every_allowed_function_exists_and_is_unentered(unentered):
    """An entry that names a function gone from ``src/``, or one an entry
    point now enters, is stale."""
    assert sorted(ALLOWED) == sorted(name for name, _ in unentered if name in ALLOWED)


def test_every_allowed_entry_names_a_caller_outside_src_and_a_reason():
    for name, (caller, reason) in ALLOWED.items():
        assert (ROOT / caller).is_file() and not caller.startswith("src/"), name
        assert reason.strip(), name


if __name__ == "__main__":
    if sys.argv[1:2] == ["--trace"]:
        print(json.dumps(_trace(Path(sys.argv[2]))))
    else:
        entered, executed = _run_trace()
        rows = _unentered(entered)
        for name, lines in rows:
            reason = ALLOWED.get(name, ("", "NOT ALLOWED"))[1]
            print(f"{name:48s} {lines:4d}  {reason}")
        print(f"{len(rows)} functions, {sum(lines for _, lines in rows)} lines unentered")
        print()
        totals = {}
        for name, count, unrun in _unrun(entered, executed):
            module = totals.setdefault(name.split(".")[0], [0, 0, 0])
            module[0] += 1
            module[1] += count
            module[2] += len(unrun)
            if unrun:
                print(f"{name:48s} {len(unrun):3d}/{count:<3d} unrun at {', '.join(map(str, unrun))}")
        for module, (functions, count, unrun) in totals.items():
            print(f"{module}: {functions} functions entered, {unrun} of {count} statements unrun")
