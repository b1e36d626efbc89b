"""Mutation sampling: which small edits of chosen functions do the tests miss?

Run from the repository root::

    python tests/mutation_sample.py morsecount.indexcount _class_bounds solution_bounds \
        --tests tests/test_bounds.py tests/test_index_tables.py tests/test_acceptance.py

Each mutant changes one spot inside the named functions:

* ``op``     -- a binary operator swapped (``+``/``-``, ``*``/``//``, ``%`` to ``//``,
  ``**`` to ``*``, ``&``/``|``, ``<<``/``>>``);
* ``cmp``    -- a comparison swapped (``==``/``!=``, ``<``/``<=``, ``>``/``>=``,
  ``in``/``not in``, ``is``/``is not``);
* ``int+1``  -- an integer literal raised by one;
* ``neg``    -- a unary ``-`` or ``not`` dropped;
* ``hand``   -- a literal ``OLD=>NEW`` edit given with ``--also``.

The edit is made on the source text, so every other line keeps its number.
Each mutant runs the given test files (``pytest -x``, a fixed Hypothesis
seed) in a temporary copy of the repository, one at a time.  A mutant the
tests pass is a survivor; the script prints each survivor's key, and marks
those listed in ``tests/equivalent_mutants.txt`` (one key per line, then two
spaces, ``#`` and the reason).  It exits 1 when a survivor is not listed.
Docstrings and decorators are left alone.  The file is not named
``test_*``, so pytest never collects it.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = ROOT / "tests" / "equivalent_mutants.txt"
TIMEOUT_S = 120  # a mutant whose test run takes longer counts as killed

_OPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
    ast.FloorDiv: ("//", "*"), ast.Mod: ("%", "//"), ast.Pow: ("**", "*"),
    ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&"),
    ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<"),
}
_CMPS = {
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
}


@dataclass(frozen=True)
class Mutant:
    function: str
    kind: str
    start: int  # byte offsets of the replaced span in the module source
    end: int
    new: bytes

    def apply(self, src: bytes) -> bytes:
        return src[: self.start] + self.new + src[self.end:]

    def key(self, src: bytes) -> str:
        """``function: line => mutated line``, stable while the line is."""
        lo = src.rfind(b"\n", 0, self.start) + 1
        hi = src.find(b"\n", self.end)
        before = src[lo:hi].decode().strip()
        after = self.apply(src)[lo: hi + len(self.new) - (self.end - self.start)].decode().strip()
        return f"{self.function}: {before} => {after}"


def _offsets(src: bytes) -> list[int]:
    starts = [0]
    for i, byte in enumerate(src):
        if byte == 0x0A:
            starts.append(i + 1)
    return starts


def _operator_span(src: bytes, lo: int, hi: int, token: str) -> tuple[int, int] | None:
    """The one occurrence of ``token`` as a whole operator in src[lo:hi]."""
    gap = src[lo:hi].decode()
    hits = []
    i = gap.find(token)
    while i >= 0:
        before, after = gap[i - 1: i], gap[i + len(token): i + len(token) + 1]
        if token.isalpha() or " " in token:
            whole = not (before.isalnum() or after.isalnum())
        else:
            whole = before not in "*/<>=!" and after not in "*/<>="
        if whole:
            hits.append(i)
        i = gap.find(token, i + 1)
    if len(hits) != 1:
        return None
    start = lo + len(gap[: hits[0]].encode())
    return start, start + len(token.encode())


def mutants(src: bytes, functions: list[str]) -> list[Mutant]:
    tree = ast.parse(src)
    line = _offsets(src)

    def at(lineno: int, col: int) -> int:
        return line[lineno - 1] + col

    found: list[Mutant] = []
    bodies = {
        node.name: node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in functions
    }
    missing = set(functions) - set(bodies)
    if missing:
        raise SystemExit(f"no function named {sorted(missing)} in the module")
    for name in functions:
        fn = bodies[name]
        skip = {id(n) for d in fn.decorator_list for n in ast.walk(d)}
        doc = fn.body[0] if ast.get_docstring(fn) is not None else None
        if doc is not None:
            skip |= {id(n) for n in ast.walk(doc)}
        for node in ast.walk(fn):
            if id(node) in skip:
                continue
            if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
                old, new = _OPS[type(node.op)]
                lo = at(node.left.end_lineno, node.left.end_col_offset)
                hi = at(node.right.lineno, node.right.col_offset)
                span = _operator_span(src, lo, hi, old)
                if span:
                    found.append(Mutant(name, "op", *span, new.encode()))
            elif isinstance(node, ast.Compare):
                left = node.left
                for op, right in zip(node.ops, node.comparators):
                    old, new = _CMPS[type(op)]
                    lo = at(left.end_lineno, left.end_col_offset)
                    hi = at(right.lineno, right.col_offset)
                    span = _operator_span(src, lo, hi, old)
                    if span:
                        found.append(Mutant(name, "cmp", *span, new.encode()))
                    left = right
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                lo, hi = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
                found.append(Mutant(name, "int+1", lo, hi, str(node.value + 1).encode()))
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
                lo, hi = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
                inner = src[at(node.operand.lineno, node.operand.col_offset):
                            at(node.operand.end_lineno, node.operand.end_col_offset)]
                found.append(Mutant(name, "neg", lo, hi, b"(" + inner + b")"))
    return sorted(found, key=lambda m: (m.start, m.kind))


def hand_mutant(src: bytes, functions: list[str], edit: str) -> Mutant:
    old, sep, new = edit.partition("=>")
    if not sep:
        raise SystemExit(f"--also takes OLD=>NEW, got {edit!r}")
    tree = ast.parse(src)
    line = _offsets(src)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            lo = line[node.lineno - 1]
            hi = line[node.end_lineno] if node.end_lineno < len(line) else len(src)
            i = src.find(old.encode(), lo, hi)
            if i >= 0 and src.find(old.encode(), i + 1, hi) < 0:
                return Mutant(node.name, "hand", i, i + len(old.encode()), new.encode())
    raise SystemExit(f"--also {edit!r}: OLD must occur exactly once in one named function")


def _equivalent(path: Path) -> dict[str, str]:
    listed = {}
    for raw in path.read_text().splitlines():
        if raw.strip() and not raw.lstrip().startswith("#"):
            key, _, reason = raw.rpartition("  # ")
            listed[key.strip()] = reason.strip()
    return listed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="dotted module under src/, e.g. morsecount.indexcount")
    ap.add_argument("functions", nargs="+")
    ap.add_argument("--tests", nargs="+", required=True, help="test files, relative to the root")
    ap.add_argument("--also", action="append", default=[], metavar="OLD=>NEW",
                    help="a hand-written mutant: a literal edit inside one named function")
    args = ap.parse_args(argv)

    rel = Path("src", *args.module.split(".")).with_suffix(".py")
    src = (ROOT / rel).read_bytes()
    todo = mutants(src, args.functions) + [hand_mutant(src, args.functions, e) for e in args.also]
    listed = _equivalent(EQUIVALENT)
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *args.tests]

    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out"))
        base = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
        if base.returncode != 0:
            print(base.stdout[-2000:])
            raise SystemExit("the tests fail on the unmutated copy")
        target = copy / rel
        print(f"{len(todo)} mutants of {', '.join(args.functions)} in {rel}")
        for i, mutant in enumerate(todo, 1):
            key = mutant.key(src)
            target.write_bytes(mutant.apply(src))
            t0 = time.perf_counter()
            try:
                run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                                     text=True, timeout=TIMEOUT_S)
                outcome = "killed" if run.returncode != 0 else "SURVIVED"
            except subprocess.TimeoutExpired:
                outcome = "killed (timeout)"
            finally:
                target.write_bytes(src)
                shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
            print(f"[{i}/{len(todo)}] {outcome:16s} {time.perf_counter() - t0:5.1f}s  "
                  f"{mutant.kind:5s} {key}", flush=True)
            if outcome == "SURVIVED":
                survivors.append(key)

    unlisted = [k for k in survivors if k not in listed]
    print(f"\n{len(todo) - len(survivors)} of {len(todo)} killed; "
          f"{len(survivors) - len(unlisted)} survivors listed as equivalent, {len(unlisted)} not")
    for key in survivors:
        mark = f"equivalent: {listed[key]}" if key in listed else "UNLISTED"
        print(f"  {key}  [{mark}]")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
