"""The energy-scan benchmark's correctness gate, run as a test.

``bench/workloads.py`` checks every single-bubble level, pair energy,
antipodal tower and Monte Carlo ``J`` it times against ``bench/reference.json``
by its ``_within`` allowance, and every pinned equilibrium scale and Morse
index exactly.  Here every pooled entry, every pin and single bubbles at
fixed scales across the benchmark's range go through the benchmark's own ops
and checks (the file is read, never written), so a change that would fail the
benchmark's gate fails this test first.
"""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import morsecount

BENCH = Path(__file__).resolve().parents[1] / "bench"
# the benchmark draws its single-bubble scales log-uniformly from [1.5, 2000]
SINGLE_SCALES = (1.5, 4.0, 30.0, 250.0, 2000.0)


def bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_energy_scan_reference_passes_the_bench_allowance(tmp_path):
    workloads = bench_workloads()
    ref = json.loads((BENCH / "reference.json").read_text())
    es = ref["energy-scan"]
    inputs = {
        "single": [(n, lam) for n in range(3, 8) for lam in SINGLE_SCALES],
        "pairs": list(range(len(es["pairs"]))),
        "mc": list(range(len(es["mc"]))),
        "pins": list(range(len(es["pins"]))),
    }
    ops = workloads.energy_scan_ops(morsecount, inputs, ref, tmp_path)
    kinds = [op.label.split()[0] for op in ops]
    counts = {kind: kinds.count(kind) for kind in ("single", "tower", "pair", "mc", "pin")}
    assert counts == {"single": 25, "tower": len(es["towers"]), "pair": 64, "mc": 48, "pin": 7}
    failed = [op.label for op in ops if not op.check(op.run())]
    assert failed == []
