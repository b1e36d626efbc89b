"""The energy-scan benchmark's correctness gate, run as a test.

``bench/workloads.py`` checks every pair energy, antipodal tower and Monte
Carlo ``J`` it times against ``bench/reference.json`` by its ``_within``
allowance.  Here every pooled entry goes through the benchmark's own ops and
checks (the file is read, never written), so a change to a pair or Monte
Carlo route that would fail the benchmark fails this test first.
"""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import morsecount

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
        "single": [],
        "pairs": list(range(len(es["pairs"]))),
        "mc": list(range(len(es["mc"]))),
        "pins": [],
    }
    ops = workloads.energy_scan_ops(morsecount, inputs, ref, tmp_path)
    kinds = [op.label.split()[0] for op in ops]
    assert (kinds.count("pair"), kinds.count("mc")) == (64, 48)
    failed = [op.label for op in ops if not op.check(op.run())]
    assert failed == []
