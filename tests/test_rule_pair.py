"""Every radial integral calls its integrand once, on the points of both
rules of ``quadrature._doubled``, which only ``quadrature`` binds.  Fusing
the calls must not move a bit: the value and the error equal the two-call
rule's (``oracles.two_call_doubled``) on the integrands of energy-scan's
towers, pairs and pin locations, of single bubbles in n = 3..7, of the scale
line and of the derivative columns, and of a scalar F, at 16, 17, 64 and 128
nodes, on any SIMD kernels numpy picks."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from morsecount import bubbles, quadrature
from morsecount.bubbles import (
    Bubble,
    BubbleSum,
    constant_one,
    equilibrium_scale,
    functional_J_detailed,
    integrate_radial,
    norm_squared,
    reduced_morse_index,
)
from morsecount.presets import load_preset
from oracles import two_call_doubled

BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
NODES = (16, 17, 64, 128)


def _pole(n, sign=1.0):
    return (0.0,) * n + (sign,)


def _workload(es):
    """(label, call) for every radial route: energy-scan's towers, pairs and
    pins (the scale line, then the Morse index through the derivative
    columns), single bubbles on K = 1 and on a K with bumps, and a scalar F."""
    for t in es["towers"]:
        n, lam = t["n"], t["lam"]
        u = BubbleSum(n=n, bubbles=(Bubble(_pole(n), lam), Bubble(_pole(n, -1.0), lam)),
                      alphas=(1.0, 1.0))
        yield f"tower n={n} lam={lam:g}", lambda u=u: functional_J_detailed(u, constant_one(u.n))
    for i, p in enumerate(es["pairs"]):
        u = BubbleSum(n=3, bubbles=tuple(Bubble(tuple(c), l) for c, l in zip(p["centers"], p["lams"])),
                      alphas=(1.0, 1.0))
        yield f"pair {i}", lambda u=u: norm_squared(u)
    for i, p in enumerate(es["pins"]):
        K, lam = load_preset(p["preset"]), []
        # the scale call has run by the time the generator resumes for the columns
        yield f"scale {i}", lambda K=K, p=p, lam=lam: lam.append(equilibrium_scale(K, p["location"], p["tau"]))
        u = BubbleSum(n=3, bubbles=(Bubble(tuple(p["location"]), lam[0]),), alphas=(1.0,), tau=p["tau"])
        yield f"columns {i}", lambda u=u, K=K: reduced_morse_index(u, K)
    for n in range(3, 8):
        for lam in (1.5, 40.0, 2000.0):
            u = BubbleSum(n=n, bubbles=(Bubble(_pole(n), lam),), alphas=(1.0,))
            yield f"single n={n} lam={lam:g}", lambda u=u: functional_J_detailed(u, constant_one(u.n))
    K = load_preset("three-bump-s3")
    u = BubbleSum(n=3, bubbles=(Bubble(K.terms[0].center, 40.0),), alphas=(1.0,), tau=0.05)
    yield "single on three-bump-s3", lambda: functional_J_detailed(u, K)
    yield "scalar F", lambda: integrate_radial(lambda t: 2.5, 3, features=[(0.0, 0.05)])


def _integrands():
    """(label, f, breaks) of every call to ``_doubled`` the workload makes."""
    es = json.loads(BENCH_REFERENCE.read_text())["energy-scan"]
    seen = []
    real = quadrature._doubled

    def capture(f, breaks, nodes):
        seen.append((label, f, breaks))
        return real(f, breaks, nodes)

    mp = pytest.MonkeyPatch()
    mp.setattr(quadrature, "_doubled", capture)
    try:
        for label, call in _workload(es):
            call()
    finally:
        mp.undo()
    return seen


def _mismatches() -> list[str]:
    """Labels (with the node count) where the fused rule and the two-call
    oracle differ in any bit of value or error."""
    bad = []
    for label, f, breaks in _integrands():
        for nodes in NODES:
            got = quadrature._doubled(f, breaks, nodes)
            want = two_call_doubled(f, breaks, nodes)
            if not all(np.array_equal(g, w) for g, w in zip(got, want)):
                bad.append(f"{label} at {nodes}")
    return bad


def test_every_route_reaches_the_rule_pair():
    labels = {label.split()[0] for label, _, _ in _integrands()}
    assert labels == {"tower", "pair", "scale", "columns", "single", "scalar"}


def test_fused_rule_equals_the_two_call_oracle_bit_for_bit():
    assert _mismatches() == []


def test_fused_rule_equals_the_oracle_without_avx512_kernels():
    """Without AVX-512 numpy runs its AVX2 kernels; a target whose elements
    round apart by their place in the array would move bits."""
    # numpy ignores a feature the host lacks, so without AVX-512 nothing is disabled
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(Path(bubbles.__file__).resolve().parents[1]),
                                    str(Path(__file__).resolve().parent)]),
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
    )
    body = "import json, test_rule_pair as t\nprint(json.dumps(t._mismatches()))"
    proc = subprocess.run([sys.executable, "-c", body], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
