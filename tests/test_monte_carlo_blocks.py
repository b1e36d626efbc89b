"""The Monte Carlo weighted integral streams its points in blocks of
``bubbles._MC_BLOCK``.  Blocking must not move a bit: every value and error
equals the one-pass kernel's (``oracles.one_pass_mc_weighted_integral``),
here on energy-scan's pool of sums and on three-bubble sums in n = 4..6, on
any SIMD kernels numpy picks, and the working memory no longer grows with
the sample count beyond the per-point terms."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from morsecount import bubbles
from morsecount.bubbles import (
    _MC_BLOCK,
    _UNIFORM_SHARE,
    Bubble,
    BubbleSum,
    _allocate,
    _canonical_sum,
    constant_one,
    weighted_power_integral,
)
from morsecount.presets import load_preset
from morsecount.quadrature import QuadratureScheme
from morsecount.sphere import unit
from oracles import one_pass_mc_weighted_integral

BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
# one block, exactly one block, one point past it, and many blocks
SAMPLE_COUNTS = (4000, _MC_BLOCK, _MC_BLOCK + 1, 50_000, 123_457)


def _cases():
    """(label, u, K, samples, seed): energy-scan's 48 pool sums on
    three-bump-s3 at every count, and seeded three-bubble sums under K = 1."""
    pool = json.loads(BENCH_REFERENCE.read_text())["energy-scan"]["mc"]
    K = load_preset("three-bump-s3")
    for i, entry in enumerate(pool):
        u = BubbleSum(
            n=3,
            bubbles=tuple(Bubble(tuple(c), lam) for c, lam in zip(entry["centers"], entry["lams"])),
            alphas=(1.0, 1.0),
            tau=entry["tau"],
        )
        for samples in SAMPLE_COUNTS:
            yield f"pool {i} at {samples}", u, K, samples, entry["seed"]
    rng = np.random.default_rng(24)
    for n in (4, 5, 6):
        u = BubbleSum(
            n=n,
            bubbles=tuple(
                Bubble(tuple(unit(rng.standard_normal(n + 1))), float(lam))
                for lam in rng.uniform(0.5, 40.0, 3)
            ),
            alphas=tuple(rng.uniform(0.5, 2.0, 3)),
            tau=0.05,
        )
        for samples in (4000, _MC_BLOCK + 1, 50_000):
            yield f"n={n} at {samples}", u, constant_one(n), samples, n


def _mismatches() -> list[str]:
    """Labels of the cases where the blocked integral and the one-pass
    oracle differ in any bit of value or error."""
    bad = []
    for label, u, K, samples, seed in _cases():
        got = weighted_power_integral(
            u, K, QuadratureScheme(kind="monte-carlo", samples=samples, seed=seed)
        )
        c = _canonical_sum(u)
        want = one_pass_mc_weighted_integral(c, K, 2.0 * c.n / (c.n - 2.0) - c.tau, samples, seed)
        if not np.array_equal(got, want):
            bad.append(label)
    return bad


def test_block_edges_cut_proposal_blocks():
    """With two bubbles, 50,000 and 123,457 samples put a block edge inside
    the uniform block and inside the first bubble's block."""
    for samples in (50_000, 123_457):
        ends = np.cumsum(_allocate(np.array([_UNIFORM_SHARE, 0.4, 0.4]), samples))
        edges = np.arange(_MC_BLOCK, ends[-1], _MC_BLOCK)
        starts = np.concatenate([[0], ends[:-1]])
        cut = [bool(np.any((start < edges) & (edges < end))) for start, end in zip(starts, ends)]
        assert cut[:2] == [True, True]


def test_blocked_integral_equals_the_one_pass_oracle_bit_for_bit():
    assert _mismatches() == []


def test_blocked_integral_equals_the_oracle_without_avx512_kernels():
    """Without AVX-512 numpy runs its AVX2 kernels; a target whose tail
    elements round apart from its body would move bits at a block edge."""
    # numpy ignores a feature the host lacks, so without AVX-512 nothing is disabled
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(Path(bubbles.__file__).resolve().parents[1]),
                                    str(Path(__file__).resolve().parent)]),
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
    )
    body = "import json, test_monte_carlo_blocks as t\nprint(json.dumps(t._mismatches()))"
    proc = subprocess.run([sys.executable, "-c", body], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_working_memory_is_one_block_plus_the_terms():
    """400,000 samples keep 3.2 MB of per-point terms; the one-pass kernel
    peaked at about 46 MB."""
    u = BubbleSum(
        n=3,
        bubbles=(Bubble((0.0, 0.0, 0.6, 0.8), 12.0), Bubble((0.0, 1.0, 0.0, 0.0), 5.0)),
        alphas=(1.0, 1.0),
        tau=0.05,
    )
    K = load_preset("three-bump-s3")
    scheme = QuadratureScheme(kind="monte-carlo", samples=400_000, seed=1)
    weighted_power_integral(u, K, scheme)  # caches the constants outside the trace
    tracemalloc.start()
    try:
        weighted_power_integral(u, K, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
