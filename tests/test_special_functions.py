"""The in-package special functions: ``sphere.ndtri`` and ``sphere.gammaln``
are ports of Cephes and must equal ``scipy.special``'s bit for bit, so that
every seed and every Gamma constant keeps the bits it had while the package
called scipy.  ``sphere_area`` refuses dimensions that are not integers >= 0,
and it, ``sobolev_constant`` and ``c0`` refuse dimensions where they overflow.
The seeds and constants must not depend on which SIMD kernels numpy picks."""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from morsecount import sphere
from morsecount.bubbles import c0, sobolev_constant
from morsecount.sphere import gammaln, ndtri, quasi_uniform_points, sphere_area


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# arguments deep in both tails, down to the subnormals, so Cephes' x >= 8 branch runs too
TAILS = np.concatenate([10.0 ** -np.arange(1, 308), 2.0 ** -np.arange(1, 1075)])


def test_ndtri_matches_scipy_bit_for_bit():
    dyadic = np.clip(np.arange(2**16 + 1) / 2**16, 1e-12, 1 - 1e-12)  # as the seeds clip
    assert_same_bits(ndtri(dyadic), special.ndtri(dyadic))
    for d in range(1, len(sphere._SOBOL_TABLE) + 1):  # quasi_uniform_points' fallback rows
        row = 0.5 + 0.1 * (np.arange(d) + 1.0) / d
        assert_same_bits(ndtri(row), special.ndtri(row))
    random = np.random.default_rng(20).random(50_000)
    assert_same_bits(ndtri(random), special.ndtri(random))
    tails = np.concatenate([TAILS, 1.0 - TAILS[TAILS > 1e-16]])
    assert_same_bits(ndtri(tails), special.ndtri(tails))
    assert np.sqrt(-2.0 * math.log(TAILS.min())) > 8.0 > np.sqrt(-2.0 * math.log(1e-12))


@pytest.mark.parametrize("y", [0.0, 1.0, -0.25, 1.5, math.nan, math.inf])
def test_ndtri_refuses_outside_the_open_unit_interval(y):
    with pytest.raises(ValueError, match=r"open interval \(0, 1\)"):
        ndtri(np.array([0.5, y]))


def test_gammaln_matches_scipy_bit_for_bit():
    # sphere_area takes Gamma at (n + 1) / 2 and sobolev_constant at n / 2 and n: every
    # half-integer k / 2; up to 2000 is past where either constant overflows
    halves = [k / 2 for k in range(1, 4001)]
    assert [gammaln(x) for x in halves] == special.gammaln(halves).tolist()
    rng = np.random.default_rng(21)
    # every branch: x < 2, x in [2, 3), x in [3, 13), Stirling below 1000, from 1000, past 1e8,
    # and past Cephes' overflow threshold
    random = np.concatenate([
        rng.uniform(0.01, 3000.0, 20_000),
        10.0 ** rng.uniform(-300.0, 308.0, 20_000),
        [2.0, 3.0, 13.0, 1000.0, 1e8, 1e8 + 2.0, 2.556348e305, 2.556349e305, 1.7e308, 5e-324],
    ])
    got = np.array([gammaln(x) for x in random])
    assert_same_bits(got, special.gammaln(random))
    assert got[-3:-1].tolist() == [math.inf, math.inf]


@pytest.mark.parametrize("x", [0.0, -0.0, -1.5, math.nan, math.inf, -math.inf])
def test_gammaln_refuses_outside_the_positive_reals(x):
    with pytest.raises(ValueError, match="finite x > 0"):
        gammaln(x)


@pytest.mark.parametrize("n", [-1, -2, 2.5, math.nan, math.inf])
def test_sphere_area_refuses_dimensions_that_are_not_integers_from_zero(n):
    with pytest.raises(ValueError, match="integer >= 0"):
        sphere_area(n)


@pytest.mark.parametrize("f, largest", [(sphere_area, 342), (sobolev_constant, 209), (c0, 257)])
def test_constants_refuse_dimensions_past_float_overflow(f, largest):
    """Each constant is finite up to its largest supported dimension, and past
    it raises a ValueError naming that dimension rather than an
    OverflowError from the arithmetic; inf is a ValueError too."""
    assert math.isfinite(f(largest))
    for n in (largest + 1, 1000):
        with pytest.raises(ValueError, match=f"up to {largest}, got {n}"):
            f(n)
    with pytest.raises(ValueError):
        f(math.inf)


def test_sphere_area_closed_forms():
    assert sphere_area(0) == 2.0  # two points
    assert sphere_area(1) == 2.0 * math.pi
    assert sphere_area(2.0) == sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)


def _fingerprint():
    """sha256 of every seed set and the bits of every Gamma constant."""
    seeds = [
        hashlib.sha256(quasi_uniform_points(n, count).tobytes()).hexdigest()
        for n in range(len(sphere._SOBOL_TABLE))
        for count in (512, 4096)
    ]
    constants = [sphere_area(n).hex() for n in range(0, 25)]
    constants += [sobolev_constant(n).hex() for n in range(3, 25)]
    return seeds + constants


def test_seeds_and_constants_do_not_depend_on_numpy_simd_kernels():
    # numpy ignores a feature the host lacks, so without AVX-512 nothing is disabled
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(Path(sphere.__file__).resolve().parents[1]),
                                    str(Path(__file__).resolve().parent)]),
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
    )
    body = "import json, test_special_functions as t\nprint(json.dumps(t._fingerprint()))"
    proc = subprocess.run([sys.executable, "-c", body], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _fingerprint()
