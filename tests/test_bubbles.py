"""Bubble-calculus tests: closed-form oracles for the Sobolev constant and
functional values, conformal-invariance identities, two-route agreement,
gradient stencil consistency, and qualitative flow behavior."""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from morsecount.bubbles import (
    Bubble,
    BubbleChart,
    BubbleSum,
    I_from_J,
    MorseIndexEstimate,
    QuadratureNoiseWarning,
    c0,
    canonical_bubble,
    constant_one,
    equilibrium_scale,
    flow_to_critical,
    functional_J,
    functional_J_detailed,
    norm_squared,
    reduced_morse_index,
    sobolev_constant,
    weighted_power_integral,
)
from morsecount.bubbles import (
    _ALIGNED,
    _chart_sinc,
    _classify,
    _dilate,
    _invariant_pair_energy,
    _profile,
    _ring_slopes,
    _single_bubble_derivatives,
    _theta_scale,
)
from morsecount.kfunc import BumpTerm, KFunction, find_critical_points, k_infinity_points
from morsecount.presets import load_preset
from morsecount.quadrature import (
    QuadratureConvergenceError,
    QuadratureScheme,
    integrate_radial,
)
from morsecount.sphere import (
    exp_map,
    geodesic_distance,
    sphere_area,
    tangent_basis,
    unit,
)

from oracles import (
    _fd_gradient,
    _fd_hessian,
    aligned_pair_energy,
    cos_scale,
    eval_bubble,
    integrate_two_point_s3,
    mc_pair_energy,
    mc_weighted_integral,
    two_point_pair_energy,
)

E4 = np.array([0.0, 0.0, 0.0, 1.0])
E5 = (0.0, 0.0, 0.0, 0.0, 1.0)
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def single(center, lam, n=3, tau=0.0, alpha=1.0):
    return BubbleSum(
        n=n, bubbles=(Bubble(center=tuple(center), lam=lam),), alphas=(alpha,), tau=tau
    )


def bump_candidate(weights_centers_widths, epsilon=0.1, n=3):
    terms = tuple(
        BumpTerm(center=tuple(c), weight=w, width=s)
        for w, c, s in weights_centers_widths
    )
    return KFunction(n=n, epsilon=epsilon, terms=terms)


# ---------------------------------------------------------------------------
# Sobolev constant and bubble evaluation
# ---------------------------------------------------------------------------


def flat_radial_oracle(n):
    """(n(n-2))^{n/2} |S^{n-1}| int_0^inf r^{n-1}(1+r^2)^{-n} dr, high precision."""
    with mpmath.workdps(40):
        ring = 2 * mpmath.pi ** (n / mpmath.mpf(2)) / mpmath.gamma(n / mpmath.mpf(2))
        integral = mpmath.quad(
            lambda r: r ** (n - 1) * (1 + r * r) ** (-n), [0, 1, mpmath.inf]
        )
        return float((n * (n - 2)) ** (n / mpmath.mpf(2)) * ring * integral)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_sobolev_constant_vs_flat_radial_quadrature(n):
    assert sobolev_constant(n) == pytest.approx(flat_radial_oracle(n), rel=1e-10)


def test_sobolev_constant_closed_forms():
    assert sobolev_constant(3) == pytest.approx(3 ** 1.5 * math.pi**2 / 4, rel=1e-13)
    assert sobolev_constant(3) == pytest.approx(12.8210, abs=5e-5)
    assert sobolev_constant(4) == pytest.approx(64 * math.pi**2 / 6, rel=1e-13)
    with pytest.raises(ValueError):
        sobolev_constant(2)


# Bit patterns of scipy's gammaln route, which sphere.gammaln ports, frozen so a
# swap to math.lgamma (which differs by 1 ulp on most half-integers) cannot pass
# quietly.
SPHERE_AREA_HEX = {
    1: "0x1.921fb54442d18p+2", 2: "0x1.921fb54442d19p+3", 3: "0x1.3bd3cc9be45dep+4",
    4: "0x1.a51a6625307d3p+4", 5: "0x1.f019b59389d7bp+4", 6: "0x1.08963eb51650fp+5",
    7: "0x1.03c1f081b5ac3p+5", 8: "0x1.dafc3b70d72c3p+4", 9: "0x1.9806b81531598p+4",
    10: "0x1.4b9a2f342b5b6p+4", 11: "0x1.005ed5ead8ffcp+4", 12: "0x1.7ad251e2f6067p+3",
}
SOBOLEV_CONSTANT_HEX = {
    3: "0x1.9a459171d3a05p+3", 4: "0x1.a51a6625307d7p+6", 5: "0x1.a62e1d27deee1p+9",
    6: "0x1.be7d89d195a8dp+12", 7: "0x1.f6af840bc2aabp+15", 8: "0x1.2c939d9d682a5p+19",
    9: "0x1.7c1c78f1d6a72p+22", 10: "0x1.f9fc2446faa86p+25", 11: "0x1.61017451c7eb5p+29",
    12: "0x1.0131e4d28a62bp+33",
}


def test_gamma_constants_are_frozen_bit_for_bit():
    assert {n: sphere_area(n).hex() for n in range(1, 13)} == SPHERE_AREA_HEX
    # n = 1, 2 have no Sobolev constant (see above)
    assert {n: sobolev_constant(n).hex() for n in range(3, 13)} == SOBOLEV_CONSTANT_HEX


def test_eval_bubble_special_values():
    b = Bubble(center=tuple(E4), lam=1.0)
    x = unit(np.array([1.0, -2.0, 0.5, 3.0]))
    const = c0(3) / 2 ** 0.5
    assert eval_bubble(b, x, 3) == pytest.approx(const, rel=1e-14)
    b7 = Bubble(center=tuple(E4), lam=7.0)
    assert eval_bubble(b7, E4, 3) == pytest.approx(
        c0(3) * 7.0 ** 0.5 / 2 ** 0.5, rel=1e-14
    )


def test_bubble_mirror_identity():
    """B_{a,lam} and B_{-a,1/lam} are the same function, and canonicalization
    picks the lam >= 1 representative."""
    rng = np.random.default_rng(5)
    b = Bubble(center=tuple(E4), lam=0.25)
    twin = canonical_bubble(b)
    assert twin.lam == pytest.approx(4.0, rel=1e-15)
    assert np.allclose(twin.center, -E4)
    pts = unit(rng.standard_normal((40, 4)))
    assert np.allclose(eval_bubble(b, pts, 3), eval_bubble(twin, pts, 3), rtol=1e-13)
    tall = Bubble(center=tuple(E4), lam=7.0)
    assert canonical_bubble(tall) is tall


def test_functional_invariant_under_mirrored_parameterization():
    """Feeding a scale < 1 bubble through the deterministic routes gives the
    same J as its mirrored twin."""
    pair = BubbleSum(
        n=3,
        bubbles=(Bubble(center=tuple(E4), lam=6.0), Bubble(center=tuple(-E4), lam=0.125)),
        alphas=(1.0, 0.7),
    )
    twin = BubbleSum(
        n=3,
        bubbles=(Bubble(center=tuple(E4), lam=6.0), Bubble(center=tuple(E4), lam=8.0)),
        alphas=(1.0, 0.7),
    )
    j1 = functional_J(pair, constant_one(3))
    j2 = functional_J(twin, constant_one(3))
    assert j1 == pytest.approx(j2, rel=1e-10)


@pytest.mark.parametrize("lam", [1.0, 2.5, 17.0, 200.0])
def test_bubble_power_normalization(lam):
    """The critical power of any single bubble integrates to S_n."""
    rng = np.random.default_rng(int(lam * 10))
    a = unit(rng.standard_normal(4))
    u = single(a, lam)
    val, err = weighted_power_integral(u, constant_one(3))
    assert val == pytest.approx(sobolev_constant(3), rel=1e-9)
    assert err < 1e-8 * val


def test_bubble_power_normalization_random_pairs():
    rng = np.random.default_rng(6)
    s3 = sobolev_constant(3)
    for _ in range(20):
        a = unit(rng.standard_normal(4))
        lam = float(np.exp(rng.uniform(0.0, np.log(300.0))))
        val, _ = weighted_power_integral(single(a, lam), constant_one(3))
        assert val == pytest.approx(s3, rel=1e-6)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_bubble_power_normalization_higher_dimensions(n):
    e = np.zeros(n + 1)
    e[0] = 1.0
    val, _ = weighted_power_integral(
        single(e, 9.0, n=n), constant_one(n), QuadratureScheme(nodes=48)
    )
    assert val == pytest.approx(sobolev_constant(n), rel=1e-8)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


def test_bubble_sum_validation():
    with pytest.raises(ValueError):
        Bubble(center=(0.0, 0.0, 0.0, 2.0), lam=1.0)
    with pytest.raises(ValueError):
        Bubble(center=tuple(E4), lam=0.0)
    with pytest.raises(ValueError):
        BubbleSum(n=3, bubbles=(), alphas=(), tau=0.0)
    b = Bubble(center=tuple(E4), lam=2.0)
    with pytest.raises(ValueError):
        BubbleSum(n=3, bubbles=(b,), alphas=(-1.0,))
    with pytest.raises(ValueError):
        BubbleSum(n=3, bubbles=(b,), alphas=(1.0,), tau=4.0)
    with pytest.raises(ValueError):
        BubbleSum(n=4, bubbles=(b,), alphas=(1.0,))  # center length mismatch


#: field -> (a check that takes one value for it, a finite value it accepts)
NON_FINITE_FIELDS = {
    "Bubble.center": (lambda v: Bubble(center=(v, 0.0, 0.0, 1.0), lam=2.0), 0.0),
    "Bubble.lam": (lambda v: Bubble(center=tuple(E4), lam=v), 2.0),
    "BubbleSum.alphas": (lambda v: single(E4, 2.0, alpha=v), 1.0),
    "BumpTerm.center": (
        lambda v: BumpTerm(center=(v, 0.0, 0.0, 1.0), weight=1.0, width=0.4), 0.0
    ),
    "BumpTerm.weight": (lambda v: BumpTerm(center=tuple(E4), weight=v, width=0.4), -1.0),
    "BumpTerm.width": (lambda v: BumpTerm(center=tuple(E4), weight=1.0, width=v), 0.4),
    "KFunction.epsilon": (lambda v: KFunction(n=3, epsilon=v, terms=()), 0.1),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_non_finite_inputs_are_refused(field, bad):
    """A NaN fails every unit-vector check, and every scale, coefficient,
    weight, width and epsilon must be finite: nothing downstream
    may integrate, search or flow on a NaN or an infinity."""
    check, good = NON_FINITE_FIELDS[field]
    check(good)
    with pytest.raises(ValueError):
        check(bad)


# ---------------------------------------------------------------------------
# norms and pair energies
# ---------------------------------------------------------------------------


def test_single_bubble_norm_is_exact():
    val, err = norm_squared(single(E4, 23.0, alpha=1.5))
    assert val == 1.5**2 * sobolev_constant(3)
    assert err == 0.0


def test_pair_energy_routes_agree():
    """Deterministic norm vs a mixture Monte Carlo pair integral on a generic
    pair."""
    u = BubbleSum(
        n=3,
        bubbles=(
            Bubble(center=tuple(E4), lam=3.0),
            Bubble(center=tuple(unit(np.array([0.6, 0.1, -0.2, 0.5]))), lam=8.0),
        ),
        alphas=(1.0, 1.0),
    )
    det, det_err = norm_squared(u, QuadratureScheme(nodes=96))
    pair, pair_err = mc_pair_energy(*u.bubbles, 3, samples=120_000, seed=3)
    mc = 2.0 * sobolev_constant(3) + 2.0 * pair
    mc_err = 2.0 * pair_err
    assert det_err < 1e-8 * det
    assert abs(mc - det) < max(6 * mc_err, 0.03 * det)


def random_rotation(d, rng):
    """Haar-ish random rotation matrix in O(d) restricted to determinant +1."""
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pairs(n, count, seed, *, log_lam=5.0, aligned=False):
    """Seeded bubble pairs on S^n, scales log-uniform in [e^-log_lam,
    e^log_lam]; ``aligned`` puts the second center at +-the first."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = unit(rng.standard_normal(n + 1))
        b = rng.choice([-1.0, 1.0]) * a if aligned else unit(rng.standard_normal(n + 1))
        li, lj = np.exp(rng.uniform(-log_lam, log_lam, 2))
        yield Bubble(tuple(a), float(li)), Bubble(tuple(b), float(lj))


def test_invariant_matches_the_two_point_route_on_s3():
    worst = 0.0
    for bi, bj in random_pairs(3, 200, seed=31):
        val, err = _invariant_pair_energy(bi, bj, 3, 64)
        ref, _ = two_point_pair_energy(bi, bj)
        worst = max(worst, abs(val - ref) / ref)
        assert err <= 1e-12 * val
    assert worst < 1e-11


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_invariant_matches_the_aligned_route(n):
    worst = 0.0
    for bi, bj in random_pairs(n, 200, seed=40 + n, aligned=True):
        val, _ = _invariant_pair_energy(bi, bj, n, 64)
        ref, _ = aligned_pair_energy(bi, bj, n, 64)
        worst = max(worst, abs(val - ref) / ref)
    assert worst < 1e-11


@pytest.mark.parametrize("n", [4, 5])
def test_invariant_matches_monte_carlo_off_the_axis(n):
    """Off-axis pairs in n = 4, 5 have no other deterministic route.  The
    split-half error of ``mc_integrate`` has one degree of freedom and can
    read 1000x small, so the bound is on the relative deviation instead: at
    20,000 samples and scales in [1, e^3] its spread over these 200 pairs
    measured 0.63% (n = 4) and 0.95% (n = 5), its worst 2.4% and 3.2%.  Each
    pair must lie within 10%, and the mean deviation within 4 standard errors
    of 0 (0.18% and 0.27%), which a 1% error in the invariant breaks."""
    devs = []
    for k, (bi, bj) in enumerate(random_pairs(n, 200, seed=50 + n, log_lam=3.0)):
        val, _ = _invariant_pair_energy(bi, bj, n, 64)
        mc, _ = mc_pair_energy(bi, bj, n, samples=20_000, seed=k)
        devs.append((mc - val) / val)
    devs = np.asarray(devs)
    assert np.max(np.abs(devs)) < 0.1
    assert abs(devs.mean()) < 4.0 * devs.std() / math.sqrt(devs.size)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_invariant_at_rho_one_is_the_sobolev_constant(n):
    """Coincident bubbles (rho = 1, lam' = 1) give S_n, and the energy
    leaves S_n continuously, by O(rho - 1)."""
    s_n = sobolev_constant(n)
    for bi, _ in random_pairs(n, 20, seed=60 + n):
        assert _invariant_pair_energy(bi, bi, n, 64)[0] == pytest.approx(s_n, rel=1e-14)
    b = Bubble(tuple(unit(np.arange(1.0, n + 2.0))), 3.0)
    slopes = []
    for gap in (1e-2, 1e-3, 1e-4):  # rho - 1 = gap^2/2 to first order
        twin = Bubble(b.center, b.lam * (1.0 + gap))
        deficit = s_n - _invariant_pair_energy(b, twin, n, 64)[0]
        assert 0.0 < deficit < gap * gap * s_n
        slopes.append(deficit / gap**2)
    assert slopes[2] == pytest.approx(slopes[1], rel=1e-2)


@pytest.mark.parametrize("n", [3, 5])
def test_invariant_mirror_and_rotation_invariance(n):
    """(a, lam) and (-a, 1/lam) are one bubble, and rotating both centers
    together leaves the pair energy unchanged."""
    rng = np.random.default_rng(70 + n)
    for bi, bj in random_pairs(n, 200, seed=80 + n):
        val, _ = _invariant_pair_energy(bi, bj, n, 64)
        mirror = Bubble(tuple(-c for c in bi.center), 1.0 / bi.lam)
        assert _invariant_pair_energy(mirror, bj, n, 64)[0] == pytest.approx(val, rel=1e-13)
        R = random_rotation(n + 1, rng)
        turned = [Bubble(tuple(unit(R @ np.asarray(b.center))), b.lam) for b in (bi, bj)]
        assert _invariant_pair_energy(*turned, n, 64)[0] == pytest.approx(val, rel=1e-12)


def mpmath_pair_energy(bi, bj, n):
    """<B_i, B_j> at 30 digits from rho = A_i A_j - <V_i, V_j> itself, with
    each center first normalized exactly, and the radial integral of B_lam'."""
    with mpmath.workdps(30):
        def lorentz(b):
            lam = mpmath.mpf(b.lam)
            a = [mpmath.mpf(x) for x in b.center]
            norm = mpmath.sqrt(mpmath.fsum(x * x for x in a))
            return (lam * lam + 1) / (2 * lam), [(lam * lam - 1) / (2 * lam) * x / norm for x in a]

        (Ai, Vi), (Aj, Vj) = lorentz(bi), lorentz(bj)
        rho = Ai * Aj - mpmath.fsum(x * y for x, y in zip(Vi, Vj))
        lam = rho + mpmath.sqrt(rho * rho - 1)
        h = mpmath.mpf(n - 2) / 2
        amp = mpmath.mpf(n * (n - 2)) ** (h / 2)
        ring = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        radial = mpmath.quad(
            lambda t: amp * lam**h * (2 + (lam * lam - 1) * (1 - mpmath.cos(t))) ** (-h)
            * mpmath.sin(t) ** (n - 1),
            [0, mpmath.pi],
            method="gauss-legendre",
        )
        k = (amp / 2**h) ** ((h + 2) / h)
        s_n = amp ** (2 * n / (n - 2.0)) * mpmath.pi ** (mpmath.mpf(n) / 2) * (
            mpmath.gamma(mpmath.mpf(n) / 2) / mpmath.gamma(n)
        )
        return k * ring * radial, s_n


@pytest.mark.parametrize("n", [3, 4, 5])
def test_invariant_keeps_the_interaction_of_near_coincident_pairs(n):
    """At lam ~ e^5 and |a_i - a_j| ~ 1e-6, rho - 1 ~ 3e-9 while A_i A_j ~ 5e3,
    so rho - 1 formed as A_i A_j - <V_i, V_j> - 1 in doubles keeps only 2-3
    digits (measured off by up to 0.4%).  The interaction S_n - <B_i, B_j>
    (about 1e-9 S_n) must match mpmath to 3e-5 of itself; rounding in the
    quadrature of a near-constant profile measured at most 3.4e-6 of it."""
    rng = np.random.default_rng(90 + n)
    worst = 0.0
    for _ in range(200):
        a = unit(rng.standard_normal(n + 1))
        step = tangent_basis(a) @ unit(rng.standard_normal(n)) * 1e-6 * rng.uniform(0.5, 1.5)
        lam = math.exp(5.0 + rng.uniform(-0.1, 0.1))
        bi = Bubble(tuple(a), lam)
        bj = Bubble(tuple(exp_map(a, step)), lam * (1.0 + rng.uniform(-1e-6, 1e-6)))
        val, _ = _invariant_pair_energy(bi, bj, n, 64)
        ref, s_n = mpmath_pair_energy(bi, bj, n)
        worst = max(worst, float(abs(val - ref) / (s_n - ref)))
    assert worst < 3e-5


def mpmath_aligned_pair_energy(bi, bj, n):
    """<B_i, B_j> at 30 digits for centers on one axis: the colatitude
    integral of B_i B_j^{(n+2)/(n-2)} from bi's center, with 1 -+ cos t
    formed as 2 sin^2(t/2) or 2 cos^2(t/2) and panels at both poles shrinking
    to 1/lam geometrically.  A scale below 1 is taken as its mirror."""
    with mpmath.workdps(30):
        def pole(b):
            s = 1 if float(np.dot(b.center, bi.center)) > 0 else -1
            lam = mpmath.mpf(b.lam)
            return (s, lam) if lam >= 1 else (-s, 1 / lam)

        h = mpmath.mpf(n - 2) / 2
        amp = mpmath.mpf(n * (n - 2)) ** (h / 2)

        def profile(s, lam, t):
            half = mpmath.sin(t / 2) if s > 0 else mpmath.cos(t / 2)
            return amp * lam**h / (2 + (lam * lam - 1) * 2 * half * half) ** h

        (si, li), (sj, lj) = pole(bi), pole(bj)
        breaks = {mpmath.mpf(0), mpmath.pi}
        for s, lam in ((si, li), (sj, lj)):
            w = 1 / lam
            while w < 1.5:
                breaks.add(w if s > 0 else mpmath.pi - w)
                w *= 4
        radial = mpmath.quad(
            lambda t: profile(si, li, t) * profile(sj, lj, t) ** ((h + 2) / h)
            * mpmath.sin(t) ** (n - 1),
            sorted(breaks),
            method="gauss-legendre",
        )
        ring = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        return ring * radial


def test_norm_squared_matches_mpmath_on_aligned_pairs(monkeypatch):
    """Random (anti)parallel pairs in n = 3..7 and antipodal towers at lam =
    400 and 2000: the pair energy that ``norm_squared`` adds is within 1e-14
    of the two-profile integral at 30 digits (measured at most 1.1e-15);
    ``aligned_pair_energy`` is off by up to 1.0e-12 on the towers.  S_n is
    zeroed so the norm is exactly twice the pair energy: a tower's energy is
    down to 6e-16 S_n, below the rounding of the sum."""
    monkeypatch.setattr("morsecount.bubbles.sobolev_constant", lambda n: 0.0)
    cases = []
    for n in range(3, 8):
        cases += [(n, pair) for pair in random_pairs(n, 3, seed=100 + n, aligned=True)]
        north = (0.0,) * n + (1.0,)
        south = (0.0,) * n + (-1.0,)
        cases += [(n, (Bubble(north, lam), Bubble(south, lam))) for lam in (400.0, 2000.0)]
    worst = 0.0
    for n, (bi, bj) in cases:
        val = norm_squared(BubbleSum(n=n, bubbles=(bi, bj), alphas=(1.0, 1.0)))[0] / 2.0
        ref = mpmath_aligned_pair_energy(bi, bj, n)
        worst = max(worst, float(abs(val - ref) / ref))
    assert worst < 1e-14


def test_bubble_component_density_matches_sampler():
    """The bubble proposal's density B^{2n/(n-2)}/S_n is exactly the law of
    dilated uniform points.  The dilation is conformal and maps the ring at
    colatitude t onto the ring at t', so it stretches volume by
    (sin t'/sin t)^n at every point: the importance weight
    1/(|S^n| * density) of each dilated point equals that stretch to
    roundoff, a zero-variance identity."""
    rng = np.random.default_rng(5)
    for n in range(3, 8):
        a = unit(rng.standard_normal(n + 1))
        for lam in (1.0, 1.3, 12.0, 400.0):
            x = unit(rng.standard_normal((4000, n + 1)))
            y = _dilate(x.T.copy(), a, lam).T
            sin_t = np.linalg.norm(x - np.outer(x @ a, a), axis=1)
            sin_t2 = np.linalg.norm(y - np.outer(y @ a, a), axis=1)
            density = _profile(lam, y @ a, n) ** (2.0 * n / (n - 2.0)) / sobolev_constant(n)
            weight = 1.0 / (sphere_area(n) * density)
            assert np.max(np.abs(weight / (sin_t2 / sin_t) ** n - 1.0)) < 1e-9


def _assert_pass_matches_oracle(u, K, samples, seed):
    got = weighted_power_integral(
        u, K, QuadratureScheme(kind="monte-carlo", samples=samples, seed=seed)
    )
    want = mc_weighted_integral(u, K, samples=samples, seed=seed)
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
    assert got[1] == pytest.approx(want[1], rel=1e-9, abs=0.0)


def test_monte_carlo_pass_matches_the_oracle_route_on_the_bench_pool():
    """Every Monte Carlo sum of energy-scan's pool, at its seed and sample
    count: the one-pass kernel draws the same points and weights them alike,
    so only roundoff separates it from the generic mixture route."""
    pool = json.loads(BENCH_REFERENCE.read_text())["energy-scan"]["mc"]
    K = load_preset("three-bump-s3")
    assert len(pool) == 48
    for entry in pool:
        u = BubbleSum(
            n=3,
            bubbles=tuple(Bubble(tuple(c), lam) for c, lam in zip(entry["centers"], entry["lams"])),
            alphas=(1.0, 1.0),
            tau=entry["tau"],
        )
        _assert_pass_matches_oracle(u, K, 50_000, entry["seed"])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_monte_carlo_pass_matches_the_oracle_route_on_a_grid(n, p):
    """Seeded sums in n = 3..6 with p = 1..3 bubbles (some below scale 1,
    which the pass mirrors), tau = 0 and 0.1, under K = 1 (no bump rows)
    and under a two-bump candidate."""
    rng = np.random.default_rng(100 * n + p)
    bumps = KFunction(
        n=n,
        epsilon=0.3,
        terms=tuple(
            BumpTerm(center=tuple(unit(rng.standard_normal(n + 1))), weight=w, width=s)
            for w, s in ((1.0, 0.4), (-0.5, 0.25))
        ),
    )
    for tau in (0.0, 0.1):
        u = BubbleSum(
            n=n,
            bubbles=tuple(
                Bubble(tuple(unit(rng.standard_normal(n + 1))), math.exp(rng.uniform(-1.0, 4.0)))
                for _ in range(p)
            ),
            alphas=tuple(rng.uniform(0.5, 2.0, p)),
            tau=tau,
        )
        for K in (constant_one(n), bumps):
            _assert_pass_matches_oracle(u, K, 6000, int(rng.integers(1 << 31)))


def trig_sampler_oracle(a, lam, n, rng, m):
    """The colatitude form of the bubble sampler: t' = 2*atan2(sin(t/2),
    lam*cos(t/2)) along the great circle from the center through x, with a
    fixed tangent direction where x = +-a leaves that circle undefined."""
    x = unit(rng.standard_normal((m, n + 1)))
    cos_t = np.clip(x @ a, -1.0, 1.0)
    theta = np.arccos(cos_t)
    tangential = x - cos_t[:, None] * a[None, :]
    norms = np.linalg.norm(tangential, axis=1)
    fallback = tangent_basis(a)[:, 0]
    w = np.where(
        norms[:, None] > 1e-12, tangential / np.maximum(norms, 1e-300)[:, None],
        fallback[None, :],
    )
    theta2 = 2.0 * np.arctan2(np.sin(theta / 2.0), lam * np.cos(theta / 2.0))
    return np.cos(theta2)[:, None] * a[None, :] + np.sin(theta2)[:, None] * w


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("lam", [1.0, 1.3, 40.0, 1e4])
def test_bubble_sampler_matches_the_trigonometric_oracle(n, lam):
    a = unit(np.random.default_rng(n).standard_normal(n + 1))
    x = unit(np.random.default_rng(99).standard_normal((20_000, n + 1)))
    got = _dilate(x.T.copy(), a, lam).T
    want = trig_sampler_oracle(a, lam, n, np.random.default_rng(99), 20_000)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(got, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("lam", [1.0, 1.3, 40.0, 1e4])
def test_bubble_sampler_fixes_both_poles_and_dilates_the_equator(lam):
    """x = +-a, where the colatitude form needs a fallback frame, and a point
    at colatitude pi/2, which lands where tan(t'/2) = 1/lam."""
    a = np.array([0.5, 0.5, 0.5, 0.5])
    w = np.array([0.5, -0.5, 0.5, -0.5])
    got = _dilate(np.array([a, -a, w]).T.copy(), a, lam).T
    dilated = ((lam * lam - 1.0) * a + 2.0 * lam * w) / (lam * lam + 1.0)
    assert np.max(np.abs(got - np.array([a, -a, dilated]))) < 1e-12


# ---------------------------------------------------------------------------
# the functional J and the energy conversion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [1.0, 4.0, 50.0, 200.0])
def test_functional_single_bubble_constant_candidate(lam):
    j = functional_J(single(E4, lam), constant_one(3))
    assert j == pytest.approx(sobolev_constant(3) ** (2.0 / 3.0), rel=1e-9)


def test_functional_value_matches_spelled_out_constant():
    assert functional_J(single(E4, 10.0), constant_one(3)) == pytest.approx(
        5.478, abs=2e-3
    )


def test_functional_is_scale_invariant():
    a = functional_J(single(E4, 7.0, alpha=1.0, tau=0.3), constant_one(3))
    b = functional_J(single(E4, 7.0, alpha=9.0, tau=0.3), constant_one(3))
    assert a == pytest.approx(b, rel=1e-12)


def test_functional_flat_bubble_closed_form():
    # lam = 1 with tau > 0: the bubble is a constant, everything is explicit
    tau = 0.7
    n, q = 3, 6.0 - 0.7
    e = 2.0 * (n - 2) / (2 * n - tau * (n - 2))
    s3 = sobolev_constant(3)
    const = c0(3) / math.sqrt(2.0)
    vol = 2 * math.pi**2
    expected = s3 ** (0.5 * q * e) * (const**q * vol) ** (-e)
    got = functional_J(single(E4, 1.0, tau=tau), constant_one(3))
    assert got == pytest.approx(expected, rel=1e-10)


def antipodal_pair(lam):
    return BubbleSum(
        n=3,
        bubbles=(
            Bubble(center=tuple(E4), lam=lam),
            Bubble(center=tuple(-E4), lam=lam),
        ),
        alphas=(1.0, 1.0),
    )


def test_functional_antipodal_pair_quantization():
    """Two antipodal bubbles approach the two-bubble energy level from below
    at the fat-tail rate 16/(3 pi)/lam ~ 1.698/lam of the three-dimensional
    interaction, plus a positive second-order correction
    (20 - 6 (16/(3 pi))^2)/lam^2 ~ 2.71/lam^2 (derived in acceptance C07).

    The value at lam = 50 is frozen against a 30-digit independent radial
    computation of ||u||^2 = 2 S_3 + 2 int B1 B2^5 and int (B1+B2)^6.
    """
    s3 = sobolev_constant(3)
    target = (2 * s3) ** (2.0 / 3.0)
    j50 = functional_J(antipodal_pair(50.0), constant_one(3))
    assert j50 == pytest.approx(8.3899353627, rel=1e-9)
    assert abs(j50 - target) / target == pytest.approx(0.03516, abs=2e-4)
    deviations = {
        lam: abs(functional_J(antipodal_pair(lam), constant_one(3)) - target)
        / target
        for lam in (10.0, 30.0, 100.0, 400.0)
    }
    assert deviations[10.0] > deviations[30.0] > deviations[100.0]
    # decay rate consistent with a first-order interaction ~ c/lam:
    # lam * deviation should be roughly constant between lam = 30 and 100
    ratio = (100.0 * deviations[100.0]) / (30.0 * deviations[30.0])
    assert 0.8 < ratio < 1.25
    # the 1% window is reached, just deeper into the concentration regime
    assert deviations[400.0] < 0.01


def test_functional_perturbation_bound():
    # |J_K - J_1| <= C * eps * J_1 with C observed near (n-2)/n
    eps = 0.08
    K = bump_candidate([(1.0, E4, 0.5)], epsilon=eps)
    u = single(E4, 40.0)
    j1 = functional_J(u, constant_one(3))
    jk = functional_J(u, K)
    c_obs = abs(jk - j1) / (eps * j1)
    assert 0.05 < c_obs <= (3 - 2) / 3 + 0.05
    print(f"perturbation constant observed: {c_obs:.4f} (reference {1/3:.4f})")


def test_functional_rotational_equivariance():
    rng = np.random.default_rng(17)
    R = random_rotation(4, rng)
    center = unit(np.array([0.2, 0.5, -0.3, 0.8]))
    K = bump_candidate(
        [(0.7, unit(np.array([1.0, 0.2, 0.0, 0.4])), 0.45), (-0.3, E4, 0.6)]
    )
    K_rot = KFunction(
        n=3,
        epsilon=K.epsilon,
        terms=tuple(
            BumpTerm(center=tuple(R @ np.asarray(t.center)), weight=t.weight, width=t.width)
            for t in K.terms
        ),
    )
    u = single(center, 9.0, tau=0.2)
    u_rot = single(R @ center, 9.0, tau=0.2)
    assert functional_J(u, K) == pytest.approx(functional_J(u_rot, K_rot), rel=1e-11)


def test_functional_nonconvergence_raises():
    # the stochastic route cannot hit a 1e-6 relative tolerance at this budget
    scheme = QuadratureScheme(kind="monte-carlo", samples=2000, seed=1, tol=1e-6)
    with pytest.raises(QuadratureConvergenceError):
        functional_J(single(E4, 5.0), constant_one(3), scheme)


def test_radial_scheme_rejects_irreducible_configuration():
    u = BubbleSum(
        n=3,
        bubbles=(
            Bubble(center=tuple(E4), lam=5.0),
            Bubble(center=(1.0, 0.0, 0.0, 0.0), lam=5.0),
        ),
        alphas=(1.0, 1.0),
    )
    with pytest.raises(ValueError):
        weighted_power_integral(u, constant_one(3), QuadratureScheme())
    # the same configuration goes through with a stochastic scheme
    val, err = weighted_power_integral(
        u, constant_one(3), QuadratureScheme(kind="monte-carlo", samples=50_000, seed=2)
    )
    assert val > 0 and err < 0.05 * val


def two_point_oracle(u, K, nodes=64):
    """The single-bubble route the ring average replaced: the constant part of
    K radially, each bump off the axis by the two-direction reduction
    (integrate_two_point_s3), each bump on it radially."""
    n = u.n
    q = 2.0 * n / (n - 2.0) - u.tau
    (b,), (alpha,) = u.bubbles, u.alphas
    bubble_pow = lambda t: _profile(b.lam, t, n) ** q
    val, err = integrate_radial(
        bubble_pow, n, nodes=nodes, features=[(0.0, _theta_scale(b.lam))]
    )
    for term in K.terms:
        gamma = float(np.dot(term.center, b.center))
        s2 = term.width * term.width
        if abs(gamma) >= _ALIGNED:
            sgn = math.copysign(1.0, gamma)
            tval, terr = integrate_radial(
                lambda t: np.exp(-(1.0 - sgn * t) / s2) * bubble_pow(t),
                n,
                nodes=nodes,
                features=[(0.0, _theta_scale(b.lam)), (math.acos(sgn), term.width)],
            )
        else:
            features = [
                (1.0, cos_scale(b.lam)),
                (gamma, term.width * math.sqrt(1.0 - gamma * gamma)),
            ]
            tval, terr = integrate_two_point_s3(
                lambda v: s2 * np.exp(-(1.0 - v) / s2),
                bubble_pow,
                gamma,
                nodes=nodes,
                features=features,
            )
        val += K.epsilon * term.weight * tval
        err += K.epsilon * abs(term.weight) * terr
    return alpha**q * val, alpha**q * err


def preset_on_s3(name):
    """A curvature preset on the 3-sphere; 2-sphere bumps gain a zero coordinate."""
    K = load_preset(name)
    if K.n == 3:
        return K
    terms = tuple(replace(t, center=(*t.center, 0.0)) for t in K.terms)
    return KFunction(n=3, epsilon=K.epsilon, terms=terms)


@pytest.mark.parametrize(
    "name", ["three-bump-s3", "three-max-one-saddle", "two-bump-antipodal"]
)
def test_ring_route_matches_the_two_point_oracle(name):
    K = preset_on_s3(name)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(40):
        lam = float(np.exp(rng.uniform(0.0, math.log(200.0))))
        u = single(unit(rng.standard_normal(4)), lam, tau=0.05)
        val, err = weighted_power_integral(u, K)
        ref, _ = two_point_oracle(u, K)
        worst = max(worst, abs(val - ref) / ref)
        assert err <= 1e-12 * val
    assert worst < 1e-13


@pytest.mark.parametrize("width", [0.02, 0.33, 0.8])
def test_ring_average_matches_the_vmf_normaliser(width):
    """A lam = 1 bubble is constant, so int K B^q is (B^q times) the integral
    of K: |S^3| + eps*w*4 pi^2 e^{-kappa} I_1(kappa)/kappa per bump,
    kappa = 1/s^2.  At s = 0.02, sinh(kappa) would overflow."""
    from scipy.special import ive

    c = unit(np.array([0.3, -0.5, 0.2, 0.4]))
    K = bump_candidate([(0.7, c, width)], epsilon=0.2)
    u = single(E4, 1.0)
    q = 6.0
    kappa = 1.0 / width**2
    exact = (c0(3) / math.sqrt(2.0)) ** q * (
        2.0 * math.pi**2 + 0.2 * 0.7 * 4.0 * math.pi**2 * ive(1, kappa) / kappa
    )
    val, err = weighted_power_integral(u, K)
    assert abs(val - exact) <= 1e-13 * exact
    assert err <= 1e-12 * exact


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ring_route_is_continuous_at_the_aligned_threshold(sign):
    """On S^3 the ring average takes every gamma as it is, so the value must
    leave the axial one at gamma = +-1 along its slope in gamma, also inside
    1 - gamma < 1e-9, where bumps on other spheres are snapped onto the
    axis."""
    u = single(E4, 12.0, tau=0.05)

    def at(gamma):
        c = (math.sqrt((1.0 - gamma) * (1.0 + gamma)), 0.0, 0.0, sign * gamma)
        return weighted_power_integral(u, bump_candidate([(0.45, c, 0.33)], 0.3))[0]

    axial = at(1.0)
    slope = (at(1.0 - 1e-4) - axial) / 1e-4
    for gap in (1e-12, 1e-10, 2e-9, 1e-8, 1e-6):
        jump = at(1.0 - gap) - axial - slope * gap
        assert abs(jump) <= 1e-3 * abs(slope) * gap + 1e-14 * axial


def test_ring_route_takes_gamma_past_one_by_rounding():
    """A bump on the bubble's center has gamma = 1 only up to rounding: in a
    generic direction c = unit(v) has c.c = 1 + 2^-52 about as often as not,
    and centers are accepted 1e-9 off unit norm.  Both must give the axial
    J and derivatives (finite, within rounding), not NaN."""
    rng = np.random.default_rng(3)
    past_one = lambda c: float(c @ c) > 1.0 and np.einsum("ti,i->t", c[None], c)[0] > 1.0
    generic = next(c for c in (unit(rng.normal(size=4)) for _ in range(100)) if past_one(c))
    long_e4 = (0.0, 0.0, 0.0, 1.0 + 5e-10)
    axial_u = single(E4, 12.0, tau=0.05)
    axial_K = bump_candidate([(0.45, E4, 0.33)], 0.3)
    axial = functional_J_detailed(axial_u, axial_K)
    _, (_, g0, H0, _) = exact_at(axial_u, axial_K)
    for center, bump in ((generic, generic), (E4, long_e4)):
        u = single(center, 12.0, tau=0.05)
        K = bump_candidate([(0.45, bump, 0.33)], 0.3)
        jev = functional_J_detailed(u, K)
        assert math.isfinite(jev.value) and math.isfinite(jev.error)
        assert abs(jev.value - axial.value) <= 1e-14 * axial.value
        _, (j_exact, g, H, noise) = exact_at(u, K)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(H)) and math.isfinite(noise)
        assert abs(j_exact.value - axial.value) <= 1e-14 * axial.value
        # the bubble sits on the bump's center, so only the log-lam slope is
        # nonzero and the Hessian's spectrum does not depend on the frame; the
        # long center scales gamma's chart derivatives by its norm, 1 + 5e-10
        stretch = float(np.linalg.norm(bump)) - 1.0
        assert np.max(np.abs(g[:3])) <= 1e-12 * abs(g0[3])
        assert g[3] == pytest.approx(g0[3], rel=1e-12)
        assert np.linalg.eigvalsh(H) == pytest.approx(
            np.linalg.eigvalsh(H0), rel=1e-10 + 2.0 * stretch
        )


def test_ring_profile_squares_a_width_as_eval_k_does():
    """Along the bubble axis the ring average of a bump on the axis is K
    itself, so it equals eval_K bit for bit: both square a width as the
    correctly rounded width * width.  At this width libm's pow(width, 2) is
    one ulp above that square, and an eval_K that took it differed at 43 of
    these points."""
    from morsecount.bubbles import _ring_K_profile
    from morsecount.kfunc import eval_K

    K = bump_candidate([(1.0, E4, 0.7011994105297183)], epsilon=0.2)
    t = np.linspace(-1.0, 1.0, 2001)
    x = np.zeros((len(t), 4))
    x[:, 0], x[:, 3] = np.sqrt((1.0 - t) * (1.0 + t)), t
    profile = _ring_K_profile(K, E4, 3)[0]
    assert np.array_equal(profile(t)[0], eval_K(K, x))


def test_off_axis_bumps_need_the_3_sphere():
    """Off S^3 the radial route takes only bumps on the axis; its refusal of
    one off the axis names the monte-carlo scheme, which integrates it."""
    u = single(E5, 6.0, n=4)
    on_axis = bump_candidate([(0.5, (0.0, 0.0, 0.0, 0.0, -1.0), 0.5)], n=4)
    assert weighted_power_integral(u, on_axis)[0] > 0.0
    off_axis = bump_candidate([(0.5, unit(np.array([1.0, 0.0, 0.0, 0.0, 1.0])), 0.5)], n=4)
    with pytest.raises(ValueError, match="n = 3.*monte-carlo"):
        weighted_power_integral(u, off_axis)
    mc = QuadratureScheme(kind="monte-carlo", samples=20_000, seed=3)
    val, err = weighted_power_integral(u, off_axis, mc)
    assert val > 0.0 and err < 0.05 * val


# (value, error, weighted integral, weighted error) as float.hex at nodes =
# 128.  The weighted pair is frozen from the route before the ring average,
# which took its value from 128 Gauss points per panel and its error from 64.
# The towers' value and error were re-taken once when their pair energy moved
# from the colatitude integral of both profiles to the Lorentz invariant
# (J 0x1.d93a7fd911ef0p+2 -> ...ef2p+2 and 0x1.c769e19b015fcp+2 -> ...fdp+2).
ALIGNED_J_HEX = {
    "tower": ["0x1.d93a7fd911ef2p+2", "0x1.988337a75b55ep-50",
              "0x1.5692ee3de3da1p+4", "0x1.921fb54442d19p-47"],
    "bumps-north": ["0x1.4f4f66a20a252p+2", "0x1.ee2fdd4dc1891p-49",
                    "0x1.ca8fef86e56d2p+3", "0x1.f6a7a2955385fp-46"],
    "bumps-south": ["0x1.68994e14d4eddp+2", "0x1.8be14948ea9cep-49",
                    "0x1.715d404ad3886p+3", "0x1.2d97c7f3321d3p-46"],
    "bumps-tower": ["0x1.c769e19b015fdp+2", "0x1.c79f84dec573fp-52",
                    "0x1.8000465b0dc6dp+4", "0x1.921fb54442d19p-49"],
}


def test_aligned_configurations_are_frozen_bit_for_bit():
    south = -E4
    tower = BubbleSum(
        n=3,
        bubbles=(Bubble(tuple(E4), 12.0), Bubble(tuple(south), 30.0)),
        alphas=(1.0, 0.7),
        tau=0.05,
    )
    K = bump_candidate([(0.45, E4, 0.33), (-0.3, south, 0.5), (0.2, E4, 0.8)], 0.3)
    cases = {
        "tower": (tower, constant_one(3)),
        "bumps-north": (single(E4, 9.0, tau=0.05), K),
        "bumps-south": (single(south, 9.0, tau=0.05), K),
        "bumps-tower": (tower, K),
    }
    got = {}
    for name, (u, KK) in cases.items():
        j = functional_J_detailed(u, KK, QuadratureScheme(nodes=128))
        got[name] = [
            v.hex() for v in (j.value, j.error, j.weighted_integral, j.weighted_error)
        ]
    assert got == ALIGNED_J_HEX


def test_functional_deterministic_reruns():
    scheme = QuadratureScheme(kind="monte-carlo", samples=5000, seed=9, tol=0.5)
    u = single(E4, 6.0, tau=0.1)
    K = bump_candidate([(0.5, unit(np.array([0.1, 1.0, 0.0, 0.3])), 0.5)])
    assert functional_J(u, K, scheme) == functional_J(u, K, scheme)


def test_energy_conversion():
    s3 = sobolev_constant(3)
    assert I_from_J(s3 ** (2.0 / 3.0), 3) == pytest.approx(s3 / 3.0, rel=1e-12)
    assert I_from_J((2 * s3) ** (2.0 / 3.0), 3) == pytest.approx(2 * s3 / 3.0, rel=1e-12)
    s7 = sobolev_constant(7)
    assert I_from_J(s7 ** (2.0 / 7.0), 7) == pytest.approx(s7 / 7.0, rel=1e-12)
    assert I_from_J(0.0, 3) == 0.0
    with pytest.raises(ValueError):
        I_from_J(-1.0, 3)


# ---------------------------------------------------------------------------
# chart and derivatives
# ---------------------------------------------------------------------------


def test_chart_roundtrip_and_layout():
    """One bubble on S^3 in [tangential offset (3) | log lam]: the zero vector
    is the base sum, an offset moves the center by its length, the last
    coordinate scales lam, and a vector of any other length is refused."""
    u = single(E4, 3.0, tau=0.1, alpha=0.5)
    chart = BubbleChart(u)
    assert chart.dim == 4
    assert chart.unpack(np.zeros(4)) == u
    vec = np.zeros(4)
    vec[0] = 0.2  # move the center
    vec[-1] = math.log(3.0)  # triple the scale
    moved = chart.unpack(vec)
    assert moved.alphas == u.alphas and moved.tau == u.tau
    assert geodesic_distance(
        np.asarray(moved.bubbles[0].center), E4
    ) == pytest.approx(0.2, rel=1e-9)
    assert moved.bubbles[0].lam == pytest.approx(9.0)
    assert chart.lam(vec) == pytest.approx(9.0)
    for wrong in (np.zeros(3), np.zeros(5), np.zeros((1, 4))):
        with pytest.raises(ValueError, match="parameter vector must have length 4"):
            chart.unpack(wrong)


def fd_gradient(u, K, scheme=None, step=1e-4):
    """``_fd_gradient`` at the origin of u's own chart."""
    chart = BubbleChart(u)
    return _fd_gradient(chart, K, scheme or QuadratureScheme(), np.zeros(chart.dim), step)


def fd_hessian(u, K, scheme=None):
    """``_fd_hessian`` at the origin of u's own chart, around J there."""
    scheme, chart = scheme or QuadratureScheme(), BubbleChart(u)
    x = np.zeros(chart.dim)
    return _fd_hessian(chart, K, scheme, x, functional_J_detailed(chart.unpack(x), K, scheme))


def test_gradient_vanishes_by_symmetry():
    g = fd_gradient(single(E4, 5.0), constant_one(3))
    assert np.max(np.abs(g)) < 1e-7


def test_gradient_two_stencil_consistency():
    K = bump_candidate([(1.0, E4, 0.4)])
    u = single(unit(np.array([0.3, 0.0, 0.0, 1.0])), 6.0, tau=0.1)
    g_fine = fd_gradient(u, K, step=1e-4)
    g_coarse = fd_gradient(u, K, step=2e-3)
    assert np.max(np.abs(g_fine - g_coarse)) < 1e-4 * max(
        1.0, float(np.max(np.abs(g_fine)))
    )


def test_scale_gradient_has_zero_crossing_at_a_max():
    """At a candidate maximum the scale component of the gradient changes
    sign: an interior equilibrium scale exists."""
    K = bump_candidate([(1.0, E4, 0.4)])

    def g_log_lam(lam):
        return fd_gradient(single(E4, lam, tau=0.05), K)[-1]

    lo, hi = 2.0, 200.0
    g_lo, g_hi = g_log_lam(lo), g_log_lam(hi)
    assert g_lo < 0 < g_hi
    for _ in range(25):
        mid = math.sqrt(lo * hi)
        if g_log_lam(mid) < 0:
            lo = mid
        else:
            hi = mid
    lam_star = math.sqrt(lo * hi)
    assert 2.0 < lam_star < 200.0
    assert abs(g_log_lam(lam_star)) < 1e-3


def test_gradient_noise_warning_on_coarse_stochastic_scheme():
    scheme = QuadratureScheme(kind="monte-carlo", samples=512, seed=4, tol=1.0)
    with pytest.warns(QuadratureNoiseWarning):
        fd_gradient(single(E4, 5.0, tau=0.1), constant_one(3), scheme, step=1e-8)


# ---------------------------------------------------------------------------
# exact chart derivatives for one bubble on S^3
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def preset_targets():
    """(K, target, equilibrium scale) for every admissible critical point of
    the two S^3 flow presets: 4 on three-bump-s3, 3 on three-max-one-saddle."""
    out = []
    for name in ("three-bump-s3", "three-max-one-saddle"):
        K = load_preset(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a degenerate circle
            points = k_infinity_points(find_critical_points(K))
        for pt in points:
            y = np.asarray(pt.location)
            out.append((K, y, equilibrium_scale(K, y, 0.05)))
    return out


def exact_at(u, K, at=None, scheme=None):
    chart = BubbleChart(u)
    at = np.zeros(chart.dim) if at is None else at
    return chart, _single_bubble_derivatives(chart, K, scheme or QuadratureScheme(), at)


def fd_misfit(u, K, g, H, chart, at):
    """Largest |exact - FD| over its bound, for the FD gradient at step 1e-4
    and the FD Hessian at step 1e-3.  Both truncate at order h^2, so the
    doubled step estimates the truncation as |FD(2h) - FD(h)|/3 (Richardson);
    the bound takes 1.5x that, plus the FD rounding: 64 eps |J|/h for the
    gradient and twice _fd_hessian's propagated noise for the Hessian."""
    scheme = QuadratureScheme()
    jev = functional_J_detailed(chart.unpack(at), K, scheme)
    g_fd = _fd_gradient(chart, K, scheme, at, step=1e-4)
    g_2h = _fd_gradient(chart, K, scheme, at, step=2e-4)
    H_fd, noise = _fd_hessian(chart, K, scheme, at, jev, step=1e-3)
    H_2h, _ = _fd_hessian(chart, K, scheme, at, jev, step=2e-3)
    j = jev.value
    g_tol = 0.5 * np.abs(g_2h - g_fd) + 64 * np.finfo(float).eps * j / 1e-4
    H_tol = 0.5 * np.abs(H_2h - H_fd) + 2.0 * noise
    return max(np.max(np.abs(g - g_fd) / g_tol), np.max(np.abs(H - H_fd) / H_tol))


def test_exact_derivatives_match_finite_differences_at_every_target(preset_targets):
    """At every target and the same centre moved 0.05 rad, for lam in
    {3, lam-bar, 40}: J is bit-identical to functional_J_detailed, and the
    gradient and Hessian sit inside the FD bound of fd_misfit (worst measured
    misfit 0.66 of the bound; worst differences 8.7e-9 for the gradient and
    5.2e-6 for the Hessian, against |H| up to 1.9).  The Hessian's noise
    (node doubling) measured 3.1e-15 to 3.7e-13.  This includes three-bump-s3's
    third target, 9.4e-6 rad from a bump center."""
    worst = 0.0
    for K, y, lam_bar in preset_targets:
        for center in (y, exp_map(y, 0.05 * tangent_basis(y)[:, 0])):
            for lam in (3.0, lam_bar, 40.0):
                u = single(center, lam, tau=0.05)
                chart, (jev, g, H, noise) = exact_at(u, K)
                assert jev == functional_J_detailed(u, K)
                assert 0.0 < noise < 1e-12
                worst = max(worst, fd_misfit(u, K, g, H, chart, np.zeros(4)))
    assert worst < 1.0


@pytest.mark.parametrize("r", [1e-4, 0.1, 0.45, 0.55])
def test_exact_derivatives_off_the_chart_origin(preset_targets, r):
    """Chart points at |v| = r (and log-scale offset 0.1) on both sides of
    _chart_sinc's series switch at r = 1/2, around three-bump-s3's third
    target and one three-max-one-saddle target, at lam-bar and mirrored
    (lam = 1/3, integrated as the twin at the antipode).  Worst measured
    misfit 0.64 of the bound; worst differences 1.9e-9 (gradient) and
    4.5e-7 (Hessian)."""
    direction = unit(np.array([0.3, -0.5, 0.8]))
    at = np.append(r * direction, 0.1)
    worst = 0.0
    for K, y, lam_bar in (preset_targets[2], preset_targets[4]):
        for lam in (lam_bar, 1.0 / 3.0):
            u = single(y, lam, tau=0.05)
            chart, (jev, g, H, _) = exact_at(u, K, at)
            assert jev == functional_J_detailed(chart.unpack(at), K)
            worst = max(worst, fd_misfit(u, K, g, H, chart, at))
    assert worst < 1.0


def test_exact_and_fd_morse_indices_agree_at_the_targets(preset_targets):
    """The exact Hessian's verdict equals the FD one, with a narrower band."""
    for K, y, lam_bar in preset_targets:
        u = single(y, lam_bar, tau=0.05)
        exact = reduced_morse_index(u, K)
        H, noise = fd_hessian(u, K)
        eigs = np.linalg.eigvalsh(H)
        assert exact.index == int(np.sum(eigs < -10 * noise))
        assert exact.indeterminate == 0 == int(np.sum(np.abs(eigs) <= 10 * noise))
        assert exact.band < 1e-3 * 10 * noise


def test_flow_morse_index_agrees_with_the_canonical_chart(preset_targets, monkeypatch):
    """``FlowReport.morse_index`` classifies the Hessian the flow's last
    chart point holds, with no further kernel call.  That chart differs
    from the returned sum's own one, but at a critical point the two
    Hessians are congruent up to an O(gradient) term, so Sylvester's law
    keeps the verdict of ``reduced_morse_index``.  Every target is flown
    from its seed and from the seed's mirrored twin (lam < 0.75), whose
    chart re-anchors at its lam >= 1 representative."""
    from morsecount import bubbles

    charts, real = [], bubbles._single_bubble_derivatives

    def noting(chart, *args):
        charts.append(chart)
        return real(chart, *args)

    monkeypatch.setattr(bubbles, "_single_bubble_derivatives", noting)
    flows = []
    for K, y, lam_bar in preset_targets:
        for seed in (single(y, lam_bar, tau=0.05), single(-y, 1.0 / lam_bar, tau=0.05)):
            final, rep = flow_to_critical(seed, K)
            # the last kernel call took the Hessian the report holds
            assert rep.status == "converged" and charts[-1].base.bubbles[0].lam > 1.0
            flows.append((K, final, rep))
    monkeypatch.setattr(bubbles, "_single_bubble_derivatives", None)  # a call fails
    held = [rep.morse_index() for _, _, rep in flows]
    monkeypatch.undo()
    for (K, final, _), est in zip(flows, held):
        want = reduced_morse_index(final, K)
        assert (est.index, est.indeterminate) == (want.index, want.indeterminate)
    assert [est.index for est in held] == [0, 0, 0, 0, 0, 0, 1, 1] + [0] * 6


def test_a_non_finite_hessian_gives_no_verdict():
    """An inf entry turns every eigenvalue into NaN and a NaN noise the band:
    neither is a negative or a positive eigenvalue, so all are
    indeterminate.  Finite input keeps the band rule."""
    H = np.diag([1.0, -2.0, 3.0])
    H[0, 1] = H[1, 0] = np.inf
    for est in (_classify(H, 1e-12), _classify(np.diag([1.0, -2.0, 3.0]), float("nan"))):
        assert (est.index, est.indeterminate) == (0, 3)
    est = _classify(np.diag([1.0, -2.0, 0.05]), 0.01)
    assert (est.index, est.indeterminate, est.band) == (1, 1, 0.1)


def test_ring_slopes_match_mpmath_and_join_at_the_series_switch():
    """M = (coth b - 1/b)/b and M'(b)/b: series below b = 1/2, closed forms
    above.  Both within 1e-12 (relative) of 40-digit values (worst measured
    4.8e-14, M'/b just above the switch), and the step across the switch,
    b = 1/2 -+ 5e-13, is the functions' own change to 1e-15."""
    betas = [1e-8, 1e-3, 0.2, 0.5 * (1 - 1e-12), 0.5, 0.5 * (1 + 1e-12), 0.7, 3.0, 40.0, 2500.0]
    m, dm = _ring_slopes(np.array(betas))
    M = lambda x: (mpmath.coth(x) - 1 / x) / x
    with mpmath.workdps(40):
        ref_m = [M(mpmath.mpf(b)) for b in betas]
        ref_dm = [mpmath.diff(M, mpmath.mpf(b)) / b for b in betas]
    for got, ref in ((m, ref_m), (dm, ref_dm)):
        for val, want in zip(got, ref):
            assert abs(val - want) <= 1e-12 * abs(want)
        assert abs((got[5] - got[3]) - float(ref[5] - ref[3])) <= 1e-15
    assert m[0] == pytest.approx(1 / 3, abs=1e-16) and dm[0] == pytest.approx(-2 / 45, abs=1e-16)


def test_chart_sinc_matches_mpmath():
    assert _chart_sinc(0.0) == (1.0, -1.0 / 3.0, 1.0 / 15.0)
    with mpmath.workdps(40):
        for r in [1e-4, 0.3, 0.5 * (1 - 1e-12), 0.5, 0.9, 2.0]:
            g, h, k = _chart_sinc(r)
            x = mpmath.mpf(r)
            ref = (
                mpmath.sin(x) / x,
                (x * mpmath.cos(x) - mpmath.sin(x)) / x**3,
                (3 * mpmath.sin(x) - 3 * x * mpmath.cos(x) - x**2 * mpmath.sin(x)) / x**5,
            )
            for val, want in zip((g, h, k), ref):
                assert abs(val - want) <= 1e-13 * abs(want)


def test_exact_hessian_noise_covers_the_node_count():
    """The noise is the Hessian's change from the nodes // 2 to the nodes
    columns: at 32 nodes on a lam = 1000 bubble it covers the change to 128
    nodes (measured 3.8e-11 against 1.1e-11), far above the rounding floor."""
    K = load_preset("three-bump-s3")
    u = single(K.terms[0].center, 1000.0, tau=0.05)
    _, (_, _, H32, noise) = exact_at(u, K, scheme=QuadratureScheme(nodes=32))
    _, (_, _, H128, _) = exact_at(u, K, scheme=QuadratureScheme(nodes=128))
    assert np.max(np.abs(H32 - H128)) <= noise
    assert noise > 100 * 64 * np.finfo(float).eps * np.max(np.abs(H32))


def test_exact_derivatives_take_nodes_and_half_nodes_points_per_panel(monkeypatch):
    """The kernel's one multi-column integral runs the rule pair of
    integrate_radial: one call on (64 + 32) points per panel at the default
    scheme."""
    from morsecount import quadrature

    real, seen = quadrature._doubled, []

    def counting(f, breaks, nodes):
        def g(theta):
            seen.append((theta.size, len(breaks) - 1))
            return f(theta)

        return real(g, breaks, nodes)

    monkeypatch.setattr(quadrature, "_doubled", counting)
    K = load_preset("three-bump-s3")
    exact_at(single(K.terms[0].center, 40.0, tau=0.05), K)
    panels = seen[0][1]
    assert seen == [((64 + 32) * panels, panels)]


@pytest.mark.parametrize("n", [3, 4, 7])
def test_a_curvature_without_bumps_weighs_by_exactly_one(n):
    """K = 1 skips the ring average: no features, no per-bump terms, and
    the weighted integral is the one of |u|^q alone, to the bit."""
    from morsecount.bubbles import _ring_K_profile

    axis = np.eye(n + 1)[-1]
    profile, features, gamma = _ring_K_profile(constant_one(n), axis, n)
    t = np.linspace(-1.0, 1.0, 7)
    k_bar, terms = profile(t)
    assert k_bar == 1.0 and terms.shape == (0, 7) and features == [] and gamma.size == 0
    u = BubbleSum(n=n, bubbles=(Bubble(tuple(axis), 30.0), Bubble(tuple(-axis), 3.0)),
                  alphas=(1.0, 0.5), tau=0.05)
    q = 2.0 * n / (n - 2.0) - u.tau

    def bare(t):
        return np.abs(_profile(30.0, t, n) + 0.5 * _profile(3.0, -t, n)) ** q

    features = [(0.0, _theta_scale(30.0)), (math.pi, _theta_scale(3.0))]
    assert weighted_power_integral(u, constant_one(n)) == integrate_radial(bare, n, features=features)


def test_exact_derivatives_enforce_the_scheme_tolerance():
    """32 nodes per panel leave a lam = 400 bubble about 4e-13 (relative) off
    its 16-node value: both routes refuse a 1e-14 tolerance alike."""
    K = load_preset("three-bump-s3")
    u = single(K.terms[0].center, 400.0, tau=0.05)
    tight = QuadratureScheme(nodes=32, tol=1e-14)
    with pytest.raises(QuadratureConvergenceError):
        functional_J_detailed(u, K, tight)
    with pytest.raises(QuadratureConvergenceError):
        exact_at(u, K, scheme=tight)
    assert exact_at(u, K, scheme=replace(tight, tol=1e-12))[1][0] == functional_J_detailed(
        u, K, replace(tight, tol=1e-12)
    )


def test_reduced_index_zero_at_equilibrium_over_a_max():
    K = bump_candidate([(1.0, E4, 0.4)])
    u0 = single(E4, 10.0, tau=0.05)
    final, report = flow_to_critical(u0, K)
    assert report.status == "converged"
    est = reduced_morse_index(final, K)
    assert isinstance(est, MorseIndexEstimate)
    assert est.index == 0
    assert est.indeterminate == 0
    assert min(est.eigenvalues) > est.band


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


def test_flow_requires_positive_defect():
    with pytest.raises(ValueError):
        flow_to_critical(single(E4, 5.0, tau=0.0), constant_one(3))


def test_a_report_built_by_hand_has_no_morse_index():
    """Only a flow's own report holds the chart point its index is read at."""
    from morsecount.bubbles import FlowReport

    report = FlowReport("converged", 0, 1.0, 0.0, 0.0, ())
    with pytest.raises(ValueError, match="no flow point"):
        report.morse_index()


MC_FLOW_SCHEME = QuadratureScheme(kind="monte-carlo", samples=4000, seed=5, tol=1.0)


def off_route_sums(K3):
    """(sum, K) off the exact route: an antipodal pair on S^3, which has a J,
    a pair off a common axis on S^3, and one bubble on S^4."""
    pairs = [
        BubbleSum(n=3, bubbles=(Bubble(tuple(E4), 5.0), Bubble(tuple(center), 3.0)),
                  alphas=(1.0, 0.7), tau=0.05)
        for center in (-E4, (0.0, 0.0, math.sin(0.5), math.cos(0.5)))
    ]
    return [(u, K3) for u in pairs] + [(single(E5, 4.0, n=4, tau=0.05), constant_one(4))]


def assert_refused_before_any_j(monkeypatch, call, K3):
    """``call(u, K)`` raises the chart's refusal on every off-route sum,
    and no J, pair energy or weighted integral is taken first."""
    from morsecount import bubbles

    taken = []
    for name in ("functional_J_detailed", "norm_squared", "weighted_power_integral"):
        monkeypatch.setattr(bubbles, name, lambda *a, name=name, **k: taken.append(name))
    for u, K in off_route_sums(K3):
        with pytest.raises(
            ValueError,
            match=rf"for one bubble on S\^3 only; got {u.p} bubble\(s\) on S\^{u.n}$",
        ):
            call(u, K)
    assert taken == []


def test_monte_carlo_flow_refuses_a_sum_off_the_exact_route(monkeypatch):
    """A Monte Carlo scheme opens no other derivative route: a flow of two
    bubbles, or of one bubble on S^4, raises before its first J."""
    call = lambda u, K: flow_to_critical(u, K, MC_FLOW_SCHEME)
    assert_refused_before_any_j(monkeypatch, call, constant_one(3))


def test_monte_carlo_morse_index_refuses_a_sum_off_the_exact_route(monkeypatch):
    """The Morse index of two bubbles, or of one bubble on S^4, under a
    Monte Carlo scheme raises before its first J."""
    call = lambda u, K: reduced_morse_index(u, K, MC_FLOW_SCHEME)
    assert_refused_before_any_j(monkeypatch, call, constant_one(3))


def test_monte_carlo_single_bubble_flow_is_the_radial_one(monkeypatch):
    """One bubble on S^3 takes the exact route under every scheme, which
    lends it only ``nodes`` and ``tol``: from three-bump-s3's first bump
    center at lam = 8, a Monte Carlo scheme's flow, report and Morse index
    equal the radial scheme's bit for bit, whatever its samples and seed.
    The kernel is the only derivative call, once per visited point, and no
    J is taken outside it.  The index is conclusive."""
    from morsecount import bubbles

    K = load_preset("three-bump-s3")
    u0 = single(K.terms[0].center, 8.0, tau=0.05)
    want_final, want = flow_to_critical(u0, K, QuadratureScheme(tol=1.0))
    want_index = want.morse_index()
    assert want.status == "converged"
    assert (want_index.index, want_index.indeterminate) == (0, 0)
    kernel_calls, other_j, real = [], [], bubbles._single_bubble_derivatives
    monkeypatch.setattr(
        bubbles, "_single_bubble_derivatives", lambda *a: kernel_calls.append(a) or real(*a)
    )
    for name in ("functional_J_detailed", "weighted_power_integral"):
        monkeypatch.setattr(bubbles, name, lambda *a, name=name, **k: other_j.append(name))
    for samples, seed in ((4000, 5), (50_000, 11)):
        mc = QuadratureScheme(kind="monte-carlo", samples=samples, seed=seed, tol=1.0)
        final, report = flow_to_critical(u0, K, mc)
        assert final == want_final and report == want
        assert report.morse_index() == want_index
    assert other_j == [] and len(kernel_calls) == 2 * (want.steps + 1)


def test_flow_refuses_bubbles_off_a_common_axis_under_a_radial_scheme(monkeypatch):
    """Under the radial scheme too, the flow and the Morse index of two
    bubbles (an antipodal pair, which has a J, and a pair off a common axis)
    or of one bubble on S^4 raise the chart's refusal before any J; so does
    building the chart itself, where the refusal lives."""
    K = load_preset("three-bump-s3")
    assert_refused_before_any_j(monkeypatch, flow_to_critical, K)
    assert_refused_before_any_j(monkeypatch, reduced_morse_index, K)
    assert_refused_before_any_j(monkeypatch, lambda u, K: BubbleChart(u), K)


def test_flow_constant_candidate_flattens_in_place():
    """On constant K the scale settles at 1, where the configuration is the
    constant function; the report says so."""
    u0 = single(E4, 3.0, tau=0.2)
    final, report = flow_to_critical(u0, constant_one(3))
    assert report.status == "converged"
    assert "near" in report.message and "constant" in report.message
    assert 0.9 < final.bubbles[0].lam < 1.1
    assert geodesic_distance(np.asarray(final.bubbles[0].center), E4) < 1e-3


def test_flow_escapes_from_a_shallow_defect(monkeypatch):
    from morsecount import bubbles

    monkeypatch.setattr(bubbles, "LAM_CAP", 15.0)
    K = bump_candidate([(1.0, E4, 0.4)])
    u0 = single(E4, 8.0, tau=0.001)
    final, report = flow_to_critical(u0, K)
    assert report.status == "blow-up-escape"
    assert report.message == "a concentration scale crossed the cap 15"
    assert final.bubbles[0].lam > 15.0
    # the reported gradient norm is the one at the returned sum, not at the
    # point before the last step
    chart = BubbleChart(final)
    _, grad, _, _ = _single_bubble_derivatives(chart, K, QuadratureScheme(), np.zeros(chart.dim))
    assert report.grad_norm == pytest.approx(float(np.linalg.norm(grad)), rel=1e-9)


def test_flow_reports_the_gradient_at_the_returned_sum(monkeypatch):
    """A flow whose step budget runs out ends on a Newton step; the kernel
    call there takes the gradient it reports, at the returned sum (one bubble
    on S^3 over a bump's center, which it keeps by symmetry, so the gradient
    is its chart-independent log-scale part)."""
    from morsecount import bubbles

    taken, real = [], bubbles._single_bubble_derivatives

    def noting(chart, K, scheme, x):
        out = real(chart, K, scheme, x)
        taken.append((chart.unpack(x), out[1]))
        return out

    monkeypatch.setattr(bubbles, "_single_bubble_derivatives", noting)
    monkeypatch.setattr(bubbles, "NEWTON_STEPS", 2)
    K = bump_candidate([(1.0, E4, 0.4)])
    u0 = single(E4, 40.0, tau=0.05)  # unbudgeted, it converges in 5 steps
    final, report = flow_to_critical(u0, K)
    assert report.status == "non-convergence" and report.steps == 2
    assert report.message == f"final gradient norm {report.grad_norm:.3e} above tolerance"
    assert len(taken) == 3 and taken[-1][0] == final
    assert report.grad_norm == float(np.linalg.norm(taken[-1][1]))
    monkeypatch.undo()
    _, (_, grad, _, _) = exact_at(final, K)
    assert report.grad_norm == pytest.approx(float(np.linalg.norm(grad)), rel=1e-9)
    assert report.grad_norm != pytest.approx(float(np.linalg.norm(taken[-2][1])), rel=1e-3)


def test_equilibrium_scale_pins_only_genuine_wells():
    """A strong curvature well dips the scale line to an interior minimum;
    for constant K the subcritical penalty is all there is, the line is
    monotone, and no scale is returned."""
    K = bump_candidate([(1.0, E4, 0.4)], epsilon=0.3)
    lam_bar = equilibrium_scale(K, E4, 0.05)
    assert lam_bar is not None and 3.0 < lam_bar < 40.0

    def j(lam):
        return functional_J(single(E4, lam, tau=0.05), K)

    assert j(lam_bar) < j(lam_bar * 1.3) and j(lam_bar) < j(lam_bar / 1.3)
    assert equilibrium_scale(constant_one(3), E4, 0.05) is None
    with pytest.raises(ValueError):
        equilibrium_scale(K, E4, 0.0)


@pytest.mark.parametrize("points", [0, 1, 2, 3.5])
def test_equilibrium_scale_refuses_a_grid_without_an_interior_point(points):
    """A bracket needs a grid point on each side of its minimum; fewer than 3
    points used to fail in numpy (0) or read as a shallow well (1, 2), and a
    fractional count failed in numpy."""
    K = bump_candidate([(1.0, E4, 0.4)], epsilon=0.3)
    with pytest.raises(ValueError, match="points"):
        equilibrium_scale(K, E4, 0.05, points=points)


@pytest.mark.parametrize(
    "window", [(2.0, 2.0), (64.0, 2.0), (0.0, 64.0), (-2.0, 64.0), (2.0, math.inf), (math.nan, 64.0)]
)
def test_equilibrium_scale_refuses_a_window_that_is_not_an_interval(window):
    """An empty window used to read as a shallow well, and a reversed one
    ran its grid backwards."""
    K = bump_candidate([(1.0, E4, 0.4)], epsilon=0.3)
    with pytest.raises(ValueError, match="window"):
        equilibrium_scale(K, E4, 0.05, window=window)


def per_scale_line(K, center, tau, scheme=None, *, window=(2.0, 64.0), points=31):
    """The scale line as it was: one functional_J_detailed per grid scale,
    then the same local-minimum rule and log-scale parabola.  Returns
    (the J evaluations, the scale or None)."""
    lams = np.geomspace(window[0], window[1], points)
    line = [functional_J_detailed(single(center, lam, K.n, tau), K, scheme) for lam in lams]
    js = [jev.value for jev in line]
    inner = [i for i in range(1, points - 1) if js[i] < js[i - 1] and js[i] <= js[i + 1]]
    if not inner:
        return line, None
    best = min(inner, key=lambda i: (js[i], i))
    x0, x1, x2 = np.log(lams[best - 1 : best + 2])
    y0, y1, y2 = js[best - 1 : best + 2]
    num = (y0 - y1) * (x2 - x1) ** 2 - (y2 - y1) * (x1 - x0) ** 2
    den = (y0 - y1) * (x2 - x1) + (y2 - y1) * (x1 - x0)
    return line, float(lams[best] if den == 0.0 else np.exp(x1 + 0.5 * num / den))


def scale_line(monkeypatch, K, center, tau, scheme=None, **grid):
    """equilibrium_scale's result and the J evaluation of each grid scale."""
    from morsecount import bubbles

    seen, real = [], bubbles._j_evaluation

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(bubbles, "_j_evaluation", recording)
        lam = equilibrium_scale(K, center, tau, scheme, **grid)
    return seen, lam


def scale_line_cases(preset_targets):
    """(K, center, tau, window) at every preset target, with the default
    window and one straddling lam = 1, and an n = 4 candidate whose bump
    sits on the bubble axis."""
    K4 = bump_candidate([(1.0, E5, 0.4)], epsilon=0.1, n=4)
    cases = [(K, y, 0.05, w) for K, y, _ in preset_targets for w in ({}, {"window": (0.5, 8.0)})]
    return cases + [(K4, E5, 0.05, {}), (K4, E5, 0.1, {"window": (0.5, 8.0)})]


def test_scale_line_matches_the_per_scale_oracle(preset_targets, monkeypatch):
    """Each grid scale's J is the per-scale functional_J_detailed within
    1e-13 (relative; measured up to 7.9e-15, with doubling errors up to
    1.0e-14 on either side), and the scale is the per-scale loop's within
    1e-12 (measured up to 2.8e-13).  The panels differ: one set serves the whole
    line, refined for its largest scale."""
    pinned = straddled = 0
    for K, center, tau, window in scale_line_cases(preset_targets):
        line, lam = scale_line(monkeypatch, K, center, tau, **window)
        want_line, want = per_scale_line(K, center, tau, **window)
        assert len(line) == len(want_line) == 31
        for jev, ref in zip(line, want_line):
            assert abs(jev.value - ref.value) <= 1e-13 * ref.value
            assert jev.norm_squared == ref.norm_squared and jev.error <= 1e-13 * jev.value
        assert (lam is None) == (want is None)
        if lam is not None:
            assert abs(lam - want) <= 1e-12 * want
            pinned += 1
            straddled += bool(window)
    assert pinned == 11 and straddled == 3


def test_monte_carlo_scale_line_is_the_radial_one(monkeypatch):
    """The scale line is one radial integral under every scheme: a Monte
    Carlo scheme lends it only ``nodes`` and ``tol``, so its line and scale
    equal the radial scheme's bit for bit, whatever its samples and seed."""
    K = bump_candidate([(1.0, E4, 0.4)], epsilon=0.3)
    radial = QuadratureScheme(nodes=32, tol=1e-8)
    want_line, want = scale_line(monkeypatch, K, E4, 0.05, radial, window=(2.0, 40.0), points=9)
    assert len(want_line) == 9 and want is not None
    for samples, seed in ((2000, 3), (50_000, 11)):
        mc = QuadratureScheme(kind="monte-carlo", nodes=32, samples=samples, seed=seed, tol=1e-8)
        line, lam = scale_line(monkeypatch, K, E4, 0.05, mc, window=(2.0, 40.0), points=9)
        assert line == want_line and lam == want


@pytest.mark.parametrize("kind", ["radial-1d", "monte-carlo"])
def test_scale_line_refuses_off_axis_bumps_off_the_3_sphere_without_advice(kind):
    """Off the 3-sphere a bump off the center's axis has no ring average in
    closed form, and no scheme changes that for the scale line, so the
    refusal names n = 3 and suggests no scheme."""
    K = bump_candidate([(0.5, unit(np.array([1.0, 0.0, 0.0, 0.0, 1.0])), 0.5)], n=4)
    with pytest.raises(ValueError, match="n = 3") as info:
        equilibrium_scale(K, E5, 0.05, QuadratureScheme(kind=kind))
    assert "monte-carlo" not in str(info.value)


def test_scale_line_enforces_the_scheme_tolerance():
    """At 32 nodes the large scales sit about 6e-14 (relative) off their
    16-node values: a 1e-14 tolerance is refused, as per scale, and a 1e-10
    one passes."""
    K = load_preset("three-bump-s3")
    tight = QuadratureScheme(nodes=32, tol=1e-14)
    with pytest.raises(QuadratureConvergenceError):
        equilibrium_scale(K, K.terms[0].center, 0.05, tight, window=(2.0, 400.0))
    with pytest.raises(QuadratureConvergenceError):
        per_scale_line(K, K.terms[0].center, 0.05, tight, window=(2.0, 400.0))
    loose = replace(tight, tol=1e-10)
    lam = equilibrium_scale(K, K.terms[0].center, 0.05, loose, window=(2.0, 400.0))
    assert lam == pytest.approx(per_scale_line(K, K.terms[0].center, 0.05, loose,
                                               window=(2.0, 400.0))[1], rel=1e-11)


def test_scale_line_is_one_integral(monkeypatch):
    """On the radial route one equilibrium_scale call makes one
    integrate_radial call and takes no per-scale J."""
    from collections import Counter

    from morsecount import bubbles

    calls = Counter()

    def counting(name):
        real = getattr(bubbles, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("integrate_radial", "functional_J_detailed"):
        monkeypatch.setattr(bubbles, name, counting(name))
    K = load_preset("three-bump-s3")
    assert equilibrium_scale(K, K.terms[0].center, 0.05) is not None
    assert calls == Counter(integrate_radial=1)


def test_scale_line_is_held_once():
    """integrate_radial weights the (31 scales, points) line in place. The
    fine pass's line is 0.73 MB on three-bump-s3, and weighting it into a
    new array held two copies: a tracemalloc peak of 1.56 MB per call."""
    import tracemalloc

    K = load_preset("three-bump-s3")
    center = K.terms[0].center
    lam = equilibrium_scale(K, center, 0.05)  # warm the caches
    tracemalloc.start()
    try:
        assert equilibrium_scale(K, center, 0.05) == lam
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4e6
