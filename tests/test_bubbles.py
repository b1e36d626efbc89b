"""Bubble-calculus tests: closed-form oracles for the Sobolev constant and
functional values, conformal-invariance identities, two-route agreement,
gradient stencil consistency, and qualitative flow behavior."""
from __future__ import annotations

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from morsecount.bubbles import (
    Bubble,
    BubbleChart,
    BubbleSum,
    FlowOptions,
    I_from_J,
    MorseIndexEstimate,
    QuadratureNoiseWarning,
    bubble_component,
    c0,
    canonical_bubble,
    constant_one,
    equilibrium_scale,
    eval_bubble,
    eval_bubble_sum,
    flow_to_critical,
    functional_J,
    functional_J_detailed,
    norm_squared,
    reduced_gradient,
    reduced_morse_index,
    sobolev_constant,
    weighted_power_integral,
)
from morsecount.bubbles import (
    _ALIGNED,
    _chart_sinc,
    _cos_scale,
    _profile,
    _ring_slopes,
    _single_bubble_derivatives,
    _theta_scale,
    fd_hessian,
)
from morsecount.kfunc import BumpTerm, KFunction, find_critical_points, k_infinity_points
from morsecount.presets import load_preset
from morsecount.quadrature import (
    QuadratureConvergenceError,
    QuadratureScheme,
    integrate_radial,
    integrate_two_point_s3,
    mc_integrate,
)
from morsecount.sphere import (
    exp_map,
    geodesic_distance,
    random_rotation,
    sphere_area,
    tangent_basis,
    unit,
)

E4 = np.array([0.0, 0.0, 0.0, 1.0])


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


# Bit patterns of scipy's gammaln route, frozen so a swap to math.lgamma (which
# differs by 1 ulp on most half-integers) cannot pass quietly.
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
# configurations and serialization
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


def test_bubble_sum_roundtrip_records_separations():
    u = BubbleSum(
        n=3,
        bubbles=(
            Bubble(center=tuple(E4), lam=3.0),
            Bubble(center=(1.0, 0.0, 0.0, 0.0), lam=5.0),
        ),
        alphas=(1.0, 2.0),
        tau=0.1,
    )
    d = u.to_dict()
    assert d["separations"] == [pytest.approx(math.pi / 2)]
    assert BubbleSum.from_dict(d) == u


# ---------------------------------------------------------------------------
# norms and pair energies
# ---------------------------------------------------------------------------


def test_single_bubble_norm_is_exact():
    val, err = norm_squared(single(E4, 23.0, alpha=1.5))
    assert val == 1.5**2 * sobolev_constant(3)
    assert err == 0.0


def test_pair_energy_routes_agree():
    """Factorized deterministic route vs mixture Monte Carlo on a generic pair."""
    u = BubbleSum(
        n=3,
        bubbles=(
            Bubble(center=tuple(E4), lam=3.0),
            Bubble(center=tuple(unit(np.array([0.6, 0.1, -0.2, 0.5]))), lam=8.0),
        ),
        alphas=(1.0, 1.0),
    )
    det, det_err = norm_squared(u, QuadratureScheme(nodes=96))
    mc, mc_err = norm_squared(
        u, QuadratureScheme(kind="monte-carlo", samples=120_000, seed=3)
    )
    assert det_err < 1e-8 * det
    assert abs(mc - det) < max(6 * mc_err, 0.03 * det)


def test_bubble_component_density_matches_sampler():
    """Zero-variance check: under its own proposal, the critical bubble power
    has constant importance weight, so the estimate equals S_n to roundoff."""
    b = Bubble(center=tuple(unit(np.array([0.3, -1.0, 0.2, 0.8]))), lam=12.0)
    comp = bubble_component(b, 3)
    val, err = mc_integrate(
        lambda x: eval_bubble(b, x, 3) ** 6.0, [comp], samples=4000, seed=5
    )
    assert val == pytest.approx(sobolev_constant(3), rel=1e-12)
    assert err < 1e-10


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
    b = Bubble(center=tuple(unit(np.random.default_rng(n).standard_normal(n + 1))), lam=lam)
    got = bubble_component(b, n).sample(np.random.default_rng(99), 20_000)
    want = trig_sampler_oracle(np.asarray(b.center), lam, n, np.random.default_rng(99), 20_000)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(got, axis=1) - 1.0)) < 1e-12


class _FixedRows:
    """Generator stand-in whose standard_normal returns the given rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def standard_normal(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


@pytest.mark.parametrize("lam", [1.0, 1.3, 40.0, 1e4])
def test_bubble_sampler_fixes_both_poles_and_dilates_the_equator(lam):
    """x = +-a, where the colatitude form needs a fallback frame, and a point
    at colatitude pi/2, which lands where tan(t'/2) = 1/lam."""
    a = np.array([0.5, 0.5, 0.5, 0.5])
    w = np.array([0.5, -0.5, 0.5, -0.5])
    comp = bubble_component(Bubble(center=tuple(a), lam=lam), 3)
    got = comp.sample(_FixedRows([a, -a, w]), 3)
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
                (1.0, _cos_scale(b.lam)),
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
    return K.scale * alpha**q * val, K.scale * alpha**q * err


def preset_on_s3(name):
    """A curvature preset on the 3-sphere; 2-sphere bumps gain a zero coordinate."""
    K = load_preset(name)
    if K.n == 3:
        return K
    terms = tuple(replace(t, center=(*t.center, 0.0)) for t in K.terms)
    return KFunction(n=3, epsilon=K.epsilon, terms=terms, scale=K.scale)


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
    """gamma = +-1 takes the axial factor exactly, as does |gamma| = 1 - 1e-12
    (inside the aligned threshold); just outside it the ring average takes
    over and must continue the value along its slope in gamma."""
    u = single(E4, 12.0, tau=0.05)

    def at(gamma):
        c = (math.sqrt((1.0 - gamma) * (1.0 + gamma)), 0.0, 0.0, sign * gamma)
        return weighted_power_integral(u, bump_candidate([(0.45, c, 0.33)], 0.3))[0]

    axial = at(1.0)
    assert at(1.0 - 1e-12) == axial
    slope = (at(1.0 - 1e-4) - axial) / 1e-4
    for gap in (2e-9, 1e-8, 1e-6):
        jump = at(1.0 - gap) - axial - slope * gap
        assert abs(jump) <= 1e-3 * abs(slope) * gap + 1e-14 * axial


def test_off_axis_bumps_need_the_3_sphere():
    u = single(unit(np.array([0.0, 0.0, 0.0, 0.0, 1.0])), 6.0, n=4)
    on_axis = bump_candidate([(0.5, (0.0, 0.0, 0.0, 0.0, -1.0), 0.5)], n=4)
    assert weighted_power_integral(u, on_axis)[0] > 0.0
    off_axis = bump_candidate([(0.5, unit(np.array([1.0, 0.0, 0.0, 0.0, 1.0])), 0.5)], n=4)
    with pytest.raises(ValueError, match="n = 3"):
        weighted_power_integral(u, off_axis)


# (value, error, weighted integral, weighted error) as float.hex, frozen from
# the route before the ring average: aligned configurations must not move
ALIGNED_J_HEX = {
    "tower": ["0x1.d93a7fd911ef0p+2", "0x1.a7b0eb29631dep-50",
              "0x1.5692ee3de3da1p+4", "0x1.921fb54442d19p-47"],
    "bumps-north": ["0x1.4f4f66a20a252p+2", "0x1.ee2fdd4dc1891p-49",
                    "0x1.ca8fef86e56d2p+3", "0x1.f6a7a2955385fp-46"],
    "bumps-south": ["0x1.68994e14d4eddp+2", "0x1.8be14948ea9cep-49",
                    "0x1.715d404ad3886p+3", "0x1.2d97c7f3321d3p-46"],
    "bumps-tower": ["0x1.c769e19b015fcp+2", "0x1.01069a8ee820ap-51",
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
        j = functional_J_detailed(u, KK)
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
    u = BubbleSum(
        n=3,
        bubbles=(
            Bubble(center=tuple(E4), lam=3.0),
            Bubble(center=(0.0, 1.0, 0.0, 0.0), lam=6.0),
        ),
        alphas=(1.0, 0.5),
        tau=0.1,
    )
    chart = BubbleChart(u)
    assert chart.dim == 1 + 2 * 3 + 2
    assert chart.unpack(np.zeros(chart.dim)) == u
    vec = np.zeros(chart.dim)
    vec[0] = math.log(2.0)  # double the second coefficient
    vec[1] = 0.2  # move the first center
    vec[-1] = math.log(3.0)  # triple the second scale
    moved = chart.unpack(vec)
    assert moved.alphas[1] == pytest.approx(1.0)
    assert geodesic_distance(
        np.asarray(moved.bubbles[0].center), E4
    ) == pytest.approx(0.2, rel=1e-9)
    assert moved.bubbles[1].lam == pytest.approx(18.0)
    assert chart.lam_of(vec, 1) == pytest.approx(18.0)


def test_gradient_vanishes_by_symmetry():
    g = reduced_gradient(single(E4, 5.0), constant_one(3))
    assert np.max(np.abs(g)) < 1e-7


def test_gradient_two_stencil_consistency():
    K = bump_candidate([(1.0, E4, 0.4)])
    u = single(unit(np.array([0.3, 0.0, 0.0, 1.0])), 6.0, tau=0.1)
    g_fine = reduced_gradient(u, K, step=1e-4)
    g_coarse = reduced_gradient(u, K, step=2e-3)
    assert np.max(np.abs(g_fine - g_coarse)) < 1e-4 * max(
        1.0, float(np.max(np.abs(g_fine)))
    )


def test_scale_gradient_has_zero_crossing_at_a_max():
    """At a candidate maximum the scale component of the gradient changes
    sign: an interior equilibrium scale exists."""
    K = bump_candidate([(1.0, E4, 0.4)])

    def g_log_lam(lam):
        return reduced_gradient(single(E4, lam, tau=0.05), K)[-1]

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
        reduced_gradient(single(E4, 5.0, tau=0.1), constant_one(3), scheme, step=1e-8)


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
    gradient and twice fd_hessian's propagated noise for the Hessian."""
    g_fd = reduced_gradient(u, K, step=1e-4, chart=chart, at=at)
    g_2h = reduced_gradient(u, K, step=2e-4, chart=chart, at=at)
    H_fd, noise = fd_hessian(u, K, step=1e-3, chart=chart, at=at)
    H_2h, _ = fd_hessian(u, K, step=2e-3, chart=chart, at=at)
    j = functional_J(chart.unpack(at), K)
    g_tol = 0.5 * np.abs(g_2h - g_fd) + 64 * np.finfo(float).eps * j / 1e-4
    H_tol = 0.5 * np.abs(H_2h - H_fd) + 2.0 * noise
    return max(np.max(np.abs(g - g_fd) / g_tol), np.max(np.abs(H - H_fd) / H_tol))


def test_exact_derivatives_match_finite_differences_at_every_target(preset_targets):
    """At every target and the same centre moved 0.05 rad, for lam in
    {3, lam-bar, 40}: J is bit-identical to functional_J_detailed, and the
    gradient and Hessian sit inside the FD bound of fd_misfit (worst measured
    misfit 0.66 of the bound; worst differences 8.7e-9 for the gradient and
    5.2e-6 for the Hessian, against |H| up to 1.9).  The Hessian's noise
    (node doubling) measured 3.7e-15 to 1.9e-13.  The one target whose
    origin snaps onto a bump (|gamma| >= _ALIGNED, 7e-6 rad away) is left to
    the off-origin test: there J jumps by ~4e-11 across the FD stencil."""
    worst, snapped = 0.0, 0
    for K, y, lam_bar in preset_targets:
        for center in (y, exp_map(y, 0.05 * tangent_basis(y)[:, 0])):
            if np.max(np.abs(K.centers() @ center)) >= _ALIGNED:
                snapped += 1
                continue
            for lam in (3.0, lam_bar, 40.0):
                u = single(center, lam, tau=0.05)
                chart, (jev, g, H, noise) = exact_at(u, K)
                assert jev == functional_J_detailed(u, K)
                assert 0.0 < noise < 1e-12
                worst = max(worst, fd_misfit(u, K, g, H, chart, np.zeros(4)))
    assert snapped == 1
    assert worst < 1.0


@pytest.mark.parametrize("r", [1e-4, 0.1, 0.45, 0.55])
def test_exact_derivatives_off_the_chart_origin(preset_targets, r):
    """Chart points at |v| = r (and log-scale offset 0.1) on both sides of
    _chart_sinc's series switch at r = 1/2, around the snapped three-bump-s3
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
    """The noise is the Hessian's change from nodes to 2*nodes columns: at
    16 nodes on a lam = 1000 bubble it covers the change to 64 nodes
    (measured 3.8e-11 against 1.1e-11), far above the rounding floor."""
    K = load_preset("three-bump-s3")
    u = single(K.terms[0].center, 1000.0, tau=0.05)
    _, (_, _, H16, noise) = exact_at(u, K, scheme=QuadratureScheme(nodes=16))
    _, (_, _, H64, _) = exact_at(u, K, scheme=QuadratureScheme(nodes=64))
    assert np.max(np.abs(H16 - H64)) <= noise
    assert noise > 100 * 64 * np.finfo(float).eps * np.max(np.abs(H16))


def test_exact_derivatives_enforce_the_scheme_tolerance():
    """16 nodes per panel leave a lam = 400 bubble about 4e-13 (relative) off
    its doubled value: both routes refuse a 1e-14 tolerance alike."""
    K = load_preset("three-bump-s3")
    u = single(K.terms[0].center, 400.0, tau=0.05)
    tight = QuadratureScheme(nodes=16, tol=1e-14)
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
    assert report.converged
    est = reduced_morse_index(final, K)
    assert isinstance(est, MorseIndexEstimate)
    assert est.index == 0
    assert est.indeterminate == 0
    assert int(est) == 0
    assert min(est.eigenvalues) > est.band


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


def test_flow_requires_positive_defect():
    with pytest.raises(ValueError):
        flow_to_critical(single(E4, 5.0, tau=0.0), constant_one(3))


def test_flow_descends_and_recenters_on_the_max():
    K = bump_candidate([(1.0, E4, 0.4)])
    start = unit(np.array([math.sin(0.35), 0.0, 0.0, math.cos(0.35)]))
    u0 = single(start, 8.0, tau=0.05)
    final, report = flow_to_critical(u0, K, reference_points=[E4])
    assert report.converged
    assert report.nearest[0][0] == 0
    assert report.nearest[0][1] < 0.05
    j_values = [row[1] for row in report.trajectory]
    drops = np.diff(j_values)
    assert np.all(drops < 1e-6)  # non-increasing up to noise
    assert report.grad_norm < 2e-5


def test_stalled_flow_evaluates_no_bubble_sum_twice(monkeypatch):
    """A line search whose one trial (t = 10) is rejected stalls at its
    start; the Newton polish must reuse the derivatives held there instead
    of taking that bubble sum again."""
    from collections import Counter

    from morsecount import bubbles

    seen, real = Counter(), bubbles._single_bubble_derivatives

    def counting(chart, K, scheme, x):
        seen[chart.unpack(x)] += 1
        return real(chart, K, scheme, x)

    monkeypatch.setattr(bubbles, "_single_bubble_derivatives", counting)
    K = bump_candidate([(1.0, E4, 0.4)])
    start = unit(np.array([math.sin(0.35), 0.0, 0.0, math.cos(0.35)]))
    opts = FlowOptions(max_steps=1, initial_step=10.0, min_step=10.0)
    final, report = flow_to_critical(single(start, 8.0, tau=0.05), K, opts)
    assert report.converged
    assert len(seen) > 2 and max(seen.values()) == 1


def test_flow_constant_candidate_flattens_in_place():
    u0 = single(E4, 3.0, tau=0.2)
    final, report = flow_to_critical(u0, constant_one(3))
    assert report.converged
    assert 0.9 < final.bubbles[0].lam < 1.1
    assert geodesic_distance(np.asarray(final.bubbles[0].center), E4) < 1e-3


def test_flow_escapes_from_a_shallow_defect():
    K = bump_candidate([(1.0, E4, 0.4)])
    u0 = single(E4, 8.0, tau=0.001)
    opts = FlowOptions(max_steps=300, lam_cap=15.0, newton_steps=0)
    final, report = flow_to_critical(u0, K, opts)
    assert report.status == "blow-up-escape"
    assert final.bubbles[0].lam > 15.0


def test_flow_migrates_away_from_a_positive_laplacian_min():
    """Seeded on the minimum of K, the flow has no equilibrium scale there;
    it flattens through the near-constant neck (where the scale crosses 1 and
    the mirrored representation takes over) and re-concentrates on the
    maximum on the far side."""
    c2 = np.array([math.sin(2.0), 0.0, 0.0, math.cos(2.0)])
    K = bump_candidate([(1.0, E4, 0.4), (-0.8, c2, 0.5)])
    u0 = single(c2, 4.0, tau=0.05)
    final, report = flow_to_critical(
        u0, K, FlowOptions(max_steps=400), reference_points=[c2, E4]
    )
    assert report.converged
    end = np.asarray(final.bubbles[0].center)
    assert geodesic_distance(end, c2) > 1.0
    assert geodesic_distance(end, E4) < 0.05
    assert final.bubbles[0].lam > 3.0
    idx, dist = report.nearest[0]
    assert idx == 1 and dist < 0.05


def test_flow_short_budget_reports_the_near_constant_neck():
    """With too small a step budget the same seed converges inside the
    constant-function neck (a genuine degenerate critical circle of the
    reduced functional) and the report says so."""
    c2 = np.array([math.sin(2.0), 0.0, 0.0, math.cos(2.0)])
    K = bump_candidate([(1.0, E4, 0.4), (-0.8, c2, 0.5)])
    u0 = single(c2, 4.0, tau=0.05)
    final, report = flow_to_critical(u0, K, FlowOptions(max_steps=150))
    assert report.converged
    assert final.bubbles[0].lam == pytest.approx(1.0, abs=0.05)
    assert "near" in report.message and "constant" in report.message


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
