"""Bubble-calculus tests: closed-form oracles for the Sobolev constant and
functional values, conformal-invariance identities, two-route agreement,
gradient stencil consistency, and qualitative flow behavior."""
from __future__ import annotations

import math
import warnings

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
from morsecount.kfunc import BumpTerm, KFunction
from morsecount.quadrature import (
    QuadratureConvergenceError,
    QuadratureScheme,
    mc_integrate,
)
from morsecount.sphere import geodesic_distance, random_rotation, tangent_basis, unit

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
