"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

Each test states its guarantee at the advertised tolerance and prints a
C##  PASS/FAIL line with the measured numbers.  Guarantees are exercised
end to end (library calls only, no mocking); runtimes are asserted where
the guarantee includes one.
"""
from __future__ import annotations

import math
import time
from math import comb

import mpmath
import numpy as np
import pytest
import sympy

from morsecount.bubbles import (
    Bubble,
    BubbleSum,
    I_from_J,
    c0,
    constant_one,
    equilibrium_scale,
    flow_to_critical,
    functional_J,
    norm_squared,
    reduced_morse_index,
    sobolev_constant,
    weighted_power_integral,
)
from morsecount.indexcount import (
    ParityConfig,
    admissible_epsilon,
    all_parity_patterns,
    euler_poincare_check,
    index_K,
    mu_direct,
    mu_recurrence,
    solution_bounds,
)
from morsecount.kfunc import find_critical_points, k_infinity_points
from morsecount.presets import load_preset
from morsecount.quadrature import integrate_radial
from morsecount.sphere import geodesic_distance


def _report(num: int, label: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"C{num:02d}  FAIL  {label}")
        raise
    print(f"C{num:02d}  PASS  {label}")


def table(parities, N=12, n=7):
    return mu_recurrence(ParityConfig(n=n, parities=tuple(parities), N=N))


# ---------------------------------------------------------------------------


def test_c01_two_point_golden_counts():
    def check():
        t0 = time.perf_counter()
        even = table((0, 0))
        odd = table((0, 1))
        assert even.mu == tuple([-1] * 12)
        assert odd.mu == tuple((-1) ** (p + 1) for p in range(1, 13))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0

    _report(1, "two-point golden counts, exact, under 1 s", check)


def test_c02_closed_forms_match_both_counting_routes():
    def check():
        t0 = time.perf_counter()
        for m in range(3, 9):
            cfg_even = ParityConfig(n=7, parities=(0,) * m, N=12)
            cfg_odd = ParityConfig(n=7, parities=(0,) + (1,) * (m - 1), N=12)
            for cfg in (cfg_even, cfg_odd):
                assert mu_direct(cfg).mu == mu_recurrence(cfg).mu
            assert table((0,) * m).mu == tuple(
                -comb(p + m - 2, m - 2) for p in range(1, 13)
            )
            odd_mu = table((0,) + (1,) * (m - 1)).mu
            assert odd_mu[0] == m - 1
            assert odd_mu == tuple(
                (-1) ** (p + 1) * comb(p + m - 2, m - 2) for p in range(1, 13)
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0

    _report(2, "all-even/all-odd closed forms, m=3..8, exact, under 10 s", check)


def test_c03_alternating_families_and_their_bounds():
    def check():
        for ell in (1, 2, 3):
            m = 2 * ell + 1
            parities = tuple((0, 1) * ell + (0,))
            t = table(parities)
            for p in range(1, 13):
                if p % 2 == 1:
                    assert t.mu[p - 1] == 0
                else:
                    assert t.mu[p - 1] == -comb(p // 2 + ell - 1, p // 2)
            rep = solution_bounds(ParityConfig(n=7, parities=parities, N=12))
            assert rep.case_label == "IndexOne" and rep.ell == ell
            for row in rep.rows:
                want = comb(row.p // 2 + ell - 1, row.p // 2) if row.p % 2 == 0 else 0
                assert row.lower_bound == want
            assert rep.total_bound == comb(ell + 6, ell) - 1

    _report(3, "alternating-family counts and level bounds, exact", check)


def test_c04_alternating_sum_identity_over_the_full_sweep():
    def check():
        checked = 0
        for m in range(2, 9):
            for parities in all_parity_patterns(m):
                t = table(parities)
                assert euler_poincare_check(t)
                checked += 1
        assert checked == 254  # sum of 2^{m-1} for m = 2..8

    _report(4, "alternating-sum identity on all 254 parity patterns", check)


def test_c05_nonvanishing_counts_whenever_the_invariant_is_not_one():
    def check():
        for m in range(2, 9):
            for parities in all_parity_patterns(m):
                cfg = ParityConfig(n=7, parities=parities, N=12)
                if index_K(cfg) == 1:
                    continue
                t = mu_recurrence(cfg)
                assert all(mu != 0 for mu in t.mu)
                rep = solution_bounds(cfg)
                for row in rep.rows:
                    assert row.lower_bound <= abs(t.mu[row.p - 1])
                if rep.case_label in ("Case3", "Case4"):
                    assert abs(t.mu[0]) == m - 2 * rep.ell - 1

    _report(5, "nonvanishing mu and case bounds when the invariant is not 1", check)


def test_c06_sobolev_constant_and_bubble_normalization():
    def check():
        # independent radial route, written out from the profile itself:
        # S_n = |S^{n-1}| int_0^pi (c0 lam^{(n-2)/2}
        #       (lam^2(1-cos t)+(1+cos t))^{-(n-2)/2})^q sin^{n-1} t dt
        lam = 5.0
        for n in range(3, 8):
            q = 2.0 * n / (n - 2.0)
            half = 0.5 * (n - 2.0)

            def power(c, n=n, q=q, half=half):
                prof = c0(n) * lam**half * (lam**2 * (1.0 - c) + (1.0 + c)) ** -half
                return prof**q

            got, _ = integrate_radial(power, n, features=((0.0, 1.0 / lam),))
            assert abs(got - sobolev_constant(n)) / sobolev_constant(n) < 1e-8
        rng = np.random.default_rng(20260819)
        for _ in range(20):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            scale = float(np.exp(rng.uniform(0.0, math.log(50.0))))
            u = BubbleSum(
                n=3, bubbles=(Bubble(center=tuple(a), lam=scale),), alphas=(1.0,)
            )
            got, _ = weighted_power_integral(u, constant_one(3))
            assert abs(got - sobolev_constant(3)) / sobolev_constant(3) < 1e-6

    _report(6, "Sobolev constant via radial quadrature and 20 random bubbles", check)


def test_c07_energy_quantization_of_bubble_towers():
    def check():
        s3 = sobolev_constant(3)
        one = functional_J(
            BubbleSum(n=3, bubbles=(Bubble(center=(0, 0, 0, 1.0), lam=7.0),), alphas=(1.0,)),
            constant_one(3),
        )
        assert abs(one - s3 ** (2.0 / 3.0)) / s3 ** (2.0 / 3.0) < 1e-5

        target2 = (2.0 * s3) ** (2.0 / 3.0)

        def pair(lam):
            return BubbleSum(
                n=3,
                bubbles=(
                    Bubble(center=(0, 0, 0, 1.0), lam=lam),
                    Bubble(center=(0, 0, 0, -1.0), lam=lam),
                ),
                alphas=(1.0, 1.0),
            )

        def pair_dev(lam):
            return abs(functional_J(pair(lam), constant_one(3)) - target2) / target2

        devs = {lam: pair_dev(lam) for lam in (10.0, 30.0, 50.0, 100.0, 200.0, 400.0)}
        assert devs[10.0] > devs[30.0] > devs[50.0] > devs[100.0]

        # Rate of approach to the two-bubble level (Bahri-Coron expansion).
        # Projecting stereographically from the south pole, the antipodal
        # pair becomes two concentric flat bubbles of scales lam and 1/lam,
        # so eps_12 = (lam^2 + lam^-2)^{-1/2} ~ 1/lam.  With x = 1/lam and
        # S3 = 3^{3/2} pi^2/4, the interaction integrals are
        #   A = <B1,B2>/S3   = c3 x (1 + O(x^4 log lam)),  c3 = 16/(3 pi),
        #   int B1^4 B2^2/S3 = 4 x^2/(1 + x^2)^2,
        #   int B1^3 B2^3/S3 = (32/pi) x^3 (ln(2 lam) - 1) (1 + O(x^4 log lam)),
        # where c3 = (4 pi/3)/(pi^2/4) is delta(0) int delta^5 / S3 for the
        # unit flat bubble delta.  Then J/target2 = (1 + A) (1 + 6A + g)^{-1/3}
        # with g = (15 int B1^4 B2^2 + 10 int B1^3 B2^3)/S3, so the deviation
        # is A + g/3 - 6A^2 - (7/3) A g + (88/3) A^3 + ..., that is
        #   lam dev - c3 = k2/lam + k3/lam^2 + k4/lam^3 + k5/lam^4 + ...
        #   k2 = 20 - 6 c3^2 ~ 2.708 (positive),
        #   k3 = L - 140 c3 + (88/3) c3^3 = L - 94.15,
        #        L = (320/(3 pi)) (ln(2 lam) - 1)  (the log term),
        #   k4 = 686.4 - 403.5 (ln(2 lam) - 1),  k5 ~ 1981 (ln(2 lam) - 1) - 1890.
        # For lam >= 50, |k4|/lam <= 15.4 and |k5|/lam^2 <= 2.1 (both peak at
        # lam = 50), and later terms add less than 1, so the terms after
        # L/lam^2 sum to at most R/lam^2 with R = 150 >= 94.2 + 15.4 + 2.1,
        # hence
        #   |lam dev - c3| <= K/lam,  K = k2 + (L + R)/lam,
        # and the second-order correction stays positive:
        #   lam dev - c3 >= (k2 + (L - R)/lam)/lam.
        # A 30-digit mpmath evaluation of the flat integrals matches J to
        # 4e-14 relative over lam in [10, 400]; dev < 1% from lam ~ 175 on.
        c3 = 16.0 / (3.0 * math.pi)
        for lam in (50.0, 100.0):
            pair_energy = 0.5 * (norm_squared(pair(lam))[0] - 2.0 * s3)
            assert lam * pair_energy / s3 == pytest.approx(c3, rel=1e-4)
        k2 = 20.0 - 6.0 * c3**2
        R = 150.0
        for lam in (50.0, 100.0, 200.0, 400.0):
            L = 320.0 / (3.0 * math.pi) * (math.log(2.0 * lam) - 1.0)
            K = k2 + (L + R) / lam
            tail = lam * devs[lam] - c3
            assert abs(tail) <= K / lam, (
                f"scale {lam:g}: scale*deviation - 16/(3 pi) = {tail:.5f} "
                f"exceeds K/scale = {K / lam:.5f}"
            )
            assert tail >= (k2 + (L - R) / lam) / lam
        assert devs[200.0] < 0.01, (
            f"antipodal pair at scale 200 deviates {devs[200.0]:.4f} from the "
            f"two-bubble level; the derived leading term is 16/(3 pi 200) = 0.0085"
        )

    _report(
        7,
        "bubble-tower energy quantization: pair tail 16/(3 pi scale), "
        "1% window at scale 200",
        check,
    )


def test_c08_energy_conversion_is_exact_in_closed_form():
    def check():
        s = sympy.symbols("s", positive=True)
        expr = (s ** sympy.Rational(2, 3)) ** sympy.Rational(3, 2) / 3 - s / 3
        assert sympy.simplify(expr) == 0
        for dim in range(3, 8):
            sn = sobolev_constant(dim)
            got = I_from_J(sn ** (2.0 / dim), dim)
            assert got == pytest.approx(sn / dim, rel=1e-12)

    _report(8, "level conversion j -> j^{n/2}/n lands on S_n/n", check)


def test_c09_flows_pin_every_admissible_point_with_the_right_index():
    def check():
        K = load_preset("three-bump-s3")
        tau = 0.05
        targets = k_infinity_points(find_critical_points(K))
        assert len(targets) == 4
        for pt in targets:
            t0 = time.perf_counter()
            center = np.asarray(pt.location)
            iota = 3 - pt.morse_index_K
            lam_bar = equilibrium_scale(K, center, tau)
            assert lam_bar is not None
            seed = BubbleSum(
                n=3,
                bubbles=(Bubble(center=tuple(center), lam=lam_bar),),
                alphas=(1.0,),
                tau=tau,
            )
            final, rep = flow_to_critical(seed, K)
            est = reduced_morse_index(final, K)
            held = rep.morse_index()
            elapsed = time.perf_counter() - t0
            assert rep.status == "converged"
            assert geodesic_distance(np.asarray(final.bubbles[0].center), center) < 0.05
            assert est.index == iota
            assert est.indeterminate == 0
            assert (held.index, held.indeterminate) == (est.index, est.indeterminate)
            assert elapsed < 300.0

    _report(9, "flows pin all four admissible points; index matches co-index", check)


def test_c10_oscillation_threshold_against_high_precision():
    def check():
        with mpmath.workdps(60):
            expo = mpmath.mpf(2) / (7 - 2)
            want = float(
                (mpmath.mpf(4) / 3) ** expo
                * ((1 - mpmath.mpf("0.1")) / (1 + mpmath.mpf("0.1"))) ** expo
                - 1
            )
        got = admissible_epsilon(3, 0.1, 7)
        assert abs(got - want) < 1e-12
        with pytest.raises(ValueError):
            admissible_epsilon(3, 1.0 / 7.0, 7)  # eta at the window edge
        admissible_epsilon(3, 1.0 / 7.0 - 1e-9, 7)  # just inside: accepted

    _report(10, "oscillation threshold to 1e-12 with window precondition", check)
