"""Quadrature machinery vs exact sphere moments and high-precision oracles."""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from morsecount.quadrature import (
    QuadratureScheme,
    _doubled,
    _gl_rule,
    _rule_pair,
    integrate_radial,
    panel_breakpoints,
)
from morsecount.sphere import sphere_area, unit
from oracles import MixtureComponent, integrate_two_point_s3, mc_integrate, uniform_component


# ---- scheme plumbing ----


def test_scheme_validation():
    QuadratureScheme()  # defaults are valid
    with pytest.raises(ValueError):
        QuadratureScheme(nodes=8)
    with pytest.raises(ValueError):
        QuadratureScheme(kind="cubature")
    with pytest.raises(ValueError):
        QuadratureScheme(samples=4)
    with pytest.raises(ValueError):
        QuadratureScheme(tol=0.0)


@pytest.mark.parametrize(
    "field, value", [("nodes", 20.5), ("samples", 20_000.5), ("seed", 1.5), ("nodes", 64.0), ("seed", "7")]
)
def test_scheme_rejects_non_integral_counts(field, value):
    """A count that is not an integer fails where it is given, not later
    inside ``leggauss`` or a slice."""
    with pytest.raises(ValueError, match=field):
        QuadratureScheme(kind="monte-carlo", **{field: value})


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_scheme_refuses_a_negative_seed(seed):
    """numpy's generators take only seeds >= 0; a negative one fails where it
    is given, not deep inside the first Monte Carlo draw."""
    with pytest.raises(ValueError, match="seed"):
        QuadratureScheme(kind="monte-carlo", seed=seed)
    QuadratureScheme(kind="monte-carlo", seed=0)


def test_scheme_keeps_integer_counts_as_python_ints():
    s = QuadratureScheme(nodes=np.int64(32), samples=np.int32(4096), seed=np.uint8(7))
    assert s == QuadratureScheme(nodes=32, samples=4096, seed=7)
    assert all(type(getattr(s, f)) is int for f in ("nodes", "samples", "seed"))


def test_scheme_records_the_fields_its_kind_reads():
    assert QuadratureScheme(nodes=32, samples=4096, seed=7, tol=1e-4).to_dict() == {
        "kind": "radial-1d", "nodes": 32, "tol": 1e-4,
    }
    s = QuadratureScheme(kind="monte-carlo", nodes=32, samples=4096, seed=7, tol=1e-4)
    assert s.to_dict() == {
        "kind": "monte-carlo", "nodes": 32, "samples": 4096, "seed": 7, "tol": 1e-4,
    }


def test_panel_breakpoints_shape():
    br = panel_breakpoints(0.0, math.pi, features=((0.0, 0.01), (math.pi, 0.05)))
    assert br[0] == 0.0 and br[-1] == math.pi
    assert np.all(np.diff(br) > 0)
    # non-positive scales are ignored
    assert len(panel_breakpoints(0.0, 1.0, features=((0.5, 0.0),))) == 2


# ---- exact moments on the n-sphere ----


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_radial_volume_and_even_moments(n):
    area = sphere_area(n)
    val, err = integrate_radial(lambda u: np.ones_like(u), n, nodes=32)
    assert val == pytest.approx(area, rel=1e-12)
    # coordinate moments in d = n + 1 ambient dimensions: E[u^2] = 1/d,
    # E[u^4] = 3/(d(d+2))
    val2, _ = integrate_radial(lambda u: u * u, n, nodes=32)
    assert val2 == pytest.approx(area / (n + 1), rel=1e-12)
    val4, _ = integrate_radial(lambda u: u**4, n, nodes=32)
    assert val4 == pytest.approx(3 * area / ((n + 1) * (n + 3)), rel=1e-12)


def test_radial_sharp_peak_against_mpmath():
    # integrand concentrated at the pole on a colatitude scale s
    s = 0.02
    val, err = integrate_radial(
        lambda u: np.exp(-(1.0 - u) / s**2),
        3,
        nodes=48,
        features=((0.0, s),),
    )
    with mpmath.workdps(40):
        oracle = sphere_area(2) * mpmath.quad(
            lambda t: mpmath.e ** (-(1 - mpmath.cos(t)) / s**2) * mpmath.sin(t) ** 2,
            [0, 30 * s, mpmath.pi],
        )
    assert val == pytest.approx(float(oracle), rel=1e-10)
    assert err < 1e-9 * abs(val)


def test_radial_columns_come_back_as_arrays():
    """Several columns share the panels; each column's value and error match
    its own one-column integral."""
    peak = lambda u: np.exp(-(1.0 - u) / 0.05**2)
    cols = lambda u: np.vstack([np.ones_like(u), u * u, peak(u)])
    features = ((0.0, 0.05),)
    vals, errs = integrate_radial(cols, 3, nodes=32, features=features)
    assert isinstance(vals, np.ndarray) and vals.shape == errs.shape == (3,)
    for k, f in enumerate((np.ones_like, lambda u: u * u, peak)):
        val, err = integrate_radial(f, 3, nodes=32, features=features)
        assert vals[k] == pytest.approx(val, rel=1e-14)
        assert errs[k] == pytest.approx(err, abs=1e-14 * abs(val))


def test_radial_weighting_in_place_is_bit_identical():
    """F's fresh array is weighted in place, to the bit of the product into a
    new array; a scalar F is still broadcast over the points."""
    cols = lambda u: np.vstack([np.ones_like(u), u * u, np.exp(-(1.0 - u) / 0.05**2)])
    features = ((0.0, 0.05),)
    breaks = panel_breakpoints(0.0, np.pi, features)
    for F in (cols, lambda u: np.exp(u), lambda u: 2.5):
        g = lambda t: np.asarray(F(np.cos(t)), dtype=float) * np.sin(t) ** 2
        fine, coarse = _doubled(g, breaks, 32)
        val, e = integrate_radial(F, 3, nodes=32, features=features)
        assert np.array_equal(val, sphere_area(2) * fine)
        assert np.array_equal(e, sphere_area(2) * abs(fine - coarse))


@pytest.mark.parametrize("kwargs, rules", [({}, (64, 32)), ({"nodes": 17}, (17, 8))])
def test_radial_rule_takes_nodes_and_half_nodes_points_per_panel(kwargs, rules):
    """One integral evaluates its integrand once, on the nodes-point rule
    (the value) and the nodes // 2 one (the error) and no other: (64 + 32)
    points per panel at the default, the 17- and 8-point rules at nodes = 17."""
    features = ((0.0, 0.05), (1.0, 0.3))
    panels = len(panel_breakpoints(0.0, np.pi, features)) - 1
    sizes = []

    def F(u):
        sizes.append(u.size)
        return np.exp(u)

    integrate_radial(F, 3, features=features, **kwargs)
    assert sizes == [sum(rules) * panels]


@pytest.mark.parametrize("nodes", [0, 1, -64, 2.5, "64", None])
def test_radial_rule_refuses_a_bad_node_count(nodes):
    """The error rule takes nodes // 2 >= 1 points, so nodes is an integer
    of at least 2, refused by its own name."""
    with pytest.raises(ValueError, match="nodes"):
        integrate_radial(np.exp, 3, nodes=nodes)


def test_radial_rule_takes_integer_node_counts_of_any_type():
    assert integrate_radial(np.exp, 3, nodes=np.int64(32)) == integrate_radial(np.exp, 3, nodes=32)
    val, err = integrate_radial(np.ones_like, 1, nodes=2)  # 2 and 1 points are exact here
    assert val == pytest.approx(sphere_area(1), rel=1e-15) and err < 1e-15 * val


def test_cached_rules_are_read_only():
    """Every integral in the process shares the cached rules; a write into
    one would corrupt all later integrals, so it raises instead."""
    x, w = _gl_rule(64)
    for a in (x, w, *_rule_pair(64)):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


# ---- two-direction reduction on the 3-sphere ----


@pytest.mark.parametrize("gamma", [-0.8, -0.3, 0.0, 0.45, 0.9])
def test_two_point_exact_moments(gamma):
    vol = sphere_area(3)
    # integral of u*v: E[uv] = gamma/(n+2) with n+1 = 4 ambient dims
    val, _ = integrate_two_point_s3(
        lambda u: u * u / 2.0, lambda v: v, gamma, nodes=32
    )
    assert val == pytest.approx(vol * gamma / 4.0, rel=1e-11, abs=1e-12)
    # integral of u^2 v^2: E[u^2 v^2] = (1 + 2 gamma^2)/(d(d+2)), d = 4
    val22, _ = integrate_two_point_s3(
        lambda u: u**3 / 3.0, lambda v: v * v, gamma, nodes=32
    )
    assert val22 == pytest.approx(vol * (1 + 2 * gamma**2) / 24.0, rel=1e-11)


def test_two_point_factor_order_is_immaterial():
    gamma = 0.37
    a, _ = integrate_two_point_s3(
        lambda u: u**3 / 3.0, lambda v: v**4, gamma, nodes=48
    )
    b, _ = integrate_two_point_s3(
        lambda u: u**5 / 5.0, lambda v: v**2, gamma, nodes=48
    )
    assert a == pytest.approx(b, rel=1e-11)


def test_two_point_peaked_factor_against_mpmath():
    # sharply dilated factor of the kind the pair integrals produce
    lam, lam2, gamma = 25.0, 3.0, 0.3
    B, C = 1.0 + lam**2, lam**2 - 1.0
    B2, C2 = 1.0 + lam2**2, lam2**2 - 1.0

    def primitive(u):
        return (2.0 / (3.0 * C)) * (B - C * u) ** (-1.5)

    def weight(v):
        return (B2 - C2 * v) ** (-0.5)

    val, err = integrate_two_point_s3(
        primitive,
        weight,
        gamma,
        nodes=64,
        features=((gamma, math.sqrt(1 - gamma**2) / lam), (1.0, 1.0 / lam2**2)),
    )
    assert err <= 1e-8 * abs(val)
    with mpmath.workdps(40):
        s2 = 1 - mpmath.mpf(gamma) ** 2

        def outer(v):
            half = mpmath.sqrt(s2 * (1 - v**2))
            hi, lo = gamma * v + half, gamma * v - half
            prim = lambda u: (2 / (3 * C)) * (B - C * u) ** mpmath.mpf(-1.5)
            return (B2 - C2 * v) ** mpmath.mpf(-0.5) * (prim(hi) - prim(lo))

        oracle = 2 * mpmath.pi / mpmath.sqrt(s2) * mpmath.quad(
            outer, [-1, gamma - 0.1, gamma, gamma + 0.1, 1]
        )
    assert val == pytest.approx(float(oracle), rel=1e-9)


def test_two_point_rejects_parallel_directions():
    with pytest.raises(ValueError):
        integrate_two_point_s3(lambda u: u, lambda v: v, 1.0)


# ---- mixture Monte Carlo (the oracle route of tests/oracles.py) ----


def test_mc_uniform_constant_is_exact():
    val, err = mc_integrate(
        lambda x: np.ones(x.shape[0]),
        [uniform_component(3)],
        samples=1000,
        seed=0,
    )
    assert val == pytest.approx(sphere_area(3), rel=1e-12)
    assert err == pytest.approx(0.0, abs=1e-10)


def test_mc_mixture_against_deterministic_route():
    e = np.array([0.0, 0.0, 0.0, 1.0])
    truth, _ = integrate_radial(lambda u: np.exp(u), 3, nodes=48)

    def cap_sample(rng, m):
        x = unit(rng.standard_normal((m, 4)))
        x[x @ e < 0] *= -1.0
        return x

    def cap_density(x):
        up = (x @ e) >= 0
        return np.where(up, 2.0 / sphere_area(3), 0.0)

    cap = MixtureComponent(weight=0.5, sample=cap_sample, density=cap_density)
    val, err = mc_integrate(
        lambda x: np.exp(x @ e),
        [uniform_component(3, weight=0.5), cap],
        samples=40_000,
        seed=11,
    )
    assert abs(val - truth) < max(6 * err, 3e-3 * truth)
    assert err < 0.02 * truth


def test_mc_is_seed_deterministic():
    comp = [uniform_component(2)]
    f = lambda x: 1.0 + x[:, 0] ** 2
    a = mc_integrate(f, comp, samples=2000, seed=42)
    b = mc_integrate(f, comp, samples=2000, seed=42)
    c = mc_integrate(f, comp, samples=2000, seed=43)
    assert a == b
    assert a != c


def test_mc_requires_components():
    with pytest.raises(ValueError):
        mc_integrate(lambda x: x[:, 0], [], samples=100, seed=0)
