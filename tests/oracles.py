"""Independent routes that the tests check the library against.

None is used by ``morsecount`` itself:

- ``eval_bubble`` and ``eval_bubble_sum``: pointwise values of a bubble and
  of a bubble sum at unit points, for the Monte Carlo integrands below.
- ``integrate_two_point_s3``: the two-direction reduction on the 3-sphere,
  which integrates G(<x,a>) H(<x,b>) through the flat joint law of the two
  linear coordinates; ``two_point_pair_energy`` applies it to a pair energy.
- ``aligned_pair_energy``: a pair energy of (anti)parallel bubbles as one
  colatitude integral of both profiles along their axis in any dimension,
  the route ``norm_squared`` took for such pairs before every pair went
  through its Lorentz invariant.
- ``mc_integrate``: generic deterministic-mixture importance sampling over
  ``MixtureComponent`` proposals (``uniform_component``, and
  ``bubble_component``, a bubble's exact sampler with its density), the
  reference for ``bubbles``' one-pass Monte Carlo weighted integral;
  ``mc_weighted_integral`` applies it to int K|u|^q dV and
  ``mc_pair_energy`` to a pair energy.
- ``one_pass_mc_weighted_integral``: ``bubbles``' Monte Carlo weighted
  integral as it was before it streamed its points in blocks, every point
  drawn and weighed in one pass; the blocked kernel must equal it bit for
  bit.
- ``panel_quadrature`` and ``two_call_doubled``: the panelled
  Gauss-Legendre rule pair as it was before one integrand call took both
  rules' points, the integrand called once per rule; ``quadrature._doubled``
  must equal it bit for bit.
- ``level_bound_rows``: solution-bound rows built one frozen dataclass and
  one ``Fraction(p, n)`` per level, the reference for ``solution_bounds``'
  shared level energies and tuple rows.
- ``per_pattern_solution_bounds``: ``indexcount.solution_bounds`` as it was
  before it read its case's bounds, rows and total from one cache entry per
  class (a, b, N): every pattern classified, its bound list and total taken
  and its rows built anew.  The class route must give equal reports.
- ``bucketed_mu_direct``: ``indexcount.mu_direct`` as it was before it
  filled its buckets one minimum rank at a time and summed each level as dot
  products: every subset keyed by its lowest set bit, and one signed term per
  (level, rank, size).  The direct route must give equal tables.
- ``one_stage_derivs``: ``kfunc._derivs`` as it was before it ran as two
  stages, gradients first and then Hessians from their bump factors; both
  stages together must equal it bit for bit.
- ``slogdet_first_newton_batch``: ``kfunc._newton_batch`` as it was before
  it tried one stacked solve first and kept only its moving rows, with one
  batched ``slogdet`` every iteration to set the exactly singular rows on
  the gradient step, every live row factored and solved, and its
  derivatives from ``one_stage_derivs``; the search must return the same
  points bit for bit.
- ``scan_every_point_distinct``: ``kfunc._distinct`` as it was before it
  sorted the rows by their projection on one axis, with one matrix-vector
  scan per kept point; the kept rows must be the same.
- ``scipy_quasi_uniform_points``: quasi-uniform points on S^n from
  ``scipy.stats``' unscrambled ``qmc.Sobol`` and ``norm.ppf``, the route
  ``sphere.quasi_uniform_points`` took before it drew its Sobol points from
  its own direction-number table and its own port of Cephes' ``ndtri``.
- ``_fd_gradient`` and ``_fd_hessian``: central finite differences of J in
  a bubble chart, the route ``bubbles`` took for chart derivatives beside
  the exact one until that kernel became its only route; the exact
  gradient and Hessian must sit inside their Richardson-estimated bounds.
"""
from __future__ import annotations

import math
import warnings
from math import comb
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from morsecount.bubbles import (
    _UNIFORM_SHARE,
    Bubble,
    BubbleChart,
    BubbleSum,
    JEvaluation,
    QuadratureNoiseWarning,
    _allocate,
    _axis_signs,
    _canonical_sum,
    _dilate,
    _profile,
    _split_half,
    _theta_scale,
    c0,
    canonical_bubble,
    functional_J_detailed,
    sobolev_constant,
)
from morsecount import indexcount
from morsecount.indexcount import (
    ConsistencyError,
    H3Warning,
    IndexTable,
    LevelBound,
    ParityConfig,
    SolutionBoundReport,
    _level_energies,
    classify_case,
    index_K,
)
from morsecount import kfunc
from morsecount.kfunc import KFunction, eval_K
from morsecount.quadrature import QuadratureScheme, _doubled, _gl_rule, integrate_radial, panel_breakpoints
from morsecount.sphere import sphere_area, unit


def integrate_two_point_s3(
    primitive_u: Callable[[np.ndarray], np.ndarray],
    weight_v: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    *,
    nodes: int = 64,
    features: Sequence[tuple[float, float]] = (),
) -> tuple[float, float]:
    """Integral over the 3-sphere of G(u) H(v), u = <x,a>, v = <x,b>.

    The pushforward of the volume to (u, v) is the constant
    2*pi/sqrt(1-gamma^2) on the region u^2 - 2*gamma*u*v + v^2 <= 1-gamma^2
    (gamma = <a,b>), so with an antiderivative of G in hand only the outer
    v-integral needs quadrature:

        integral = 2*pi/sqrt(1-g^2) * int_{-1}^{1} H(v) [Gprim(u+) - Gprim(u-)] dv,
        u+-(v) = gamma*v +- sqrt((1-gamma^2)(1-v^2)).

    ``features`` are (v-location, scale) pairs for panel refinement.
    """
    if abs(gamma) >= 1.0 - 1e-9:
        raise ValueError(
            "directions are (anti)parallel; use the axisymmetric reduction"
        )
    s2 = 1.0 - gamma * gamma
    root_s2 = np.sqrt(s2)

    # substitute v = cos(phi): the square-root half-width becomes
    # sqrt(1-g^2)*sin(phi), analytic in phi, so the panels converge
    # geometrically instead of stalling on the endpoint singularity
    def outer(phi):
        v = np.cos(phi)
        sin_phi = np.sin(phi)
        halfwidth = root_s2 * sin_phi
        hi = gamma * v + halfwidth
        lo = gamma * v - halfwidth
        band = np.asarray(primitive_u(hi), dtype=float) - np.asarray(
            primitive_u(lo), dtype=float
        )
        return np.asarray(weight_v(v), dtype=float) * band * sin_phi

    phi_features = []
    for loc, scale in features:
        if not np.isfinite(scale) or scale <= 0:
            continue
        phi0 = float(np.arccos(np.clip(loc, -1.0, 1.0)))
        phi_scale = scale / np.sqrt(scale + np.sin(phi0) ** 2)
        phi_features.append((phi0, phi_scale))
    breaks = panel_breakpoints(0.0, np.pi, phi_features)
    fine, coarse = _doubled(outer, breaks, nodes)
    factor = 2.0 * np.pi / root_s2
    return factor * fine, factor * abs(fine - coarse)


def panel_quadrature(
    f: Callable[[np.ndarray], np.ndarray], breaks: np.ndarray, nodes: int
) -> float | np.ndarray:
    """Sum of `nodes`-point Gauss-Legendre rules over consecutive panels; an
    integrand with several columns (shape (columns, points)) gets one each."""
    x, w = _gl_rule(nodes)
    lo, hi = breaks[:-1], breaks[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float)
    total = np.sum(half * (vals.reshape(vals.shape[:-1] + pts.shape) @ w), axis=-1)
    return float(total) if total.ndim == 0 else total


def two_call_doubled(f, breaks, nodes):
    """(fine, coarse) at nodes and nodes // 2 points per panel: the value and
    the rule whose change from it is the error estimate."""
    return panel_quadrature(f, breaks, nodes), panel_quadrature(f, breaks, nodes // 2)


def eval_bubble(b: Bubble, x: np.ndarray, n: int):
    """Pointwise bubble value; ``x`` is one unit vector or a batch of rows."""
    return _profile(b.lam, np.einsum("...i,i->...", np.asarray(x, dtype=float), b.center), n)


def eval_bubble_sum(u: BubbleSum, x: np.ndarray):
    return sum(a * eval_bubble(b, x, u.n) for a, b in zip(u.alphas, u.bubbles))


def power_primitive(lam: float, power: float, n: int) -> Callable:
    """Antiderivative in u = cos(distance) of _profile(lam, u, n)**power.

    Needs beta = power*(n-2)/2 != 1; pair energies use power (n+2)/(n-2),
    so beta = (n+2)/2 >= 5/2.
    """
    amp = (c0(n) * lam ** ((n - 2) / 2.0)) ** power
    beta = power * (n - 2) / 2.0
    B = 1.0 + lam * lam
    C = lam * lam - 1.0
    if abs(C) < 1e-12:
        const = amp * 2.0 ** (-beta)
        return lambda u: const * np.asarray(u, dtype=float)
    scale = amp / ((beta - 1.0) * C)
    return lambda u: scale * (B - C * np.asarray(u, dtype=float)) ** (1.0 - beta)


def cos_scale(lam: float) -> float:
    # width of the peak measured in the cosine variable
    return min(0.5, 2.0 / max(lam * lam - 1.0, 4.0))


def _outer_inner(bi: Bubble, bj: Bubble) -> tuple[Bubble, Bubble]:
    """Both bubbles at scale >= 1; the more concentrated one (which carries
    the high power) second."""
    bi, bj = canonical_bubble(bi), canonical_bubble(bj)
    return (bi, bj) if bj.lam >= bi.lam else (bj, bi)


def two_point_pair_energy(bi: Bubble, bj: Bubble, nodes: int = 64) -> tuple[float, float]:
    """<B_i, B_j> on the 3-sphere for centers that are not (anti)parallel: the
    high power's closed-form antiderivative makes the inner integral exact."""
    n = 3
    outer, inner = _outer_inner(bi, bj)
    gamma = float(np.dot(inner.center, outer.center))
    primitive = power_primitive(inner.lam, (n + 2.0) / (n - 2.0), n)
    weight_v = lambda v: _profile(outer.lam, v, n)
    features = [
        (gamma, math.sqrt(max(1.0 - gamma * gamma, 1e-12)) / max(inner.lam, 1.0)),
        (1.0, cos_scale(outer.lam)),
    ]
    return integrate_two_point_s3(primitive, weight_v, gamma, nodes=nodes, features=features)


def aligned_pair_energy(bi: Bubble, bj: Bubble, n: int, nodes: int = 64) -> tuple[float, float]:
    """<B_i, B_j> for (anti)parallel centers in any dimension: one colatitude
    integral of both profiles along the common axis, the high power on the
    more concentrated one."""
    power = (n + 2.0) / (n - 2.0)
    outer, inner = _outer_inner(bi, bj)
    _, (s_out, s_in) = _axis_signs([np.asarray(outer.center), np.asarray(inner.center)])
    F = lambda t: _profile(outer.lam, s_out * t, n) * _profile(
        inner.lam, s_in * t, n
    ) ** power
    features = [
        (0.0 if s_out > 0 else math.pi, _theta_scale(outer.lam)),
        (0.0 if s_in > 0 else math.pi, _theta_scale(inner.lam)),
    ]
    return integrate_radial(F, n, nodes=nodes, features=features)


# --------------------------------------------------------------------------
# generic mixture Monte Carlo
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureComponent:
    """One proposal in a deterministic mixture.

    ``sample(rng, m)`` draws m points (rows); ``density(points)`` is its
    probability density with respect to the sphere volume measure.
    """

    weight: float
    sample: Callable[[np.random.Generator, int], np.ndarray]
    density: Callable[[np.ndarray], np.ndarray]


def uniform_component(n: int, weight: float = 1.0) -> MixtureComponent:
    """Uniform proposal on the n-sphere."""
    inv_area = 1.0 / sphere_area(n)

    def sample(rng: np.random.Generator, m: int) -> np.ndarray:
        return unit(rng.standard_normal((m, n + 1)))

    def density(x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x).shape[0], inv_area)

    return MixtureComponent(weight=weight, sample=sample, density=density)


def bubble_component(b: Bubble, n: int, weight: float = 1.0) -> MixtureComponent:
    """Proposal with density B^{2n/(n-2)}/S_n, sampled exactly.

    The conformal dilation toward the center, tan(t'/2) = tan(t/2)/lam in
    colatitude, pushes the uniform measure exactly onto the normalized
    bubble-power density, so single-bubble integrands get constant weights.
    In half-angle form, with c = <x,a> and D = lam^2(1+c) + (1-c), it maps x
    to k*x + (cos t' - k*c)*a, k = 2*lam/D, cos t' = (lam^2(1+c) - (1-c))/D:
    a rational map that needs no tangent frame, because D >= min(2, 2*lam^2)
    keeps it regular at x = +-a, where it fixes both poles.
    """
    b = canonical_bubble(b)
    a = np.asarray(b.center, dtype=float)
    lam = float(b.lam)
    s_n = sobolev_constant(n)
    q_crit = 2.0 * n / (n - 2.0)

    def sample(rng: np.random.Generator, m: int) -> np.ndarray:
        x = unit(rng.standard_normal((m, n + 1)))
        c = np.einsum("bi,i->b", x, a)
        near, far = lam * lam * (1.0 + c), 1.0 - c
        D = near + far
        k = 2.0 * lam / D
        return k[:, None] * x + ((near - far) / D - k * c)[:, None] * a

    def density(x: np.ndarray) -> np.ndarray:
        return _profile(lam, np.einsum("bi,i->b", x, a), n) ** q_crit / s_n

    return MixtureComponent(weight=weight, sample=sample, density=density)


def mc_integrate(
    F: Callable[[np.ndarray], np.ndarray],
    components: Sequence[MixtureComponent],
    *,
    samples: int = 20_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Deterministic-mixture importance sampling of integral F dV.

    Draws a fixed quota from each proposal (largest-remainder split of the
    budget by weight) and evaluates the balance-heuristic estimator

        I_hat = sum_i F(x_i) / sum_j M_j q_j(x_i),

    which is unbiased for any component weights.  The reported error is the
    half-difference of the interleaved split-half estimates.  Everything is
    reproducible from ``seed``: fixed quotas, one stream, fixed reduction
    order.
    """
    if not components:
        raise ValueError("at least one mixture component is required")
    weights = np.asarray([c.weight for c in components], dtype=float)
    if np.any(weights <= 0):
        raise ValueError("component weights must be positive")
    counts = _allocate(weights, samples)
    rng = np.random.default_rng(seed)
    blocks = [c.sample(rng, m) for c, m in zip(components, counts)]
    points = np.concatenate(blocks, axis=0)
    mix_density = np.zeros(points.shape[0])
    for c, m in zip(components, counts):
        mix_density += m * np.asarray(c.density(points), dtype=float)
    terms = np.asarray(F(points), dtype=float) / mix_density
    value = float(np.sum(terms))
    # interleaved halves: each proposal block contributes equally to both
    half_a = 0.0
    half_b = 0.0
    start = 0
    for m in counts:
        block = terms[start : start + m]
        half_a += 2.0 * float(np.sum(block[0::2]))
        half_b += 2.0 * float(np.sum(block[1::2]))
        start += m
    return value, 0.5 * abs(half_a - half_b)


def mc_pair_energy(
    bi: Bubble, bj: Bubble, n: int, *, samples: int, seed: int
) -> tuple[float, float]:
    """<B_i, B_j> by mixture importance sampling: a uniform proposal (weight
    0.2) and each bubble's exact sampler (0.4 each)."""
    outer, inner = _outer_inner(bi, bj)
    power = (n + 2.0) / (n - 2.0)
    comps = [
        uniform_component(n, weight=0.2),
        bubble_component(outer, n, weight=0.4),
        bubble_component(inner, n, weight=0.4),
    ]
    return mc_integrate(
        lambda x: eval_bubble(outer, x, n) * eval_bubble(inner, x, n) ** power,
        comps,
        samples=samples,
        seed=seed,
    )


def mc_weighted_integral(
    u: BubbleSum, K: KFunction, *, samples: int, seed: int
) -> tuple[float, float]:
    """int K|u|^q dV, q = 2n/(n-2) - tau, by mixture importance sampling: a
    uniform proposal (weight 0.2) and each bubble's exact sampler (0.8/p
    each), the quotas and stream of ``weighted_power_integral``."""
    u = _canonical_sum(u)
    q = 2.0 * u.n / (u.n - 2.0) - u.tau
    comps = [uniform_component(u.n, weight=0.2)]
    for b in u.bubbles:
        comps.append(bubble_component(b, u.n, weight=0.8 / u.p))
    F = lambda x: eval_K(K, x) * np.abs(eval_bubble_sum(u, x)) ** q
    return mc_integrate(F, comps, samples=samples, seed=seed)


def one_pass_mc_weighted_integral(u: BubbleSum, K: KFunction, q: float, samples: int, seed: int):
    """int K|u|^q dV by deterministic-mixture importance sampling, in one
    pass over the points.  ``u`` has every scale >= 1.

    Fixed quotas (largest-remainder split of ``samples``) go to a uniform
    proposal and to each bubble's exact sampler (``_dilate``), all from one
    stream of ``seed``, and the balance-heuristic estimator

        I_hat = sum_i F(x_i) / sum_j M_j q_j(x_i)

    is unbiased for any quotas (Veach & Guibas 1995).  One profile per bubble
    serves both F, through sum alpha_k B_k, and the mixture density, through
    M_k B_k^{2n/(n-2)}/S_n.  Points are held coordinate-major, (n+1, M), so
    every array op runs over all points; products are einsum, never threaded
    BLAS, so a point rounds alike in any batch.
    """
    n, p = u.n, u.p
    counts = _allocate(
        np.array([_UNIFORM_SHARE] + [(1.0 - _UNIFORM_SHARE) / p] * p), samples
    )
    # the same numbers as one draw per proposal block, one row per point
    X = np.random.default_rng(seed).standard_normal((int(counts.sum()), n + 1)).T.copy()
    norm = X[0] * X[0]
    for row in X[1:]:
        norm += row * row
    np.sqrt(norm, out=norm)
    X /= norm
    ends = np.cumsum(counts)
    for b, lo, hi in zip(u.bubbles, ends[:-1], ends[1:]):
        _dilate(X[:, lo:hi], np.asarray(b.center), b.lam)

    cos = np.einsum("ci,im->cm", np.vstack([[b.center for b in u.bubbles], K.centers]), X)
    q_crit = 2.0 * n / (n - 2.0)
    terms = np.zeros(X.shape[1])  # sum alpha_k B_k, then F/mix in place
    mix = np.full(X.shape[1], counts[0] * (1.0 / sphere_area(n)))
    for alpha, b, c, m in zip(u.alphas, u.bubbles, cos, counts[1:]):
        B = _profile(b.lam, c, n)
        terms += alpha * B
        B **= q_crit
        B *= m / sobolev_constant(n)
        mix += B
    bumps = cos[p:]
    bumps -= 1.0
    bumps /= np.array([term.width**2 for term in K.terms])[:, None]
    np.exp(bumps, out=bumps)
    f = np.einsum("tm,t->m", bumps, np.array([term.weight for term in K.terms]))
    np.abs(terms, out=terms)
    terms **= q
    terms *= 1.0 + K.epsilon * f
    terms /= mix
    return _split_half(terms, counts)


@dataclass(frozen=True)
class FrozenLevelBound:
    """A solution-bound row as a frozen dataclass, with its own ``to_dict``."""

    p: int
    energy_multiple: Fraction
    lower_bound: int

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "energy_multiple_of_Sn": str(self.energy_multiple),
            "lower_bound": self.lower_bound,
        }


def level_bound_rows(n: int, bounds: Sequence[int]) -> tuple[FrozenLevelBound, ...]:
    """One row per level p = 1, 2, ..., each with a fresh Fraction(p, n)."""
    return tuple(
        FrozenLevelBound(p=p, energy_multiple=Fraction(p, n), lower_bound=b)
        for p, b in enumerate(bounds, start=1)
    )


def per_pattern_solution_bounds(cfg: ParityConfig) -> SolutionBoundReport:
    """The bound report built for this one pattern, its mu row read through
    ``indexcount._mu_row`` so that a patched row reaches it too."""
    m, N = cfg.m, cfg.N
    mu = indexcount._mu_row(cfg.parities, N)
    levels = range(1, N + 1)
    label, ell = classify_case(cfg)
    if not cfg.satisfies_h3:
        warnings.warn(
            "m = 1: multiplicity theorems need m >= 2; emitting an empty bound report",
            H3Warning,
            stacklevel=2,
        )
        ell, bounds, total = None, [], 0
    elif label == "IndexOne":
        bounds = [comb(p // 2 + ell - 1, p // 2) if p % 2 == 0 else 0 for p in levels]
        total = comb(ell + N // 2, ell) - 1
    elif label in ("Case1", "Case2"):
        bounds = [comb(p + m - 2, p) for p in levels]
        total = comb(N + m - 1, m - 1) - 1
    else:
        bounds = [
            comb(p // 2 + m - ell - 2, p // 2) if p % 2 == 0
            else comb((p + 1) // 2 + m - ell - 3, (p - 1) // 2)
            for p in levels
        ]
        total = sum(bounds)

    for p, bound, mu_p in zip(levels, bounds, mu):
        if bound > abs(mu_p):
            raise ConsistencyError(
                f"level {p}: bound {bound} exceeds |mu| = {abs(mu_p)} "
                f"for parities {cfg.parities}"
            )
    return SolutionBoundReport(
        config=cfg,
        index_K=index_K(cfg),
        case_label=label,
        ell=ell,
        rows=tuple(map(LevelBound, levels, _level_energies(cfg.n, N), bounds)),
        total_bound=total,
        mu=mu,
        h3_satisfied=cfg.satisfies_h3,
        outside_theorem_dimension=cfg.n < 7,
    )


def bucketed_mu_direct(cfg: ParityConfig) -> IndexTable:
    """The direct route's table, each nonempty subset S of {1..m} (bit j for
    rank j+1) counted in a bucket keyed by its minimum rank, |S| and sigma(S)."""
    m, N = cfg.m, cfg.N
    odd_ranks = sum(1 << j for j, b in enumerate(cfg.parities) if b)
    buckets = [[[0, 0] for _ in range(m + 1)] for _ in range(m)]
    for S in range(1, 1 << m):
        low = (S & -S).bit_length() - 1
        buckets[low][S.bit_count()][(S & odd_ranks).bit_count() & 1] += 1

    mu: list[int] = []
    mu_geq = [[0] * N for _ in range(m + 1)]
    mu_geq_at = [[0] * N for _ in range(m)]
    for p in range(1, N + 1):
        for k in range(m, 0, -1):
            at = 0
            for size in range(1, min(p, m - k + 1) + 1):
                even, odd = buckets[k - 1][size]
                term = (-1) ** (p - 1) if size == p else (-1) ** size * mu[p - size - 1]
                at += term * (even - odd)
            mu_geq_at[k - 1][p - 1] = at
            mu_geq[k - 1][p - 1] = mu_geq[k][p - 1] + at
        mu.append((1 if p == 1 else 0) - mu_geq[0][p - 1])
    return IndexTable(
        config=cfg,
        mu=tuple(mu),
        mu_geq=tuple(map(tuple, mu_geq)),
        mu_geq_at=tuple(map(tuple, mu_geq_at)),
    )


def scipy_quasi_uniform_points(n: int, count: int) -> np.ndarray:
    """Low-discrepancy point set on S^n: Sobol in the cube -> Gaussian -> radial projection.

    Deterministic for a given (n, count); used for solver seeding and for
    dense min/max scans.
    """
    from scipy.stats import norm, qmc  # slow and large to load; only sampling needs it

    d = n + 1
    sob = qmc.Sobol(d, scramble=False)
    mexp = max(4, int(math.ceil(math.log2(max(count, 2)))))
    u = sob.random_base2(mexp)[:count]
    # Clip away the cube corners before the inverse CDF blows them up.
    g = norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))
    bad = np.linalg.norm(g, axis=1) < 1e-8
    if np.any(bad):
        g[bad] = norm.ppf(0.5 + 0.1 * (np.arange(d) + 1.0) / d)
    return unit(g)


def one_stage_derivs(K: KFunction, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangential gradients (B, d) and covariant Hessians (B, d, d) of K at a
    stack of unit points X (B, d), in one pass."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = K.centers
    w = np.array([term.weight for term in K.terms])
    s2 = np.array([term.width * term.width for term in K.terms])
    wg = w * np.exp((np.einsum("bi,ti->bt", X, C) - 1.0) / s2)
    amb_grad = np.einsum("bt,ti->bi", wg / s2, C) * K.epsilon
    amb_hess = np.matmul(C.T * (wg / s2**2)[:, None, :], C) * K.epsilon
    radial = np.matmul(amb_grad[:, None, :], X[:, :, None])[:, 0, 0]
    P = np.eye(K.dim) - X[:, :, None] * X[:, None, :]
    return amb_grad - radial[:, None] * X, P @ amb_hess @ P - radial[:, None, None] * P


def slogdet_first_newton_batch(K: KFunction, seeds: np.ndarray) -> np.ndarray:
    """The batched Newton search with a slogdet before every stacked solve."""
    X = seeds.copy()
    alive = np.ones(len(X), dtype=bool)
    gscale = K.epsilon * sum(abs(t.weight) / (t.width * t.width) for t in K.terms)
    tol = max(kfunc.GRAD_NORM_TOL * 0.1, 1e-15 * gscale)
    ref, last = np.full(len(X), np.inf), np.zeros(len(X), dtype=int)
    for it in range(kfunc.NEWTON_ITERS):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        pts = X[idx]
        grads, hess = one_stage_derivs(K, pts)
        gnorm = np.linalg.norm(grads, axis=1)
        halved = gnorm <= 0.5 * ref[idx]
        ref[idx[halved]], last[idx[halved]] = gnorm[halved], it
        done = (gnorm < tol) | (it - last[idx] >= kfunc.STALL_ITERS)
        A = hess + pts[:, :, None] * pts[:, None, :]
        regular = np.linalg.slogdet(A)[0] != 0
        steps = -grads
        steps[regular] = np.linalg.solve(A[regular], steps[regular, :, None])[..., 0]
        nrm = np.linalg.norm(steps, axis=1)
        steps *= np.minimum(1.0, 0.5 / np.maximum(nrm, 1e-300))[:, None]
        steps[done] = 0.0
        X[idx] = unit(pts + steps)
        alive[idx[done]] = False
    return X[np.linalg.norm(one_stage_derivs(K, X)[0], axis=1) < kfunc.GRAD_NORM_TOL]


def scan_every_point_distinct(points: np.ndarray) -> np.ndarray:
    """Greedy first-seen dedup with one scan of the later rows per kept point."""
    keep = np.ones(len(points), dtype=bool)
    for i in range(len(points)):
        if keep[i]:
            x = points[i]
            c = points[i + 1:] @ x
            near = i + 1 + np.flatnonzero(c > 1.0 - 1e-10)
            if len(near):
                rest, c = points[near], np.clip(c[near - i - 1], -1.0, 1.0)
                s = np.linalg.norm(rest - x, axis=1) * np.linalg.norm(rest + x, axis=1)
                keep[near] &= np.arctan2(s / 2.0, c) > 1e-6
    return points[keep]


def _fd_gradient(chart: BubbleChart, K: KFunction, scheme: QuadratureScheme, x,
                 step: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of J at chart point x.

    Warns when the quadrature error estimate is comparable to the observed
    finite-difference variation (the gradient is then dominated by noise and
    more nodes/samples are needed).
    """
    grad = np.zeros(chart.dim)
    noisy = 0
    worst = 0.0
    for i, e_i in enumerate(step * np.eye(chart.dim)):
        jp = functional_J_detailed(chart.unpack(x + e_i), K, scheme)
        jm = functional_J_detailed(chart.unpack(x - e_i), K, scheme)
        grad[i] = (jp.value - jm.value) / (2.0 * step)
        spread = abs(jp.value - jm.value)
        noise = jp.error + jm.error
        # a coordinate whose variation AND error are both at machine level
        # is flat, not noisy: the implied gradient uncertainty is orders of
        # magnitude below any usable tolerance
        floor = 1024.0 * np.finfo(float).eps * max(abs(jp.value), abs(jm.value))
        if noise > max(spread, floor, 1e-300):
            noisy += 1
            worst = max(worst, noise)
    if noisy:
        warnings.warn(
            f"quadrature error (~{worst:.2e}) exceeds the finite-difference "
            f"variation in {noisy}/{chart.dim} coordinates at step {step:.1e}; "
            "increase nodes/samples or the step",
            QuadratureNoiseWarning,
            stacklevel=2,
        )
    return grad


def _fd_hessian(chart: BubbleChart, K: KFunction, scheme: QuadratureScheme, x,
                j: JEvaluation, step: float = 1e-3) -> tuple[np.ndarray, float]:
    """Symmetric second-difference Hessian of J around chart point x, where J
    is already ``j``.

    Returns (H, noise) where noise bounds the propagated per-entry error
    from the quadrature error estimates and floating-point cancellation.
    It omits the stencil's O(step^2) truncation, which dominates: at step
    1e-3 the Hessian differs from the exact one by up to 5.2e-6 where the
    noise is 8.8e-8, 6x the band of 10x noise that a Morse index classifies
    with (three-bump-s3, fourth target, lam = 40).  The tests bound the
    truncation by Richardson's |FD(2h) - FD(h)|/3 (``fd_misfit`` in
    ``test_bubbles.py``), not by this noise.
    """
    j_of = lambda vec: functional_J_detailed(chart.unpack(vec), K, scheme)
    E = step * np.eye(chart.dim)
    H = np.zeros((chart.dim, chart.dim))
    worst_err = j.error
    for i, e_i in enumerate(E):
        jp, jm = j_of(x + e_i), j_of(x - e_i)
        worst_err = max(worst_err, jp.error, jm.error)
        H[i, i] = (jp.value - 2.0 * j.value + jm.value) / (step * step)
    for i, e_i in enumerate(E):
        for k in range(i + 1, chart.dim):
            e_k = E[k]
            jpp, jpm = j_of(x + e_i + e_k), j_of(x + e_i - e_k)
            jmp, jmm = j_of(x - e_i + e_k), j_of(x - e_i - e_k)
            worst_err = max(worst_err, jpp.error, jpm.error, jmp.error, jmm.error)
            H[i, k] = H[k, i] = (jpp.value - jpm.value - jmp.value + jmm.value) / (
                4.0 * step * step
            )
    fp_noise = 8.0 * np.finfo(float).eps * abs(j.value)
    noise = (4.0 * worst_err + fp_noise) / (step * step)
    return H, float(noise)
