"""Bubble calculus on the round n-sphere.

The basic object is the standard bubble concentrated at a unit vector a
with scale lam >= 1:

    B_{a,lam}(x) = c0 * lam^{(n-2)/2} / (2 + (lam^2-1)(1 - <x,a>))^{(n-2)/2},
    c0 = (n(n-2))^{(n-2)/4},

which at lam = 1 degenerates to the constant c0/2^{(n-2)/2}.  Bubbles are
the extremals of the Sobolev quotient; their energy pairing under the
conformal Laplacian collapses to a plain integral,

    <B_i, B_j> = int B_i * B_j^{(n+2)/(n-2)} dV,    <B, B> = S_n,

with S_n = (n(n-2))^{n/2} * pi^{n/2} * Gamma(n/2)/Gamma(n), so the norm of a
sum of bubbles reduces to pair integrals.  The subcritical functional
evaluated here, with q_tau = 2n/(n-2) - tau and
e_tau = 2(n-2)/(2n - tau(n-2)),

    J(u) = ||u||^{q_tau*e_tau} * (int K |u|^{q_tau} dV)^{-e_tau},
    I(j) = j^{n/2}/n,

is invariant under scaling of u, so the parameter chart fixes the first
coefficient and works in (log(alpha_i/alpha_1), tangential offsets, log lam).
Pair energies are deterministic under every scheme and in every dimension:
each pair goes through its Lorentz invariant, one radial integral of one
profile.  Weighted integrals over (anti)parallel bubbles are one colatitude
integral of the ring-averaged K, and so is the equilibrium scale's whole
grid; every radial integral runs ``quadrature``'s rule pair.  Anything else
goes to mixture importance sampling, which this module owns whole: quotas,
draws, weights and split-half error.  Every integral and every functional
value carries an error estimate.
Chart derivatives of J are exact for one bubble on the 3-sphere under every
scheme (one multi-column integral) and central finite differences for several
bubbles or n != 3.  One chart-point evaluator, ``_ChartPoint``, picks the route
from the bubble sum alone and holds J with the derivatives taken at its point.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np

from .kfunc import KFunction
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureScheme,
    integrate_radial,
    radial_rule_pair,
)
from .sphere import exp_map, gammaln, sphere_area, tangent_basis, unit_center

_ALIGNED = 1.0 - 1e-9


class QuadratureNoiseWarning(UserWarning):
    """Integration error is comparable to a finite-difference variation."""


@cache
def sobolev_constant(n: int) -> float:
    """S_n = (n(n-2))^{n/2} * pi^{n/2} * Gamma(n/2) / Gamma(n)."""
    if n > 209:  # S_n overflows a float; checked first, since int(inf) overflows too
        raise ValueError(f"sobolev_constant supports dimensions up to 209, got {n!r}")
    if int(n) != n or n < 3:
        raise ValueError("dimension must be an integer >= 3")
    n = int(n)
    log_val = (
        0.5 * n * math.log(n * (n - 2))
        + 0.5 * n * math.log(math.pi)
        + gammaln(0.5 * n)
        - gammaln(n)
    )
    return float(math.exp(log_val))


def c0(n: int) -> float:
    """Amplitude constant (n(n-2))^{(n-2)/4} of the standard bubble."""
    if n > 257:  # the power overflows a float; checked first, since int(inf) overflows too
        raise ValueError(f"c0 supports dimensions up to 257, got {n!r}")
    if int(n) != n or n < 3:
        raise ValueError("dimension must be an integer >= 3")
    return float((n * (n - 2)) ** ((n - 2) / 4.0))


# --------------------------------------------------------------------------
# configurations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Bubble:
    """Concentration point (unit vector) and scale of one bubble."""

    center: tuple[float, ...]
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", unit_center(self.center, "bubble center"))
        if not (0.0 < self.lam < math.inf):
            raise ValueError("bubble scale must be positive and finite")


def canonical_bubble(b: Bubble) -> Bubble:
    """The scale >= 1 representative of a bubble.

    The profile satisfies the exact mirror identity B_{a,lam} = B_{-a,1/lam}
    (both equal c0 * lam^{(n-2)/2} * (lam^2(1-<x,a>) + (1+<x,a>))^{-(n-2)/2}),
    so the parameterization double-covers the configuration space.  Routing
    and flow bookkeeping normalize to lam >= 1, where the recorded center is
    the actual concentration point.
    """
    if b.lam >= 1.0:
        return b
    return Bubble(center=tuple(-c for c in b.center), lam=1.0 / b.lam)


@dataclass(frozen=True)
class BubbleSum:
    """A positive combination sum_i alpha_i B_i with a subcritical defect tau.

    ``tau`` must lie in [0, 4/(n-2)) and every coefficient be positive and finite.
    """

    n: int
    bubbles: tuple[Bubble, ...]
    alphas: tuple[float, ...]
    tau: float = 0.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 3:
            raise ValueError("dimension must be an integer >= 3")
        object.__setattr__(self, "n", int(self.n))
        bubbles = tuple(self.bubbles)
        if not bubbles:
            raise ValueError("at least one bubble is required")
        for b in bubbles:
            if len(b.center) != self.n + 1:
                raise ValueError("bubble center dimension does not match n")
        object.__setattr__(self, "bubbles", bubbles)
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) != len(bubbles):
            raise ValueError("one coefficient per bubble is required")
        if not all(0.0 < a < math.inf for a in alphas):
            raise ValueError("coefficients must be positive and finite")
        object.__setattr__(self, "alphas", alphas)
        if not (0.0 <= self.tau < 4.0 / (self.n - 2)):
            raise ValueError("tau must lie in [0, 4/(n-2))")

    @property
    def p(self) -> int:
        return len(self.bubbles)


def _canonical_sum(u: BubbleSum, *, below: float = 1.0) -> BubbleSum:
    """Replace scale < ``below`` bubbles by their mirrored lam >= 1 twins.

    Reporting call sites pass a threshold under 1 so that a scale resting a
    hair below 1 (a nearly constant bubble) keeps its nominal center instead
    of teleporting to the antipode.
    """
    if all(b.lam >= below for b in u.bubbles):
        return u
    return BubbleSum(
        n=u.n,
        bubbles=tuple(
            canonical_bubble(b) if b.lam < below else b for b in u.bubbles
        ),
        alphas=u.alphas,
        tau=u.tau,
    )


@cache
def constant_one(n: int) -> KFunction:
    """The trivial curvature candidate K = 1, built once per dimension (a
    candidate is immutable, its arrays read-only)."""
    return KFunction(n=n, epsilon=1.0, terms=())


# --------------------------------------------------------------------------
# radial profiles
# --------------------------------------------------------------------------


def _profile(lam: float, cosine, n: int):
    """Bubble value as a function of the cosine of the distance to its center."""
    amp = c0(n) * lam ** ((n - 2) / 2.0)
    base = 2.0 + (lam * lam - 1.0) * (1.0 - cosine)  # new array: power, amp in place
    base **= -(n - 2) / 2.0
    base *= amp
    return base


def _theta_scale(lam: float) -> float:
    # colatitude half-width of the bubble peak
    return min(math.pi / 4.0, 2.0 / max(lam, 1.0))


# --------------------------------------------------------------------------
# Monte Carlo: one pass over a mixture of proposals
# --------------------------------------------------------------------------

_UNIFORM_SHARE = 0.2  # of the sample budget; the bubbles split the rest evenly
_MC_BLOCK = 8192  # points drawn and weighed at a time


def _allocate(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder allocation; every count positive and even."""
    raw = weights / weights.sum() * total
    counts = np.floor(raw).astype(int)
    order = np.argsort(raw - counts)[::-1]
    for i in order[: total - counts.sum()]:
        counts[i] += 1
    counts = np.maximum(counts, 2)
    counts += counts % 2
    return counts


def _split_half(terms: np.ndarray, counts: Sequence[int]) -> tuple[float, float]:
    """Sum of importance-weighted terms drawn in proposal blocks of the given
    sizes, with its split-half error: the half-difference of the interleaved
    half estimates, to which each block contributes equally."""
    value = float(np.sum(terms))
    half_a = 0.0
    half_b = 0.0
    start = 0
    for m in counts:
        block = terms[start : start + m]
        half_a += 2.0 * float(np.sum(block[0::2]))
        half_b += 2.0 * float(np.sum(block[1::2]))
        start += m
    return value, 0.5 * abs(half_a - half_b)


def _dilate(X: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    """Push uniform unit points toward a bubble, in place; one point per
    column of ``X``.

    The conformal dilation toward the center a, tan(t'/2) = tan(t/2)/lam in
    colatitude, pushes the uniform measure exactly onto the normalized
    bubble-power density B^{2n/(n-2)}/S_n.  In half-angle form, with
    c = <x,a> and D = lam^2(1+c) + (1-c), it maps x to k*x + (cos t' - k*c)*a,
    k = 2*lam/D, cos t' = (lam^2(1+c) - (1-c))/D: a rational map that needs
    no tangent frame, because D >= min(2, 2*lam^2) keeps it regular at
    x = +-a, where it fixes both poles.
    """
    c = np.einsum("i,im->m", a, X)
    near, far = lam * lam * (1.0 + c), 1.0 - c
    D = near + far
    k = 2.0 * lam / D
    shift = (near - far) / D - k * c
    X *= k
    for a_i, row in zip(a, X):
        row += a_i * shift
    return X


def _mc_weighted_integral(u: BubbleSum, K: KFunction, q: float, samples: int, seed: int):
    """int K|u|^q dV by deterministic-mixture importance sampling, streamed
    over the points in blocks of ``_MC_BLOCK``.  ``u`` has every scale >= 1.

    Fixed quotas (largest-remainder split of ``samples``) go to a uniform
    proposal and to each bubble's exact sampler (``_dilate``), all from one
    stream of ``seed``, and the balance-heuristic estimator

        I_hat = sum_i F(x_i) / sum_j M_j q_j(x_i)

    is unbiased for any quotas (Veach & Guibas 1995).  One profile per bubble
    serves both F, through sum alpha_k B_k, and the mixture density, through
    M_k B_k^{2n/(n-2)}/S_n.  A block's points are held coordinate-major,
    (n+1, block), so every array op runs over the whole block and only the
    per-point terms outlive it; products are einsum, never threaded BLAS, so
    a point rounds alike in any block.
    """
    n, p = u.n, u.p
    counts = _allocate(
        np.array([_UNIFORM_SHARE] + [(1.0 - _UNIFORM_SHARE) / p] * p), samples
    )
    ends = np.cumsum(counts)
    rng = np.random.default_rng(seed)
    centers = np.vstack([[b.center for b in u.bubbles], K.centers])
    q_crit = 2.0 * n / (n - 2.0)
    terms = np.zeros(ends[-1])  # per block: sum alpha_k B_k, then F/mix in place
    for lo in range(0, len(terms), _MC_BLOCK):
        t = terms[lo : lo + _MC_BLOCK]
        # successive draws continue the stream: the same numbers as one draw
        X = rng.standard_normal((len(t), n + 1)).T.copy()
        norm = X[0] * X[0]
        for row in X[1:]:
            norm += row * row
        np.sqrt(norm, out=norm)
        X /= norm
        for b, start, stop in zip(u.bubbles, ends[:-1] - lo, ends[1:] - lo):
            if start < len(t) and stop > 0:  # the bubble's quota overlaps the block
                _dilate(X[:, max(start, 0) : stop], np.asarray(b.center), b.lam)

        cos = np.einsum("ci,im->cm", centers, X)
        mix = np.full(len(t), counts[0] * (1.0 / sphere_area(n)))
        for alpha, b, c, m in zip(u.alphas, u.bubbles, cos, counts[1:]):
            B = _profile(b.lam, c, n)
            t += alpha * B
            B **= q_crit
            B *= m / sobolev_constant(n)
            mix += B
        bumps = cos[p:]
        bumps -= 1.0
        bumps /= K.widths2[:, None]
        np.exp(bumps, out=bumps)
        f = np.einsum("tm,t->m", bumps, K.weights)
        np.abs(t, out=t)
        t **= q
        t *= 1.0 + K.epsilon * f
        t /= mix
    return _split_half(terms, counts)


# --------------------------------------------------------------------------
# integrals: pair energies and weighted powers
# --------------------------------------------------------------------------


def _axis_signs(directions: Sequence[np.ndarray]):
    """If all directions are (anti)parallel, return (axis, signs); else None."""
    ref = directions[0]
    signs = []
    for d in directions:
        g = float(np.dot(d, ref))
        if abs(g) < _ALIGNED:
            return None
        signs.append(1.0 if g > 0 else -1.0)
    return ref, signs


def _invariant_pair_energy(bi: Bubble, bj: Bubble, n: int, nodes: int):
    """<B_i, B_j> (Bahri-Coron's eps_ij) in any dimension from one invariant.

    As (A, V) = ((lam^2+1)/(2 lam), (lam^2-1)/(2 lam) a), a bubble is a unit
    timelike vector with B = k (A - <V, x>)^{-(n-2)/2}, k = c0 2^{-(n-2)/2}.
    Moebius maps act on it as Lorentz maps (Ratcliffe, Foundations of
    Hyperbolic Manifolds), so the pair energy depends on rho = A_i A_j -
    <V_i, V_j> alone; moving B_j to lam = 1 makes it k^{(n+2)/(n-2)} int B_lam'
    with lam' = rho + sqrt(rho^2 - 1).  At scales >= 1, with d = |a_i-a_j|^2/2,
    r = rho - 1 = (d (lam_i^2-1)(lam_j^2-1) + 2 (lam_i-lam_j)^2)/(4 lam_i lam_j)
    is a sum of non-negative terms: close pairs lose nothing to cancellation.
    """
    bi, bj = canonical_bubble(bi), canonical_bubble(bj)
    li, lj = bi.lam, bj.lam
    d = 0.5 * sum((x - y) ** 2 for x, y in zip(bi.center, bj.center))
    r = (d * (li * li - 1.0) * (lj * lj - 1.0) + 2.0 * (li - lj) ** 2) / (4.0 * li * lj)
    lam = 1.0 + r + math.sqrt(r * (r + 2.0))
    F = lambda t: _profile(lam, t, n)
    val, err = integrate_radial(F, n, nodes=nodes, features=[(0.0, _theta_scale(lam))])
    k = (c0(n) * 2.0 ** (-(n - 2) / 2.0)) ** ((n + 2.0) / (n - 2.0))
    return k * val, k * err


def norm_squared(u: BubbleSum, scheme: QuadratureScheme | None = None):
    """Energy norm squared of the sum: sum_ij alpha_i alpha_j <B_i, B_j>.

    Diagonal terms are the exact constant S_n; every off-diagonal pair energy
    is one radial integral of its Lorentz invariant under every scheme, which
    lends only its node count (``_invariant_pair_energy``), so the error is
    their node-doubling error.  Returns (value, error_estimate).
    """
    scheme = scheme or QuadratureScheme()
    s_n = sobolev_constant(u.n)
    total = s_n * float(sum(a * a for a in u.alphas))
    err = 0.0
    for i in range(u.p):
        for j in range(i + 1, u.p):
            val, e = _invariant_pair_energy(u.bubbles[i], u.bubbles[j], u.n, scheme.nodes)
            total += 2.0 * u.alphas[i] * u.alphas[j] * val
            err += 2.0 * u.alphas[i] * u.alphas[j] * e
    return total, err


def _ring_K_profile(K: KFunction, axis: np.ndarray, n: int):
    """K averaged over each ring <x, axis> = t, as a function of t, and one
    (colatitude, width) panel feature per bump.

    By Funk-Hecke (the vMF normaliser on S^3), a bump w*exp((<x,c> - 1)/s^2)
    with gamma = <axis, c> averages to w*exp((c_t - 1)/s^2)*(1 - e^{-2b})/(2b),
    b = sqrt(1-t^2) sqrt(1-gamma^2)/s^2, where c_t = gamma*t + b*s^2 <= 1 is
    the ring's largest <x, c>; sinh(b)/b is never formed, so narrow bumps
    cannot overflow.  On S^3 this is exact for every gamma, and at gamma =
    +-1 (b = 0) it is the axial factor exp(-(1 - sgn*t)/s^2).  Elsewhere the
    ring average of an off-axis bump is a Bessel function, so n != 3 takes
    only bumps on the axis (|gamma| >= _ALIGNED), snapped to gamma = +-1.
    Also returns each bump's gamma; ``profile(t)`` returns the ring-averaged
    K with the per-bump terms w*R(t) it sums.  A K without bumps averages to
    1 + epsilon*0 = 1 exactly, and gets no features and no terms.
    """
    if not K.terms:
        return lambda t: (1.0, np.empty((0,) + np.shape(t))), [], np.empty(0)
    w, s2 = K.weights[:, None], K.widths2[:, None]
    # |gamma| may pass 1 by rounding (centers are unit only to 1e-9)
    gamma = np.clip(np.einsum("ti,i->t", K.centers, axis), -1.0, 1.0)
    if n != 3:
        if np.any(np.abs(gamma) < _ALIGNED):
            raise ValueError(
                "radial weighted integrals with bumps off the bubble axis need n = 3"
            )
        gamma = np.sign(gamma)
    sin_g = np.sqrt((1.0 - gamma) * (1.0 + gamma))[:, None]
    features = [(float(np.arccos(g)), s) for g, s in zip(gamma, K.widths.tolist())]

    def profile(t):
        t = np.asarray(t, dtype=float)
        sin_t = np.sqrt((1.0 - t) * (1.0 + t))
        two_b = 2.0 * sin_t * sin_g / s2
        ring = np.divide(
            -np.expm1(-two_b), two_b, out=np.ones_like(two_b), where=two_b > 0
        )
        c_t = gamma[:, None] * t + sin_t * sin_g
        terms = w * np.exp((c_t - 1.0) / s2) * ring
        k_bar = 1.0 + K.epsilon * np.sum(terms, axis=0)
        return k_bar, terms

    return profile, features, gamma


def weighted_power_integral(
    u: BubbleSum, K: KFunction, scheme: QuadratureScheme | None = None
):
    """int K |u|^{q_tau} dV with q_tau = 2n/(n-2) - tau.

    Bubbles whose centers are (anti)parallel make |u|^q zonal about their
    axis, so the integral is one colatitude integral of the ring average of
    K times |u|^q: in any dimension when every bump sits on the axis, and on
    the 3-sphere for any bumps.  A monte-carlo scheme samples anything; this
    is the one reader of a scheme's kind.  Returns (value, error_estimate).
    """
    scheme = scheme or QuadratureScheme()
    u = _canonical_sum(u)
    n = u.n
    q = 2.0 * n / (n - 2.0) - u.tau

    if scheme.kind == "monte-carlo":
        if n >= 7:
            warnings.warn(
                f"Monte Carlo weighted integral in dimension n={n}: expect "
                "slow convergence and high cost",
                QuadratureNoiseWarning,
                stacklevel=2,
            )
        return _mc_weighted_integral(u, K, q, scheme.samples, scheme.seed)

    aligned = _axis_signs([np.asarray(b.center) for b in u.bubbles])
    if aligned is None:
        raise ValueError(
            "deterministic weighted integrals need (anti)parallel bubble "
            "centers; use a monte-carlo scheme"
        )
    axis, signs = aligned
    try:
        k_profile, k_features, _ = _ring_K_profile(K, axis, n)
    except ValueError as exc:  # a bump off the axis off S^3, which Monte Carlo integrates
        raise ValueError(f"{exc}; use a monte-carlo scheme") from None

    def F(t):
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        for a, b, s in zip(u.alphas, u.bubbles, signs):
            total += a * _profile(b.lam, s * t, n)
        return k_profile(t)[0] * np.abs(total) ** q

    features = [
        (0.0 if s > 0 else math.pi, _theta_scale(b.lam))
        for b, s in zip(u.bubbles, signs)
    ]
    features += k_features
    return integrate_radial(F, n, nodes=scheme.nodes, features=features)


# --------------------------------------------------------------------------
# the functionals
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class JEvaluation:
    """Functional value with its ingredients and error split."""

    value: float
    error: float
    norm_squared: float
    norm_error: float
    weighted_integral: float
    weighted_error: float
    q_exponent: float
    e_exponent: float


def functional_J_detailed(
    u: BubbleSum, K: KFunction, scheme: QuadratureScheme | None = None
) -> JEvaluation:
    """J(u) = ||u||^{q*e} * (int K|u|^q dV)^{-e}; scale-invariant in u.

    Raises QuadratureConvergenceError when the propagated error estimate
    exceeds the scheme's declared tolerance relative to the value.
    """
    scheme = scheme or QuadratureScheme()
    norm = norm_squared(u, scheme)
    return _j_evaluation(u, norm, weighted_power_integral(u, K, scheme), scheme)


def _j_evaluation(u: BubbleSum, norm, weighted, scheme: QuadratureScheme) -> JEvaluation:
    """J from the (value, error) pairs of ||u||^2 and int K|u|^q dV."""
    n = u.n
    q = 2.0 * n / (n - 2.0) - u.tau
    e = 2.0 * (n - 2.0) / (2.0 * n - u.tau * (n - 2.0))
    (n2, n2_err), (d, d_err) = norm, weighted
    if not (d > 0.0):
        raise ValueError("weighted integral must be positive")
    value = n2 ** (0.5 * q * e) * d ** (-e)
    rel = 0.5 * q * e * (n2_err / n2) + e * (d_err / d)
    error = abs(value) * rel
    if error > scheme.tol * abs(value):
        raise QuadratureConvergenceError(
            f"functional value error estimate {error:.3e} exceeds declared "
            f"tolerance {scheme.tol:.1e} * {abs(value):.6g}; increase nodes "
            "or samples"
        )
    return JEvaluation(
        value=float(value),
        error=float(error),
        norm_squared=float(n2),
        norm_error=float(n2_err),
        weighted_integral=float(d),
        weighted_error=float(d_err),
        q_exponent=float(q),
        e_exponent=float(e),
    )


def functional_J(
    u: BubbleSum, K: KFunction, scheme: QuadratureScheme | None = None
) -> float:
    return functional_J_detailed(u, K, scheme).value


def I_from_J(jval: float, n: int) -> float:
    """Energy conversion j -> j^{n/2}/n."""
    if jval < 0:
        raise ValueError("functional value must be nonnegative")
    return float(jval) ** (n / 2.0) / n


def equilibrium_scale(
    K: KFunction,
    center: Sequence[float],
    tau: float,
    scheme: QuadratureScheme | None = None,
    *,
    window: tuple[float, float] = (2.0, 64.0),
    points: int = 31,
) -> Optional[float]:
    """Interior minimizer of ``lam -> J`` over one center, or None.

    Over a critical point y of K with negative Laplacian the scale profile
    of J balances two small effects: the subcritical defect penalizes
    concentration (J grows like a tiny positive power of lam), while the
    local K-well rewards it at moderate scales.  When the well is deep
    enough the profile dips to an interior minimum lam-bar before the
    penalty takes over, and a single bubble pinned at (y, lam-bar) seeds a
    critical point of the reduced functional.  A shallow well (weak
    curvature contrast) leaves the profile monotone: the only descent
    direction leads into the near-constant neck and None is returned.

    The minimum is bracketed on a geometric grid over ``window`` and
    refined with one parabolic fit in log-scale; at the preset targets the
    vertex sits up to about 8e-4 (relative) from the true minimizer, and a
    flow polishes it.  Under every scheme the grid is one radial integral,
    a column per scale on one panel set (K's features, the largest scale's
    peak, its mirror at the antipode when the window reaches below 1): K's
    ring average about the center does not depend on lam.  The scheme lends
    only ``nodes`` and ``tol``; each column has its own doubling error and
    tolerance check.
    """
    if tau <= 0:
        raise ValueError("equilibrium scales need a positive subcritical defect tau")
    try:
        points = operator.index(points)
    except TypeError:
        raise ValueError(f"points must be an integer, got {points!r}") from None
    if points < 3:  # a bracket needs a grid point on each side
        raise ValueError(f"points must be at least 3, got {points}")
    lo, hi = window
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"window must be (lo, hi) with 0 < lo < hi < inf, got {window!r}")
    scheme = scheme or QuadratureScheme()
    lams = np.geomspace(lo, hi, points)
    n = K.n
    bubble = Bubble(center=tuple(center), lam=float(lams[-1]))
    u = BubbleSum(n=n, bubbles=(bubble,), alphas=(1.0,), tau=tau)  # _j_evaluation reads n and tau
    k_profile, features, _ = _ring_K_profile(K, np.asarray(bubble.center), n)
    features = [(0.0, _theta_scale(hi)), *features]
    if lo < 1.0:
        features.append((math.pi, _theta_scale(1.0 / lo)))
    q = 2.0 * n / (n - 2.0) - tau

    def F(t):  # power and weight reuse the positive (scales, points) profile
        line = _profile(lams[:, None], t, n)
        line **= q
        line *= k_profile(t)[0]
        return line

    line = integrate_radial(F, n, nodes=scheme.nodes, features=features)
    norm = norm_squared(u, scheme)
    js = [_j_evaluation(u, norm, weighted, scheme).value for weighted in zip(*line)]
    best = None
    for i in range(1, points - 1):
        if js[i] < js[i - 1] and js[i] <= js[i + 1]:
            if best is None or js[i] < js[best]:
                best = i
    if best is None:
        return None
    x0, x1, x2 = np.log(lams[best - 1 : best + 2])
    y0, y1, y2 = js[best - 1], js[best], js[best + 1]
    num = (y0 - y1) * (x2 - x1) ** 2 - (y2 - y1) * (x1 - x0) ** 2
    den = (y0 - y1) * (x2 - x1) + (y2 - y1) * (x1 - x0)
    if den == 0.0:
        return float(lams[best])
    return float(np.exp(x1 + 0.5 * num / den))


# --------------------------------------------------------------------------
# gauge-fixed parameter chart
# --------------------------------------------------------------------------


class BubbleChart:
    """Local coordinates around a base configuration with the scaling gauge
    fixed: the first coefficient stays frozen, the rest move by log-ratio.

    Layout of a parameter vector for p bubbles on the n-sphere
    (dimension p*(n+2) - 1):

        [log alpha ratios (p-1) | tangential offsets (p blocks of n) | log lam (p)]

    The chart is centered: the zero vector reproduces the base sum.
    """

    def __init__(self, base: BubbleSum):
        self.base = base
        self.frames = tuple(
            tangent_basis(np.asarray(b.center)) for b in base.bubbles
        )
        self.dim = (base.p - 1) + base.p * base.n + base.p

    def unpack(self, vec: np.ndarray) -> BubbleSum:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"parameter vector must have length {self.dim}")
        p, n = self.base.p, self.base.n
        ratios = vec[: p - 1]
        offsets = vec[p - 1 : p - 1 + p * n].reshape(p, n)
        log_lams = vec[p - 1 + p * n :]
        alphas = [self.base.alphas[0]]
        alphas += [
            self.base.alphas[i] * math.exp(ratios[i - 1]) for i in range(1, p)
        ]
        bubbles = []
        for i, b in enumerate(self.base.bubbles):
            center = exp_map(np.asarray(b.center), self.frames[i] @ offsets[i])
            bubbles.append(Bubble(center=tuple(center), lam=b.lam * math.exp(log_lams[i])))
        return BubbleSum(
            n=n, bubbles=tuple(bubbles), alphas=tuple(alphas), tau=self.base.tau
        )

    def lam_of(self, vec: np.ndarray, i: int) -> float:
        log_lams = np.asarray(vec, dtype=float)[self.base.p - 1 + self.base.p * self.base.n :]
        return self.base.bubbles[i].lam * math.exp(log_lams[i])


# --------------------------------------------------------------------------
# derivatives of J in the chart
# --------------------------------------------------------------------------


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


# Taylor series in z = b^2 of T = sinh(b)/b, S = T'(b)/b, U = S'(b)/b (at
# z = -r^2: sin(r)/r, its -r-derivative/r, ...); 1e-19 for |z| <= 1/4
_SINC_SERIES = np.array([[1.0, 2 * m + 2, (2 * m + 2) * (2 * m + 4)] for m in range(8)])
_SINC_SERIES /= [[math.factorial(2 * m + j) for j in (1, 3, 5)] for m in range(8)]


def _ring_slopes(beta: np.ndarray):
    """M = (coth b - 1/b)/b and M'(b)/b, from series below b = 1/2 (the
    closed forms cancel there); log(sinh b / b) has slope b*M."""
    m, dm = np.empty_like(beta), np.empty_like(beta)
    small = beta < 0.5
    T, S, U = np.polynomial.polynomial.polyval(beta[small] ** 2, _SINC_SERIES)
    m[small], dm[small] = S / T, U / T
    b = beta[~small]
    coth = -2.0 / np.expm1(-2.0 * b) - 1.0
    m[~small], dm[~small] = (coth - 1.0 / b) / b, (b * b - 3.0 * b * coth + 3.0) / b**4
    return m, dm - m * m


def _chart_sinc(r: float):
    """g = sin(r)/r, h = g'(r)/r and k = h'(r)/r, by series below r = 1/2."""
    if r < 0.5:
        T, S, U = np.polynomial.polynomial.polyval(-r * r, _SINC_SERIES)
        return T, -S, U
    s, c = math.sin(r), math.cos(r)
    return s / r, (r * c - s) / r**3, (3.0 * s - 3.0 * r * c - r * r * s) / r**5


def _single_bubble_derivatives(
    chart: BubbleChart, K: KFunction, scheme: QuadratureScheme, x: np.ndarray
):
    """(JEvaluation, gradient, Hessian, noise) at chart point ``x`` for one
    bubble on S^3.  One radial integral has the columns D = int K B^q dV,
    D_ell, D_ell,ell (ell = log lam) and per bump the gamma, gamma-gamma and
    gamma-ell shares (gamma = <c, a>; g1, g2 are the gamma-derivatives of the
    log ring factor, l1, l2 the ell-derivatives of log B^q).  The chain rule
    through gamma(v) = <c, exp_a0(B0 v)> and J = ||u||^{qe} D^{-e} follows; a
    mirrored bubble is integrated as its lam >= 1 twin, flipping gamma and
    ell.  The noise is the largest Hessian entry change from nodes // 2 to
    nodes Gauss points per panel, plus rounding.
    """
    u = chart.unpack(x)
    flip = -1.0 if u.bubbles[0].lam < 1.0 else 1.0
    b, alpha = canonical_bubble(u.bubbles[0]), u.alphas[0]
    lam, q = b.lam, 6.0 - u.tau
    k_profile, k_features, gamma = _ring_K_profile(K, np.asarray(b.center), 3)
    kap = 1.0 / K.widths2[:, None]
    gam, sin_g = gamma[:, None], np.sqrt((1.0 - gamma) * (1.0 + gamma))[:, None]

    def columns(t):
        k_bar, terms = k_profile(t)
        bq = np.abs(alpha * _profile(lam, t, 3)) ** q
        delta = lam * lam * (1.0 - t)
        d = 1.0 + t + delta
        l1, l2 = q * (0.5 - delta / d), -2.0 * q * delta * (1.0 + t) / (d * d)
        one_t2 = (1.0 - t) * (1.0 + t)
        m, dm = _ring_slopes(kap * np.sqrt(one_t2) * sin_g)
        g1 = kap * (t - kap * gam * one_t2 * m)
        g2 = -kap * kap * one_t2 * (m - kap * kap * gam * gam * one_t2 * dm)
        base = k_bar * bq
        share = K.epsilon * bq * terms
        return np.vstack([base, base * l1, base * (l1 * l1 + l2),
                          share * g1, share * (g1 * g1 + g2), share * g1 * l1])

    features = [(0.0, _theta_scale(lam)), *k_features]
    fine, coarse = radial_rule_pair(columns, 3, scheme.nodes, features)
    ring = sphere_area(2)
    weighted = (ring * fine[0], ring * abs(fine[0] - coarse[0]))
    jev = _j_evaluation(u, norm_squared(u, scheme), weighted, scheme)

    # gamma = <c, center(v)>, center(v) = cos(r) a0 + g(r) B0 v: its first and
    # second v-derivatives, with g, h, k of r = |v|; flip maps them to the twin
    a0, frame = np.asarray(chart.base.bubbles[0].center), chart.frames[0]
    v = np.asarray(x, dtype=float)[:3]
    sg, sh, sk = _chart_sinc(float(np.linalg.norm(v)))
    w, vv, eye = frame @ v, np.outer(v, v), np.eye(3)
    d_center = np.outer(sh * w - sg * a0, v) + sg * frame
    dd_center = (
        -a0[:, None, None] * (sg * eye + sh * vv) + w[:, None, None] * (sh * eye + sk * vv)
        + sh * (frame[:, :, None] * v + frame[:, None, :] * v[:, None])
    )
    d_gam = flip * K.centers @ d_center
    dd_gam = flip * np.tensordot(K.centers, dd_center, 1)
    e = jev.e_exponent

    def derivatives(cols):
        D, D_l, D_ll = ring * cols[:3]
        G1, G2, G3 = ring * cols[3:].reshape(3, -1)
        grad_D, H_D = np.empty(4), np.empty((4, 4))
        grad_D[:3], grad_D[3] = G1 @ d_gam, flip * D_l
        H_D[:3, :3] = np.einsum("j,ja,jb->ab", G2, d_gam, d_gam) + np.tensordot(G1, dd_gam, 1)
        H_D[:3, 3] = H_D[3, :3] = flip * (G3 @ d_gam)
        H_D[3, 3] = D_ll
        J = jev.norm_squared ** (0.5 * jev.q_exponent * e) * D ** (-e)
        H = J * (e * (e + 1.0) * np.outer(grad_D, grad_D) / (D * D) - e * H_D / D)
        return -e * J * grad_D / D, H

    (grad, H), (_, H_coarse) = derivatives(fine), derivatives(coarse)
    noise = np.abs(H - H_coarse).max() + 64.0 * np.finfo(float).eps * np.abs(H).max()
    return jev, grad, H, float(noise)


class _ChartPoint:
    """J at chart point ``x``, with its chart gradient ``grad`` and its
    ``hessian`` = (H, noise); the one place that picks how they are taken.

    One bubble on S^3 gets all of them with J from one multi-column integral
    (``_single_bubble_derivatives``), under every scheme.  Several bubbles or
    n != 3 get central finite differences, each taken on first use: the
    gradient by ``_fd_gradient``, the Hessian by ``_fd_hessian``'s stencil
    around the J held here.
    """

    def __init__(self, chart: BubbleChart, K: KFunction, scheme: QuadratureScheme, x):
        self.chart, self.K, self.scheme, self.x = chart, K, scheme, x
        base = chart.base
        if base.p == 1 and base.n == 3:
            # instance values shadow the finite-difference cached properties
            self.j, self.grad, H, noise = _single_bubble_derivatives(chart, K, scheme, x)
            self.hessian = H, noise
        else:
            self.j = functional_J_detailed(chart.unpack(x), K, scheme)

    @cached_property
    def grad(self) -> np.ndarray:
        return _fd_gradient(self.chart, self.K, self.scheme, self.x)

    @cached_property
    def hessian(self) -> tuple[np.ndarray, float]:
        return _fd_hessian(self.chart, self.K, self.scheme, self.x, self.j)


@dataclass(frozen=True)
class MorseIndexEstimate:
    """Count of negative chart-Hessian eigenvalues with a noise verdict.

    Eigenvalues within ``band`` (= 10x the noise) of zero, or NaN, are
    neither negative nor positive but ``indeterminate``.  The noise is the
    exact Hessian's change from nodes // 2 to nodes Gauss points per panel,
    or the FD stencil's propagated error.
    """

    index: int
    indeterminate: int
    eigenvalues: tuple[float, ...]
    noise: float
    band: float

    @property
    def conclusive(self) -> bool:
        return self.indeterminate == 0


def reduced_morse_index(
    u: BubbleSum, K: KFunction, scheme: QuadratureScheme | None = None
) -> MorseIndexEstimate:
    """Negative-eigenvalue count of the chart Hessian of J at u.

    ``u`` should be a converged critical point; eigenvalues inside the noise
    band are reported as indeterminate rather than classified.  The Hessian
    is exact for one bubble on S^3 under every scheme and a finite
    difference (``_fd_hessian``) for several bubbles or n != 3.
    """
    scheme = scheme or QuadratureScheme()
    chart = BubbleChart(u)
    return _classify(*_ChartPoint(chart, K, scheme, np.zeros(chart.dim)).hessian)


def _classify(H: np.ndarray, noise: float) -> MorseIndexEstimate:
    """``MorseIndexEstimate`` of (H, noise).  An inf entry of H (all-NaN
    eigenvalues) or a NaN noise leaves every eigenvalue indeterminate."""
    eigs = np.linalg.eigvalsh(H)
    band = 10.0 * noise
    index = int(np.sum(eigs < -band))
    indeterminate = int(np.sum(~((eigs < -band) | (eigs > band))))
    return MorseIndexEstimate(
        index=index,
        indeterminate=indeterminate,
        eigenvalues=tuple(float(v) for v in eigs),
        noise=float(noise),
        band=float(band),
    )


# --------------------------------------------------------------------------
# Newton flow
# --------------------------------------------------------------------------

GRAD_TOL = 2e-6  # a flow has converged when its chart gradient is this small
NEWTON_TRUST = 0.5  # longest Newton step in the chart
NEWTON_STEPS = 40  # Newton steps a flow takes at most
LAM_CAP = 1e4  # a concentration scale above this ends the flow as an escape


@dataclass(frozen=True)
class FlowReport:
    """Outcome of flow_to_critical.

    ``status`` is one of converged / blow-up-escape / non-convergence.
    Trajectory rows are (step, J, then per bubble: center components, lam).
    """

    status: str
    steps: int
    j_value: float
    j_error: float
    grad_norm: float
    trajectory: tuple[tuple[float, ...], ...]
    message: str = ""
    _last: Optional[_ChartPoint] = field(default=None, compare=False, repr=False)

    def morse_index(self) -> MorseIndexEstimate:
        """``reduced_morse_index`` read from the Hessian the flow's last point
        holds, in that point's chart.  At a critical point a change of chart
        changes the Hessian by a congruence plus an O(gradient) term, so by
        Sylvester's law the index is the one taken in the returned sum's own
        chart.  The exact route holds the Hessian already; the
        finite-difference route takes its stencil on this first call."""
        if self._last is None:
            raise ValueError("this report holds no flow point to take a Morse index at")
        return _classify(*self._last.hessian)


def flow_to_critical(
    u0: BubbleSum, K: KFunction, scheme: QuadratureScheme | None = None
) -> tuple[BubbleSum, FlowReport]:
    """Polish a near-stationary configuration to a critical point of J.

    A damped Newton iteration in the chart, each step capped at
    ``NEWTON_TRUST``, converges to the nearby critical point of any index
    (saddles included), so the seed should already sit near one, e.g. at
    its equilibrium scale.  Each point the flow visits is one chart-point
    evaluator: J with the gradient and Hessian there, exact for one bubble
    on S^3 under every scheme and finite differences taken on first use for
    several bubbles or n != 3, so no bubble sum's J is taken twice.  The
    subcritical defect must be positive, otherwise concentration can run
    away; scales crossing ``LAM_CAP`` classify the run as "blow-up-escape".
    A scale sinking through 1 re-anchors the chart at the mirrored
    representative (B_{a,lam} = B_{-a,1/lam}), so reported centers always
    mark the concentration point.
    """
    if u0.tau <= 0:
        raise ValueError("flows need a positive subcritical defect tau")
    scheme = scheme or QuadratureScheme()

    def point_at(chart: BubbleChart, x: np.ndarray) -> _ChartPoint:
        # a scale sinking well below 1 switches to the mirrored twin before
        # it can shrink toward 0 while the center points at the antipode;
        # the threshold leaves a hysteresis band so flows settling at
        # lam = 1 (a near-constant function) never teleport their center.
        # J is the same in either chart: it integrates the lam >= 1 twins
        if any(chart.lam_of(x, i) < 0.75 for i in range(chart.base.p)):
            chart = BubbleChart(_canonical_sum(chart.unpack(x)))
            x = np.zeros(chart.dim)
        return _ChartPoint(chart, K, scheme, x)

    def record(step: int, point: _ChartPoint) -> bool:
        """Append a trajectory row; True when a scale crossed the cap."""
        u = _canonical_sum(point.chart.unpack(point.x), below=0.75)
        centers_lams = [v for b in u.bubbles for v in (*b.center, b.lam)]
        rows.append(tuple(float(v) for v in (step, point.j.value, *centers_lams)))
        return any(b.lam > LAM_CAP for b in u.bubbles)

    chart = BubbleChart(u0)
    here = _ChartPoint(chart, K, scheme, np.zeros(chart.dim))
    rows: list[tuple[float, ...]] = []
    record(0, here)
    escaped = False
    steps = 0
    while steps < NEWTON_STEPS and float(np.linalg.norm(here.grad)) >= GRAD_TOL:
        H, _ = here.hessian
        try:
            delta = np.linalg.solve(H, -here.grad)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(H, -here.grad, rcond=None)[0]
        dn = float(np.linalg.norm(delta))
        if dn > NEWTON_TRUST:
            delta *= NEWTON_TRUST / dn
        here = point_at(here.chart, here.x + delta)
        steps += 1
        if record(steps, here):
            escaped = True
            break
    # the reported norm belongs to the returned sum, whatever ended the flow
    gnorm = float(np.linalg.norm(here.grad))
    if escaped:
        status, message = "blow-up-escape", f"a concentration scale crossed the cap {LAM_CAP:g}"
    elif gnorm < 10.0 * GRAD_TOL:
        status, message = "converged", ""
    else:
        status, message = "non-convergence", f"final gradient norm {gnorm:.3e} above tolerance"

    final = _canonical_sum(here.chart.unpack(here.x), below=0.75)
    if status == "converged" and any(b.lam < 1.25 for b in final.bubbles):
        message = (
            "a scale settled near 1: the configuration is nearly constant "
            "there and the recorded center is pure gauge"
        )
    report = FlowReport(
        status=status,
        steps=steps,
        j_value=float(here.j.value),
        j_error=float(here.j.error),
        grad_norm=gnorm,
        trajectory=tuple(rows),
        message=message,
        _last=here,
    )
    return final, report
