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
Integrals dispatch to deterministic one-dimensional reductions whenever the
configuration allows it (weighted integrals over (anti)parallel bubbles as
one colatitude integral of the ring-averaged K; pair energies of aligned
bubbles radially, and of any two on the 3-sphere through the flat joint law
of two linear coordinates) and to mixture importance sampling otherwise.
Every integral and every functional value carries an error estimate.
Chart derivatives of J are exact for one bubble on the 3-sphere under a
radial scheme (one multi-column integral) and finite differences elsewhere.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .kfunc import KFunction, eval_K
from .quadrature import (
    MixtureComponent,
    QuadratureConvergenceError,
    QuadratureScheme,
    integrate_radial,
    integrate_two_point_s3,
    mc_integrate,
    panel_breakpoints,
    panel_quadrature,
    uniform_component,
)
from .sphere import exp_map, geodesic_distance, sphere_area, tangent_basis, unit

__all__ = [
    "Bubble",
    "BubbleSum",
    "BubbleChart",
    "FlowOptions",
    "FlowReport",
    "JEvaluation",
    "MorseIndexEstimate",
    "QuadratureNoiseWarning",
    "bubble_component",
    "c0",
    "constant_one",
    "eval_bubble",
    "eval_bubble_sum",
    "fd_hessian",
    "flow_to_critical",
    "functional_J",
    "functional_J_detailed",
    "I_from_J",
    "norm_squared",
    "reduced_gradient",
    "reduced_morse_index",
    "sobolev_constant",
    "weighted_power_integral",
]

_ALIGNED = 1.0 - 1e-9


class QuadratureNoiseWarning(UserWarning):
    """Integration error is comparable to a finite-difference variation."""


@cache
def sobolev_constant(n: int) -> float:
    """S_n = (n(n-2))^{n/2} * pi^{n/2} * Gamma(n/2) / Gamma(n)."""
    from scipy.special import gammaln  # slow to import; only the first call pays

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
        c = np.asarray(self.center, dtype=float)
        if abs(np.linalg.norm(c) - 1.0) > 1e-9:
            raise ValueError("bubble center must be a unit vector")
        object.__setattr__(self, "center", tuple(float(v) for v in c))
        if not (self.lam > 0):
            raise ValueError("bubble scale must be positive")

    def to_dict(self) -> dict:
        return {"center": list(self.center), "lam": float(self.lam)}

    @classmethod
    def from_dict(cls, d: dict) -> "Bubble":
        return cls(center=tuple(d["center"]), lam=float(d["lam"]))


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

    ``tau`` must lie in [0, 4/(n-2)); pairwise geodesic separations are
    recorded by ``separations`` and serialized.
    """

    n: int
    bubbles: tuple[Bubble, ...]
    alphas: tuple[float, ...]
    tau: float = 0.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 3:
            raise ValueError("dimension must be an integer >= 3")
        object.__setattr__(self, "n", int(self.n))
        bubbles = tuple(
            b if isinstance(b, Bubble) else Bubble.from_dict(b) for b in self.bubbles
        )
        if not bubbles:
            raise ValueError("at least one bubble is required")
        for b in bubbles:
            if len(b.center) != self.n + 1:
                raise ValueError("bubble center dimension does not match n")
        object.__setattr__(self, "bubbles", bubbles)
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) != len(bubbles):
            raise ValueError("one coefficient per bubble is required")
        if any(a <= 0 for a in alphas):
            raise ValueError("coefficients must be positive")
        object.__setattr__(self, "alphas", alphas)
        if not (0.0 <= self.tau < 4.0 / (self.n - 2)):
            raise ValueError("tau must lie in [0, 4/(n-2))")

    @property
    def p(self) -> int:
        return len(self.bubbles)

    def separations(self) -> tuple[float, ...]:
        """Pairwise geodesic distances between concentration points (i < j)."""
        cs = [np.asarray(b.center) for b in self.bubbles]
        return tuple(
            float(geodesic_distance(cs[i], cs[j]))
            for i in range(len(cs))
            for j in range(i + 1, len(cs))
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "tau": float(self.tau),
            "alphas": list(self.alphas),
            "bubbles": [b.to_dict() for b in self.bubbles],
            "separations": list(self.separations()),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BubbleSum":
        return cls(
            n=int(d["n"]),
            bubbles=tuple(Bubble.from_dict(b) for b in d["bubbles"]),
            alphas=tuple(d["alphas"]),
            tau=float(d.get("tau", 0.0)),
        )


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


def constant_one(n: int) -> KFunction:
    """The trivial curvature candidate K = 1."""
    return KFunction(n=n, epsilon=1.0, terms=())


# --------------------------------------------------------------------------
# pointwise evaluation and radial profiles
# --------------------------------------------------------------------------


def _profile(lam: float, cosine, n: int):
    """Bubble value as a function of the cosine of the distance to its center."""
    amp = c0(n) * lam ** ((n - 2) / 2.0)
    return amp * (2.0 + (lam * lam - 1.0) * (1.0 - cosine)) ** (-(n - 2) / 2.0)


def eval_bubble(b: Bubble, x: np.ndarray, n: int):
    """Pointwise bubble value; ``x`` is one unit vector or a batch of rows."""
    a = np.asarray(b.center, dtype=float)
    x = np.asarray(x, dtype=float)
    return _profile(b.lam, np.einsum("...i,i->...", x, a), n)


def eval_bubble_sum(u: BubbleSum, x: np.ndarray):
    return sum(a * eval_bubble(b, x, u.n) for a, b in zip(u.alphas, u.bubbles))


def _power_primitive(lam: float, power: float, n: int) -> Callable:
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


def _theta_scale(lam: float) -> float:
    # colatitude half-width of the bubble peak
    return min(math.pi / 4.0, 2.0 / max(lam, 1.0))


def _cos_scale(lam: float) -> float:
    # width of the peak measured in the cosine variable
    return min(0.5, 2.0 / max(lam * lam - 1.0, 4.0))


# --------------------------------------------------------------------------
# Monte Carlo proposals
# --------------------------------------------------------------------------


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


def _pair_energy(
    bi: Bubble, bj: Bubble, n: int, scheme: QuadratureScheme
) -> tuple[float, float]:
    """<B_i, B_j> = int B_i B_j^{(n+2)/(n-2)} dV for distinct bubbles.

    The high power goes on the more concentrated bubble, whose closed-form
    antiderivative makes the inner integral exact in the factorized route.
    """
    bi, bj = canonical_bubble(bi), canonical_bubble(bj)
    power = (n + 2.0) / (n - 2.0)
    # outer carries power 1, inner carries the high power
    outer, inner = (bi, bj) if bj.lam >= bi.lam else (bj, bi)
    a_out = np.asarray(outer.center)
    a_in = np.asarray(inner.center)

    if scheme.kind == "monte-carlo":
        f_out = lambda x: eval_bubble(outer, x, n)
        f_in = lambda x: eval_bubble(inner, x, n) ** power
        comps = [
            uniform_component(n, weight=0.2),
            bubble_component(outer, n, weight=0.4),
            bubble_component(inner, n, weight=0.4),
        ]
        if n >= 7:
            warnings.warn(
                f"Monte Carlo pair integral in dimension n={n}: expect slow "
                "convergence and high cost",
                QuadratureNoiseWarning,
                stacklevel=3,
            )
        return mc_integrate(
            lambda x: f_out(x) * f_in(x),
            comps,
            samples=scheme.samples,
            seed=scheme.seed,
        )

    aligned = _axis_signs([a_out, a_in])
    if aligned is not None:
        _, (s_out, s_in) = aligned
        F = lambda t: _profile(outer.lam, s_out * t, n) * _profile(
            inner.lam, s_in * t, n
        ) ** power
        features = [
            (0.0 if s_out > 0 else math.pi, _theta_scale(outer.lam)),
            (0.0 if s_in > 0 else math.pi, _theta_scale(inner.lam)),
        ]
        return integrate_radial(F, n, nodes=scheme.nodes, features=features)

    if n != 3:
        raise ValueError(
            "deterministic pair integrals need aligned centers or n = 3; "
            "use a monte-carlo scheme"
        )
    gamma = float(np.dot(a_in, a_out))
    primitive = _power_primitive(inner.lam, power, n)
    weight_v = lambda v: _profile(outer.lam, v, n)
    features = [
        (gamma, math.sqrt(max(1.0 - gamma * gamma, 1e-12)) / max(inner.lam, 1.0)),
        (1.0, _cos_scale(outer.lam)),
    ]
    return integrate_two_point_s3(
        primitive, weight_v, gamma, nodes=scheme.nodes, features=features
    )


def norm_squared(u: BubbleSum, scheme: QuadratureScheme | None = None):
    """Energy norm squared of the sum: sum_ij alpha_i alpha_j <B_i, B_j>.

    Diagonal terms are the exact constant S_n; off-diagonal pair energies are
    integrated.  Returns (value, error_estimate).
    """
    scheme = scheme or QuadratureScheme()
    s_n = sobolev_constant(u.n)
    total = s_n * float(sum(a * a for a in u.alphas))
    err = 0.0
    for i in range(u.p):
        for j in range(i + 1, u.p):
            val, e = _pair_energy(u.bubbles[i], u.bubbles[j], u.n, scheme)
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
    cannot overflow.  A bump on the axis keeps the exact axial factor
    exp(-(1 - sgn*t)/s^2).  Off-axis bumps need n = 3: elsewhere the ring
    average is a Bessel function.  Also returns each bump's gamma (+-1 on
    the axis); ``profile(t, bumps=True)`` adds the per-bump terms w*R(t).
    """
    w = np.array([term.weight for term in K.terms])
    s2 = np.array([term.width * term.width for term in K.terms])[:, None]
    gamma = np.einsum("ti,i->t", K.centers(), axis)
    on_axis = np.abs(gamma) >= _ALIGNED
    if n != 3 and not on_axis.all():
        raise ValueError(
            "deterministic weighted integrals with bumps off the bubble axis "
            "need n = 3; use a monte-carlo scheme"
        )
    gamma = np.where(on_axis, np.sign(gamma), gamma)
    sin_g = np.sqrt((1.0 - gamma) * (1.0 + gamma))[:, None]
    features = [
        (float(np.arccos(g)), term.width) for g, term in zip(gamma, K.terms)
    ]

    def profile(t, bumps=False):
        t = np.asarray(t, dtype=float)
        sin_t = np.sqrt((1.0 - t) * (1.0 + t))
        two_b = 2.0 * sin_t * sin_g / s2
        ring = np.divide(
            -np.expm1(-two_b), two_b, out=np.ones_like(two_b), where=two_b > 0
        )
        c_t = gamma[:, None] * t + sin_t * sin_g
        terms = w[:, None] * np.exp((c_t - 1.0) / s2) * ring
        k_bar = K.scale * (1.0 + K.epsilon * np.sum(terms, axis=0))
        return (k_bar, terms) if bumps else k_bar

    return profile, features, gamma


def weighted_power_integral(
    u: BubbleSum, K: KFunction, scheme: QuadratureScheme | None = None
):
    """int K |u|^{q_tau} dV with q_tau = 2n/(n-2) - tau.

    Bubbles whose centers are (anti)parallel make |u|^q zonal about their
    axis, so the integral is one colatitude integral of the ring average of
    K times |u|^q: in any dimension when every bump sits on the axis, and on
    the 3-sphere for any bumps.  Anything else needs a monte-carlo scheme.
    Returns (value, error_estimate).
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
        comps = [uniform_component(n, weight=0.2)]
        for b in u.bubbles:
            comps.append(bubble_component(b, n, weight=0.8 / u.p))
        F = lambda x: eval_K(K, x) * np.abs(eval_bubble_sum(u, x)) ** q
        return mc_integrate(F, comps, samples=scheme.samples, seed=scheme.seed)

    aligned = _axis_signs([np.asarray(b.center) for b in u.bubbles])
    if aligned is None:
        raise ValueError(
            "deterministic weighted integrals need (anti)parallel bubble "
            "centers; use a monte-carlo scheme"
        )
    axis, signs = aligned
    k_profile, k_features, _ = _ring_K_profile(K, axis, n)

    def F(t):
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        for a, b, s in zip(u.alphas, u.bubbles, signs):
            total += a * _profile(b.lam, s * t, n)
        return k_profile(t) * np.abs(total) ** q

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
    refined with one parabolic fit in log-scale - plenty for seeding a
    flow, which polishes the point anyway.
    """
    if tau <= 0:
        raise ValueError("equilibrium scales need a positive subcritical defect tau")
    lams = np.geomspace(window[0], window[1], points)
    js = []
    for lam in lams:
        u = BubbleSum(
            n=K.n,
            bubbles=(Bubble(center=tuple(center), lam=float(lam)),),
            alphas=(1.0,),
            tau=tau,
        )
        js.append(functional_J(u, K, scheme))
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


def _j_on_chart(chart: BubbleChart, K: KFunction, scheme: QuadratureScheme):
    def j_of(vec: np.ndarray) -> JEvaluation:
        return functional_J_detailed(chart.unpack(vec), K, scheme)

    return j_of


def reduced_gradient(
    u: BubbleSum,
    K: KFunction,
    scheme: QuadratureScheme | None = None,
    *,
    step: float = 1e-4,
    chart: BubbleChart | None = None,
    at: np.ndarray | None = None,
) -> np.ndarray:
    """Central finite-difference gradient of J in the gauge-fixed chart.

    Warns when the quadrature error estimate is comparable to the observed
    finite-difference variation (the gradient is then dominated by noise and
    more nodes/samples are needed).
    """
    scheme = scheme or QuadratureScheme()
    chart = chart or BubbleChart(u)
    x0 = np.zeros(chart.dim) if at is None else np.asarray(at, dtype=float)
    j_of = _j_on_chart(chart, K, scheme)
    grad = np.zeros(chart.dim)
    noisy = 0
    worst = 0.0
    for i in range(chart.dim):
        e_i = np.zeros(chart.dim)
        e_i[i] = step
        jp = j_of(x0 + e_i)
        jm = j_of(x0 - e_i)
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


def fd_hessian(
    u: BubbleSum,
    K: KFunction,
    scheme: QuadratureScheme | None = None,
    *,
    step: float = 1e-3,
    chart: BubbleChart | None = None,
    at: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Symmetric second-difference Hessian of J in the chart.

    Returns (H, noise) where noise bounds the propagated per-entry error
    from the quadrature error estimates and floating-point cancellation.
    """
    scheme = scheme or QuadratureScheme()
    chart = chart or BubbleChart(u)
    x0 = np.zeros(chart.dim) if at is None else np.asarray(at, dtype=float)
    j_of = _j_on_chart(chart, K, scheme)
    d = chart.dim
    H = np.zeros((d, d))
    j0 = j_of(x0)
    worst_err = j0.error
    for i in range(d):
        e_i = np.zeros(d)
        e_i[i] = step
        jp = j_of(x0 + e_i)
        jm = j_of(x0 - e_i)
        worst_err = max(worst_err, jp.error, jm.error)
        H[i, i] = (jp.value - 2.0 * j0.value + jm.value) / (step * step)
    for i in range(d):
        for j in range(i + 1, d):
            e_i = np.zeros(d)
            e_j = np.zeros(d)
            e_i[i] = step
            e_j[j] = step
            jpp = j_of(x0 + e_i + e_j)
            jpm = j_of(x0 + e_i - e_j)
            jmp = j_of(x0 - e_i + e_j)
            jmm = j_of(x0 - e_i - e_j)
            worst_err = max(
                worst_err, jpp.error, jpm.error, jmp.error, jmm.error
            )
            H[i, j] = H[j, i] = (jpp.value - jpm.value - jmp.value + jmm.value) / (
                4.0 * step * step
            )
    fp_noise = 8.0 * np.finfo(float).eps * abs(j0.value)
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
    ell.  The noise is the largest Hessian entry change from nodes to 2*nodes
    columns, plus rounding.
    """
    u = chart.unpack(x)
    flip = -1.0 if u.bubbles[0].lam < 1.0 else 1.0
    b, alpha = canonical_bubble(u.bubbles[0]), u.alphas[0]
    lam, q = b.lam, 6.0 - u.tau
    k_profile, k_features, gamma = _ring_K_profile(K, np.asarray(b.center), 3)
    kap = np.array([1.0 / (term.width * term.width) for term in K.terms])[:, None]
    gam, sin_g = gamma[:, None], np.sqrt((1.0 - gamma) * (1.0 + gamma))[:, None]

    def columns(t):
        k_bar, terms = k_profile(t, bumps=True)
        bq = np.abs(alpha * _profile(lam, t, 3)) ** q
        delta = lam * lam * (1.0 - t)
        d = 1.0 + t + delta
        l1, l2 = q * (0.5 - delta / d), -2.0 * q * delta * (1.0 + t) / (d * d)
        one_t2 = (1.0 - t) * (1.0 + t)
        m, dm = _ring_slopes(kap * np.sqrt(one_t2) * sin_g)
        g1 = kap * (t - kap * gam * one_t2 * m)
        g2 = -kap * kap * one_t2 * (m - kap * kap * gam * gam * one_t2 * dm)
        base = k_bar * bq
        share = K.scale * K.epsilon * bq * terms
        return np.vstack([base, base * l1, base * (l1 * l1 + l2),
                          share * g1, share * (g1 * g1 + g2), share * g1 * l1])

    g = lambda theta: columns(np.cos(theta)) * np.sin(theta) ** 2  # integrate_radial's
    breaks = panel_breakpoints(0.0, np.pi, [(0.0, _theta_scale(lam)), *k_features])
    coarse, fine = (panel_quadrature(g, breaks, m) for m in (scheme.nodes, 2 * scheme.nodes))
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
    d_gam = flip * K.centers() @ d_center
    dd_gam = flip * np.tensordot(K.centers(), dd_center, 1)
    e = jev.e_exponent

    def derivatives(cols):
        D, D_l, D_ll = ring * cols[:3]
        G1, G2, G3 = ring * cols[3:].reshape(3, -1)
        grad_D = np.append(G1 @ d_gam, flip * D_l)
        cross = flip * (G3 @ d_gam)[:, None]
        vv_D = np.einsum("j,ja,jb->ab", G2, d_gam, d_gam) + np.tensordot(G1, dd_gam, 1)
        H_D = np.block([[vv_D, cross], [cross.T, D_ll]])
        J = jev.norm_squared ** (0.5 * jev.q_exponent * e) * D ** (-e)
        H = J * (e * (e + 1.0) * np.outer(grad_D, grad_D) / (D * D) - e * H_D / D)
        return -e * J * grad_D / D, H

    (grad, H), (_, H_coarse) = derivatives(fine), derivatives(coarse)
    noise = np.abs(H - H_coarse).max() + 64.0 * np.finfo(float).eps * np.abs(H).max()
    return jev, grad, H, float(noise)


@dataclass(frozen=True)
class MorseIndexEstimate:
    """Count of negative chart-Hessian eigenvalues with a noise verdict.

    Eigenvalues within ``band`` (= 10x the noise) of zero are neither
    negative nor positive but ``indeterminate``.  The noise is the exact
    Hessian's change under node doubling, or the FD stencil's propagated error.
    """

    index: int
    indeterminate: int
    eigenvalues: tuple[float, ...]
    noise: float
    band: float

    @property
    def conclusive(self) -> bool:
        return self.indeterminate == 0

    def __int__(self) -> int:
        return self.index

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "indeterminate": self.indeterminate,
            "eigenvalues": list(self.eigenvalues),
            "noise": self.noise,
            "band": self.band,
        }


def reduced_morse_index(
    u: BubbleSum,
    K: KFunction,
    scheme: QuadratureScheme | None = None,
    *,
    step: float = 1e-3,
) -> MorseIndexEstimate:
    """Negative-eigenvalue count of the chart Hessian of J at u.

    ``u`` should be a converged critical point; eigenvalues inside the noise
    band are reported as indeterminate rather than classified.  Finite
    differences with ``step`` are used unless the Hessian is exact (one
    bubble on S^3 under a radial scheme).
    """
    scheme = scheme or QuadratureScheme()
    if u.p == 1 and u.n == 3 and scheme.kind == "radial-1d":  # exact derivatives
        *_, H, noise = _single_bubble_derivatives(BubbleChart(u), K, scheme, np.zeros(4))
    else:
        H, noise = fd_hessian(u, K, scheme, step=step)
    eigs = np.linalg.eigvalsh(H)
    band = 10.0 * noise
    index = int(np.sum(eigs < -band))
    indeterminate = int(np.sum(np.abs(eigs) <= band))
    return MorseIndexEstimate(
        index=index,
        indeterminate=indeterminate,
        eigenvalues=tuple(float(v) for v in eigs),
        noise=float(noise),
        band=float(band),
    )


# --------------------------------------------------------------------------
# descent flow
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowOptions:
    """Knobs for the parameter-space descent.

    Seeds whose gradient norm is already below ``newton_threshold`` skip the
    descent phase and go straight to the Newton polish: descent would slide
    off a saddle instead of converging to it.  ``fd_step`` and
    ``hessian_step`` apply to finite-difference derivatives only, not to the
    exact ones of one bubble on S^3 under a radial scheme.
    """

    max_steps: int = 200
    initial_step: float = 0.25
    min_step: float = 1e-9
    grad_tol: float = 2e-6
    newton_threshold: float = 5e-3
    lam_cap: float = 1e4
    newton_steps: int = 40
    newton_trust: float = 0.5
    fd_step: float = 1e-4
    hessian_step: float = 1e-3


@dataclass(frozen=True)
class FlowReport:
    """Outcome of flow_to_critical.

    ``status`` is one of converged / blow-up-escape / non-convergence.
    Trajectory rows are (step, J, then per bubble: center components, lam).
    ``nearest`` gives, per bubble, the index of the closest reference point
    and the geodesic distance to it (empty when no references were given).
    """

    status: str
    steps: int
    j_value: float
    j_error: float
    grad_norm: float
    trajectory: tuple[tuple[float, ...], ...]
    nearest: tuple[tuple[int, float], ...]
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_dict(self) -> dict:
        """Summary fields; the trajectory is exported separately as CSV."""
        return {
            "status": self.status,
            "steps": int(self.steps),
            "j_value": float(self.j_value),
            "j_error": float(self.j_error),
            "grad_norm": float(self.grad_norm),
            "nearest": [[int(i), float(d)] for i, d in self.nearest],
            "message": self.message,
        }


def _trajectory_row(step: int, jval: float, u: BubbleSum) -> tuple[float, ...]:
    row: list[float] = [float(step), float(jval)]
    for b in u.bubbles:
        row.extend(float(c) for c in b.center)
        row.append(float(b.lam))
    return tuple(row)


def flow_to_critical(
    u0: BubbleSum,
    K: KFunction,
    opts: FlowOptions | None = None,
    scheme: QuadratureScheme | None = None,
    reference_points: Sequence[np.ndarray] = (),
) -> tuple[BubbleSum, FlowReport]:
    """Drive the configuration to a critical point of J in the chart.

    Backtracking gradient descent finds the right basin; a damped Newton
    polish then converges to the stationary point itself (which descent
    alone cannot do at saddles, so near-stationary seeds skip descent).
    The subcritical defect must be positive, otherwise concentration can
    run away; scales crossing ``opts.lam_cap`` classify the run as
    "blow-up-escape".  A scale sinking through 1 re-anchors the chart at
    the mirrored representative (B_{a,lam} = B_{-a,1/lam}), so reported
    centers always mark the concentration point.
    """
    if u0.tau <= 0:
        raise ValueError("flows need a positive subcritical defect tau")
    opts = opts or FlowOptions()
    scheme = scheme or QuadratureScheme()
    chart = BubbleChart(u0)
    j_of = _j_on_chart(chart, K, scheme)
    exact = u0.p == 1 and u0.n == 3 and scheme.kind == "radial-1d"
    # (point, gradient, Hessian) last taken; x is rebound on every move and re-anchor
    held = [None, None, None]

    def probe(vec: np.ndarray) -> JEvaluation:
        # exact derivatives come with J and are held in case vec becomes x
        if not exact:
            return j_of(vec)
        jev, *held[1:], _ = _single_bubble_derivatives(chart, K, scheme, vec)
        held[0] = vec
        return jev

    def gradient() -> np.ndarray:
        if held[0] is not x:
            if exact:
                probe(x)
            else:
                fd = reduced_gradient(u0, K, scheme, step=opts.fd_step, chart=chart, at=x)
                held[:] = x, fd, None
        return held[1]

    x = np.zeros(chart.dim)
    current = probe(x)
    rows = [_trajectory_row(0, current.value, _canonical_sum(u0, below=0.75))]
    status = "non-convergence"
    message = ""
    steps_taken = 0
    step_size = opts.initial_step
    grad = np.zeros(chart.dim)

    def lam_exceeded(vec) -> bool:
        return any(
            chart.lam_of(vec, i) > opts.lam_cap for i in range(chart.base.p)
        )

    def maybe_reanchor() -> None:
        # a scale sinking well below 1 switches to the mirrored twin before
        # it can shrink toward 0 while the center points at the antipode;
        # the threshold leaves a hysteresis band so flows settling at
        # lam = 1 (a near-constant function) never teleport their center
        nonlocal chart, j_of, x
        if any(chart.lam_of(x, i) < 0.75 for i in range(chart.base.p)):
            chart = BubbleChart(_canonical_sum(chart.unpack(x)))
            j_of = _j_on_chart(chart, K, scheme)
            x = np.zeros(chart.dim)

    for k in range(1, opts.max_steps + 1):
        grad = gradient()
        gnorm = float(np.linalg.norm(grad))
        if gnorm < opts.grad_tol or (k == 1 and gnorm < opts.newton_threshold):
            status = "stationary"
            steps_taken = k - 1
            break
        direction = -grad / max(gnorm, 1.0)
        t = step_size
        moved = False
        at_x = held[:]  # the trials overwrite held; a stall stays at x
        while t >= opts.min_step:
            trial = x + t * direction
            try:
                cand = probe(trial)
            except (ValueError, QuadratureConvergenceError):
                t *= 0.5
                continue
            if cand.value < current.value - 1e-4 * t * gnorm:
                x, current = trial, cand
                moved = True
                break
            t *= 0.5
        steps_taken = k
        if not moved:
            held[:] = at_x
            status = "stalled"
            break
        step_size = min(2.0 * t, opts.initial_step)
        maybe_reanchor()
        rows.append(
            _trajectory_row(k, current.value, _canonical_sum(chart.unpack(x), below=0.75))
        )
        if lam_exceeded(x):
            status = "blow-up-escape"
            message = f"a concentration scale crossed the cap {opts.lam_cap:g}"
            break
    if status == "non-convergence" and opts.max_steps > 0:
        message = f"descent budget of {opts.max_steps} steps exhausted"

    if status in ("stationary", "stalled", "non-convergence") and opts.newton_steps:
        for k in range(opts.newton_steps):
            grad = gradient()
            gnorm = float(np.linalg.norm(grad))
            if gnorm < opts.grad_tol:
                break
            if held[2] is None:  # held[0] is x after gradient()
                held[2], _ = fd_hessian(
                    u0, K, scheme, step=opts.hessian_step, chart=chart, at=x
                )
            H = held[2]
            try:
                delta = np.linalg.solve(H, -grad)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(H, -grad, rcond=None)[0]
            dn = float(np.linalg.norm(delta))
            if dn > opts.newton_trust:
                delta *= opts.newton_trust / dn
            x = x + delta
            maybe_reanchor()
            current = probe(x)
            steps_taken += 1
            rows.append(
                _trajectory_row(
                    steps_taken, current.value, _canonical_sum(chart.unpack(x), below=0.75)
                )
            )
            if lam_exceeded(x):
                status = "blow-up-escape"
                message = (
                    f"a concentration scale crossed the cap {opts.lam_cap:g}"
                )
                break
        grad = gradient()
        gnorm = float(np.linalg.norm(grad))
        if status != "blow-up-escape":
            status = "converged" if gnorm < 10.0 * opts.grad_tol else "non-convergence"
            if status == "converged":
                message = ""
            elif not message:
                message = f"final gradient norm {gnorm:.3e} above tolerance"

    final = _canonical_sum(chart.unpack(x), below=0.75)
    if (
        status == "converged"
        and not message
        and any(b.lam < 1.25 for b in final.bubbles)
    ):
        message = (
            "a scale settled near 1: the configuration is nearly constant "
            "there and the recorded center is pure gauge"
        )
    gnorm = float(np.linalg.norm(grad))
    nearest: list[tuple[int, float]] = []
    refs = [np.asarray(r, dtype=float) for r in reference_points]
    if refs:
        for b in final.bubbles:
            c = np.asarray(b.center)
            dists = [geodesic_distance(c, r) for r in refs]
            idx = int(np.argmin(dists))
            nearest.append((idx, float(dists[idx])))
    report = FlowReport(
        status=status,
        steps=steps_taken,
        j_value=float(current.value),
        j_error=float(current.error),
        grad_norm=gnorm,
        trajectory=tuple(rows),
        nearest=tuple(nearest),
        message=message,
    )
    return final, report
