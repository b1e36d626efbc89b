"""Deterministic quadrature on spheres.

Two routes: panelled Gauss-Legendre for integrands reduced to one outer
variable (zonal integrands, and the two-direction reduction on the 3-sphere
that pair energies use), and mixture importance sampling for everything
else.  Every integral comes back as (value, error_estimate); the
deterministic route estimates error by node-count doubling, the stochastic
one by a split-half comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .sphere import sphere_area, unit

KINDS = ("radial-1d", "monte-carlo")


class QuadratureConvergenceError(RuntimeError):
    """Node-count doubling disagrees beyond the declared tolerance."""


@dataclass(frozen=True)
class QuadratureScheme:
    """How to integrate: deterministic panels or mixture Monte Carlo.

    ``nodes`` is the per-panel Gauss-Legendre count for the deterministic
    route; ``samples`` is the total draw budget and ``seed`` the stream for
    the stochastic one.  ``tol`` is the declared relative target used when a
    caller asks for convergence enforcement.
    """

    kind: str = "radial-1d"
    nodes: int = 64
    samples: int = 20_000
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if int(self.nodes) < 16:
            raise ValueError("node count must be at least 16")
        if int(self.samples) < 16:
            raise ValueError("sample count must be at least 16")
        if not (float(self.tol) > 0):
            raise ValueError("tolerance must be positive")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "nodes": int(self.nodes),
            "samples": int(self.samples),
            "seed": int(self.seed),
            "tol": float(self.tol),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuadratureScheme":
        return cls(
            kind=d.get("kind", "radial-1d"),
            nodes=int(d.get("nodes", 64)),
            samples=int(d.get("samples", 20_000)),
            seed=int(d.get("seed", 0)),
            tol=float(d.get("tol", 1e-6)),
        )


# --------------------------------------------------------------------------
# panelled Gauss-Legendre on an interval
# --------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _gl_rule(nodes: int):
    x, w = leggauss(nodes)
    return x, w


def panel_breakpoints(
    a: float, b: float, features: Sequence[tuple[float, float]] = ()
) -> np.ndarray:
    """Panel edges on [a, b], geometrically refined around each feature.

    A feature is a (location, scale) pair: edges are laid down at
    location +- scale, +- 2*scale, ... so panels shrink geometrically
    toward the place where the integrand varies at that scale.
    """
    span = b - a
    pts = {float(a), float(b)}
    for loc, scale in features:
        if not np.isfinite(scale) or scale <= 0:
            continue
        step = min(float(scale), span / 4)
        if a < loc < b:
            pts.add(float(loc))
        while step < span:
            for p in (loc - step, loc + step):
                if a < p < b:
                    pts.add(float(p))
            step *= 2
    edges = sorted(pts)
    merged = [edges[0]]
    for p in edges[1:]:
        if p - merged[-1] > 1e-12 * span:
            merged.append(p)
    merged[-1] = float(b)
    return np.asarray(merged)


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


def _doubled(f, breaks, nodes, tol):
    coarse = panel_quadrature(f, breaks, nodes)
    fine = panel_quadrature(f, breaks, 2 * nodes)
    err = abs(fine - coarse)
    if tol is not None and err > tol * max(abs(fine), 1e-300):
        raise QuadratureConvergenceError(
            f"doubling {nodes}->{2 * nodes} nodes moved the value by {err:.3e} "
            f"(relative {err / max(abs(fine), 1e-300):.3e} > tol {tol:.1e}); "
            "increase nodes or add refinement features"
        )
    return fine, err


# --------------------------------------------------------------------------
# sphere reductions
# --------------------------------------------------------------------------


def integrate_radial(
    F: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    nodes: int = 64,
    features: Sequence[tuple[float, float]] = (),
    tol: float | None = None,
) -> tuple[float, float]:
    """Integral over the n-sphere of F(<x, axis>) for any fixed axis.

    Reduces to the colatitude line: integral = |S^{n-1}| * int_0^pi
    F(cos t) sin^{n-1} t dt.  ``features`` are (colatitude, scale) pairs
    marking concentration points, e.g. (0, 1/lam) for a peak at the axis.
    """
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    ring = sphere_area(n - 1)

    def g(theta):
        return np.asarray(F(np.cos(theta)), dtype=float) * np.sin(theta) ** (n - 1)

    breaks = panel_breakpoints(0.0, np.pi, features)
    fine, err = _doubled(g, breaks, nodes, tol)
    return ring * fine, ring * err


def integrate_two_point_s3(
    primitive_u: Callable[[np.ndarray], np.ndarray],
    weight_v: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    *,
    nodes: int = 64,
    features: Sequence[tuple[float, float]] = (),
    tol: float | None = None,
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
    fine, err = _doubled(outer, breaks, nodes, tol)
    factor = 2.0 * np.pi / root_s2
    return factor * fine, factor * err


# --------------------------------------------------------------------------
# mixture Monte Carlo
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
