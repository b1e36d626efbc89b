"""Independent integration routes that the tests check the library against.

Neither is used by ``morsecount`` itself:

- ``integrate_two_point_s3``: the two-direction reduction on the 3-sphere,
  which integrates G(<x,a>) H(<x,b>) through the flat joint law of the two
  linear coordinates; ``two_point_pair_energy`` applies it to a pair energy.
- ``mc_pair_energy``: the pair energy by mixture importance sampling over
  a uniform proposal and both bubbles' exact samplers.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from morsecount.bubbles import Bubble, _profile, bubble_component, c0, canonical_bubble, eval_bubble
from morsecount.quadrature import _doubled, mc_integrate, panel_breakpoints, uniform_component


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
