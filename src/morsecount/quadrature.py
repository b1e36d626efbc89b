"""Quadrature on spheres.

Panelled Gauss-Legendre for zonal integrands, reduced to one colatitude
integral: the value takes ``nodes`` points per panel, the error its change
from ``nodes // 2``, and the integrand is called once on both rules' points.
``radial_rule_pair`` is the one route to that rule pair, and
``integrate_radial`` scales it to the sphere.  The scheme also declares the
mixture Monte Carlo route, whose sums ``bubbles`` owns whole.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .sphere import sphere_area

KINDS = ("radial-1d", "monte-carlo")


class QuadratureConvergenceError(RuntimeError):
    """An error estimate exceeds the scheme's declared tolerance."""


@dataclass(frozen=True)
class QuadratureScheme:
    """How to integrate: deterministic panels or mixture Monte Carlo.

    ``nodes`` is the per-panel Gauss-Legendre count for the deterministic
    route; ``samples`` is the total draw budget and ``seed`` the stream for
    the stochastic one.  ``tol`` is the declared relative target: every J
    (``bubbles._j_evaluation``) raises ``QuadratureConvergenceError`` when
    its error estimate exceeds it.
    """

    kind: str = "radial-1d"
    nodes: int = 64
    samples: int = 20_000
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("nodes", "samples", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.nodes < 16:
            raise ValueError("node count must be at least 16")
        if self.samples < 16:
            raise ValueError("sample count must be at least 16")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not (float(self.tol) > 0):
            raise ValueError("tolerance must be positive")

    def to_dict(self) -> dict:
        """The fields this kind reads.  Monte Carlo reads all five, since its
        pair energies are radial integrals at ``nodes``."""
        d = {"kind": self.kind, "nodes": self.nodes, "tol": float(self.tol)}
        if self.kind == "monte-carlo":
            d.update(samples=self.samples, seed=self.seed)
        return d


# --------------------------------------------------------------------------
# panelled Gauss-Legendre on an interval
# --------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _gl_rule(nodes: int):
    x, w = leggauss(nodes)
    x.setflags(write=False)  # shared by every integral in the process
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=64)
def _rule_pair(nodes: int):
    """One panel's abscissae of the nodes- and nodes // 2-point rules side by
    side, then each rule's weights."""
    (x_fine, w_fine), (x_coarse, w_coarse) = _gl_rule(nodes), _gl_rule(nodes // 2)
    x = np.concatenate([x_fine, x_coarse])
    x.setflags(write=False)
    return x, w_fine, w_coarse


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


def _doubled(f, breaks, nodes):
    """(fine, coarse) at nodes and nodes // 2 points per panel: the value and
    the rule whose change from it is the error estimate.  ``f`` is called
    once, on both rules' points of every panel; each rule is summed per
    panel, then over the panels.  An integrand with several columns (shape
    (columns, points)) gets one value each."""
    x, w_fine, w_coarse = _rule_pair(nodes)
    lo, hi = breaks[:-1], breaks[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float)
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    fine = np.sum(half * (vals[..., :nodes] @ w_fine), axis=-1)
    coarse = np.sum(half * (vals[..., nodes:] @ w_coarse), axis=-1)
    if fine.ndim == 0:
        return float(fine), float(coarse)
    return fine, coarse


# --------------------------------------------------------------------------
# sphere reductions
# --------------------------------------------------------------------------


def radial_rule_pair(
    F: Callable[[np.ndarray], np.ndarray],
    n: int,
    nodes: int,
    features: Sequence[tuple[float, float]],
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """``_doubled``'s (fine, coarse) pair of int_0^pi F(cos t) sin^{n-1} t dt
    on panels refined at ``features``, without the |S^{n-1}| factor.  F's
    array output is weighted in place, so it must be a fresh array."""

    def g(theta):
        vals = np.asarray(F(np.cos(theta)), dtype=float)
        weight = np.sin(theta) ** (n - 1)
        own = vals.shape[-1:] == weight.shape  # a scalar F has no array to reuse
        return np.multiply(vals, weight, out=vals if own else None)

    return _doubled(g, panel_breakpoints(0.0, np.pi, features), nodes)


def integrate_radial(
    F: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    nodes: int = 64,
    features: Sequence[tuple[float, float]] = (),
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Integral over the n-sphere of F(<x, axis>) for any fixed axis.

    Reduces to the colatitude line: integral = |S^{n-1}| * int_0^pi
    F(cos t) sin^{n-1} t dt.  ``features`` are (colatitude, scale) pairs
    marking concentration points, e.g. (0, 1/lam) for a peak at the axis.
    The value takes ``nodes`` Gauss points per panel, the error its change
    from ``nodes // 2``; F is called once, on both rules' points of every
    panel, ``(nodes + nodes // 2) * panels`` in all, so ``nodes`` is at least
    2.  An F with several columns (shape (columns, points)) returns values
    and errors as arrays, one per column, on the same panels.  F's array
    output is weighted in place, so it must be a fresh array.
    """
    try:
        nodes = operator.index(nodes)
    except TypeError:
        raise ValueError(f"nodes must be an integer, got {nodes!r}") from None
    if nodes < 2:  # the error rule takes nodes // 2 points
        raise ValueError(f"nodes must be at least 2, got {nodes}")
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    ring = sphere_area(n - 1)
    fine, coarse = radial_rule_pair(F, n, nodes, features)
    return ring * fine, ring * abs(fine - coarse)
