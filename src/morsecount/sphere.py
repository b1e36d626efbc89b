"""Small geometry kit for the round unit sphere S^n embedded in R^{n+1}."""
from __future__ import annotations

import math
from functools import cache

import numpy as np


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize the last axis to unit length."""
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def check_unit(x: np.ndarray, tol: float = 1e-12) -> None:
    """Raise if x is not a unit vector (sphere points are contracts, not hints)."""
    err = abs(float(np.linalg.norm(x)) - 1.0)
    if not err <= tol:  # NaN fails too
        raise ValueError(f"expected a unit vector, |x| deviates by {err:.3e}")


@cache
def sphere_area(n: int) -> float:
    """Surface measure of S^n: 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    from scipy.special import gammaln  # slow to import; only the first call pays

    return float(2.0 * math.pi ** ((n + 1) / 2) / math.exp(gammaln((n + 1) / 2)))


def geodesic_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Great-circle distance, computed through the cross-norm for small-angle accuracy."""
    c = float(np.clip(np.dot(x, y), -1.0, 1.0))
    s = float(np.linalg.norm(x - y) * np.linalg.norm(x + y) / 2.0)
    return math.atan2(s, c)


def tangent_basis(x: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of T_x S^n, returned as columns of a (n+1, n) matrix.

    Built by QR-completing x against the identity; the column signs are fixed so
    the basis is reproducible across calls.
    """
    d = x.shape[-1]
    m = np.eye(d)
    # Put x first, orthonormalize the rest against it.
    cols = [x]
    for j in range(d):
        w = m[j] - sum(np.dot(m[j], c) * c for c in cols)
        nw = np.linalg.norm(w)
        if nw < 0.5:
            # cancellation left w skewed toward cols; a second pass restores
            # orthogonality ("twice is enough", Daniel-Gragg-Kaufman-Stewart)
            w = w - sum(np.dot(w, c) * c for c in cols)
            nw = np.linalg.norm(w)
        if nw > 1e-8:
            cols.append(w / nw)
        if len(cols) == d:
            break
    basis = np.stack(cols[1:], axis=-1)
    # Sign convention: first nonzero entry of each column positive.
    for k in range(basis.shape[1]):
        col = basis[:, k]
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        if lead < 0:
            basis[:, k] = -col
    return basis


def exp_map(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Geodesic exponential at x applied to a tangent vector v."""
    t = float(np.linalg.norm(v))
    if t < 1e-300:
        return x.copy()
    return math.cos(t) * x + math.sin(t) * (v / t)


def quasi_uniform_points(n: int, count: int) -> np.ndarray:
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
