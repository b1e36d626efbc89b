"""Small geometry kit for the round unit sphere S^n embedded in R^{n+1}."""
from __future__ import annotations

import math
from functools import cache, reduce
from operator import xor

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


#: Joe & Kuo's Sobol direction numbers (SIAM J. Sci. Comput. 30, 2008, file new-joe-kuo-6.21201):
#: (primitive polynomial, initial m-values) per dimension; the first's m-values are all 1.
_SOBOL_TABLE = (
    (1, ()),
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
)
_SOBOL_BITS = 30


def _sobol(d: int, mexp: int) -> np.ndarray:
    """The first 2**mexp unscrambled Sobol points in [0, 1)^d in Gray-code order: from the
    origin, point i is point i - 1 xor the direction number at the lowest set bit of i,
    built here by reflection (point 2**k + j is point 2**k - 1 - j xor direction k)."""
    v = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    for row, (poly, m_init) in zip(v, _SOBOL_TABLE):
        s = len(m_init)
        row[:s] = m_init
        for j in range(s, mexp):  # Bratley & Fox's recurrence, up to the directions used
            taps = [row[j - k] << k for k in range(1, s + 1) if (poly >> (s - k)) & 1]
            row[j] = reduce(xor, taps, row[j - s])
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1)
    x = np.zeros((2**mexp, d), dtype=np.int64)
    for k in range(mexp):
        x[2**k : 2 ** (k + 1)] = x[2**k - 1 :: -1] ^ v[:, k]
    return x * 2.0**-_SOBOL_BITS


def quasi_uniform_points(n: int, count: int) -> np.ndarray:
    """Low-discrepancy point set on S^n: Sobol in the cube -> Gaussian -> radial projection.

    Deterministic for a given (n, count); used for solver seeding and for
    dense min/max scans.  The cube points are the first 2**m (m >= 4) of the unscrambled
    Sobol sequence in Gray-code order (``_sobol``); Joe & Kuo's table reaches n <= 20 and
    2**30 points, and a larger n or count, or a negative count, raises ``ValueError``.
    """
    from scipy.special import ndtri  # slow to import; only the first call pays

    d = n + 1
    mexp = max(4, int(math.ceil(math.log2(max(count, 2)))))
    if not (1 <= d <= len(_SOBOL_TABLE) and 0 <= count and mexp <= _SOBOL_BITS):
        raise ValueError(
            f"the Sobol table covers n <= 20 and 0 <= count <= 2**30, got {n=}, {count=}"
        )
    u = _sobol(d, mexp)[:count]
    # Clip away the cube corners before the inverse CDF blows them up.
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    bad = np.linalg.norm(g, axis=1) < 1e-8
    if np.any(bad):
        g[bad] = ndtri(0.5 + 0.1 * (np.arange(d) + 1.0) / d)
    return unit(g)
