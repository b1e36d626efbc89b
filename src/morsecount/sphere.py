"""Small geometry kit for the round unit sphere S^n embedded in R^{n+1}."""
from __future__ import annotations

import math
from functools import cache, reduce
from operator import xor

import numpy as np


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize the last axis to unit length."""
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@cache
def sphere_area(n: int) -> float:
    """Surface measure of S^n, n an integer >= 0: 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    if not (n >= 0 and float(n).is_integer()):  # NaN fails too
        raise ValueError(f"dimension must be an integer >= 0, got {n!r}")
    if n > 342:  # Gamma((n + 1) / 2) overflows a float
        raise ValueError(f"sphere_area supports dimensions up to 342, got {n!r}")
    return float(2.0 * math.pi ** ((n + 1) / 2) / math.exp(gammaln((n + 1) / 2)))


def unit_center(center, label: str) -> tuple[float, ...]:
    """``center`` as a tuple of floats, refused unless its norm is within 1e-9 of 1."""
    c = np.asarray(center, dtype=float)
    if not abs(float(np.linalg.norm(c)) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"{label} must be a unit vector")
    return tuple(float(v) for v in c)


def geodesic_distance(x, y) -> float:
    """Great-circle distance, computed through the cross-norm for small-angle accuracy."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
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


# Cephes' ndtri and lgam (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), ported with every floating-point operation in Cephes' order, so that they equal
# scipy.special's ndtri and gammaln bit for bit.  Their polynomials take only +, * and /,
# which numpy rounds as C does; every log is libm's, through math.log, because numpy's
# SIMD log can differ from it in the last bit.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)


def _polevl(x, coef, monic=False):
    """Horner's rule, Cephes' polevl; ``monic`` is its p1evl, whose leading 1.0 is implicit."""
    acc = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _libm_log(v: np.ndarray) -> np.ndarray:
    """Elementwise natural log through libm (``math.log``), one element at a time."""
    return np.fromiter(map(math.log, v.tolist()), float, v.size)


def ndtri(y: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise on (0, 1); Cephes' ndtri."""
    y = np.asarray(y, dtype=float)
    if not np.all((0.0 < y) & (y < 1.0)):  # NaN fails too
        raise ValueError("ndtri takes arguments in the open interval (0, 1)")
    upper = y > 1.0 - _EXP_M2
    t = np.where(upper, 1.0 - y, y)
    mid = t > _EXP_M2
    out = np.empty_like(y)
    c = t[mid] - 0.5
    c2 = c * c
    c = c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0, True))
    out[mid] = c * 2.50662827463100050242  # sqrt(2 pi)
    # tails below exp(-2): a series in 1/x, x = sqrt(-2 log t), with P2/Q2 past x = 8
    # (t < exp(-32)); each distinct t takes its two logs once
    tails, back = np.unique(t[~mid], return_inverse=True)
    x = np.sqrt(-2.0 * _libm_log(tails))
    z = 1.0 / x
    x1 = np.where(
        x < 8.0,
        z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1, True),
        z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2, True),
    )
    tail = (x - _libm_log(x) / x - x1)[back]
    out[~mid] = np.where(upper[~mid], tail, -tail)
    return out


def gammaln(x: float) -> float:
    """log Gamma(x) for finite x > 0; Cephes' lgam."""
    x = float(x)
    if not 0.0 < x < math.inf:  # NaN fails too
        raise ValueError(f"gammaln takes a finite x > 0, got {x!r}")
    if x < 13.0:
        # recur into [2, 3), carrying the product of the shifts in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C, True)
    if x > 2.556348e305:  # Cephes' MAXLGM: the result overflows
        return math.inf
    # Stirling's series
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


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
