"""Analytic curvature candidates K = scale * (1 + eps * f) on S^n.

f is a sum of smooth sphere bumps w * exp(-(1 - <x, c>)/s^2), chosen because all
ambient derivatives are closed-form.  Intrinsic derivatives come from projecting:
with P = I - x x^T the tangential gradient is P (grad f), the covariant Hessian of
the restriction is P (Hess f) P - (x . grad f) P, and the sphere Laplacian is its
trace.  One kernel, ``_derivs``, evaluates both for a stack of points.  The
module locates critical points (Newton batched over a deterministic
quasi-uniform seed set), classifies them, extracts the admissible concentration
set {grad K = 0, Lap K < 0} as a parity configuration, and scans K's range.
``admissible_epsilon`` is re-exported from ``indexcount``, which needs no numpy.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .indexcount import H3Warning, ParityConfig, admissible_epsilon  # noqa: F401 (re-export)
from .sphere import check_unit, quasi_uniform_points, unit


class H1ViolationError(ValueError):
    """The candidate is degenerate: every point critical, or a critical point
    fails the nondegeneracy / nonzero-Laplacian requirements."""


#: Hessian nondegeneracy tolerance: min |eigenvalue| must exceed this fraction of
#: the largest magnitude.  Separates genuine degeneracy from roundoff.
NONDEGENERACY_RATIO = 1e-6

#: Absolute tangential-gradient norm required of a reported critical point.
GRAD_NORM_TOL = 1e-10

#: A Newton seed whose gradient norm has not halved in this many iterations
#: stops: inside a nondegenerate basin Newton at least halves it every step.
STALL_ITERS = 8


@dataclass(frozen=True)
class BumpTerm:
    """One bump: weight * exp(-(1 - <x, center>)/width^2)."""

    center: tuple[float, ...]
    weight: float
    width: float

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=float)
        if abs(float(np.linalg.norm(c)) - 1.0) > 1e-9:
            raise ValueError("bump center must be a unit vector")
        object.__setattr__(self, "center", tuple(float(v) for v in c))
        if not (self.width > 0):
            raise ValueError("bump width must be positive")

    def to_dict(self) -> dict:
        return {"center": list(self.center), "weight": self.weight, "width": self.width}


@dataclass(frozen=True)
class KFunction:
    """Curvature candidate on S^n.  `epsilon` is the declared oscillation bound
    (membership requires K_max/K_min - 1 < epsilon); `scale` is the recorded
    normalization factor (1.0 unless `normalize` produced this instance)."""

    n: int
    epsilon: float
    terms: tuple[BumpTerm, ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("dimension n must be an integer >= 2")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (self.scale > 0):
            raise ValueError("scale must be positive")
        terms = tuple(
            t if isinstance(t, BumpTerm) else BumpTerm(**t) for t in self.terms
        )
        object.__setattr__(self, "terms", terms)
        for t in terms:
            if len(t.center) != self.n + 1:
                raise ValueError(
                    f"bump center has {len(t.center)} components, expected {self.n + 1}"
                )

    @property
    def dim(self) -> int:
        return self.n + 1

    def centers(self) -> np.ndarray:
        return np.array([t.center for t in self.terms], dtype=float).reshape(
            -1, self.dim
        )

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "epsilon": self.epsilon,
            "terms": [t.to_dict() for t in self.terms],
        }
        if self.scale != 1.0:
            d["scale"] = self.scale
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "KFunction":
        try:
            return cls(
                n=int(d["n"]),
                epsilon=float(d["epsilon"]),
                terms=tuple(BumpTerm(**t) for t in d["terms"]),
                scale=float(d.get("scale", 1.0)),
            )
        except KeyError as exc:
            raise ValueError(f"curvature candidate is missing field {exc}") from exc


@dataclass(frozen=True)
class CriticalPoint:
    """A nondegenerate critical point of K with its classification."""

    location: tuple[float, ...]
    value: float
    morse_index_K: int
    co_index: int
    laplacian: float
    laplacian_sign: int
    grad_norm: float
    hess_eigenvalues: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "location": list(self.location),
            "value": self.value,
            "morse_index_K": self.morse_index_K,
            "co_index": self.co_index,
            "laplacian": self.laplacian,
            "laplacian_sign": self.laplacian_sign,
            "grad_norm": self.grad_norm,
            "hess_eigenvalues": list(self.hess_eigenvalues),
        }


# -- evaluation --------------------------------------------------------------


def eval_K(K: KFunction, x: np.ndarray) -> float | np.ndarray:
    """K(x) at a point (d,) or a batch (B, d).  Products run row by row (einsum,
    as in ``_derivs``, never threaded BLAS), so a point rounds alike in any batch."""
    x = np.asarray(x, dtype=float)
    w = np.array([term.weight for term in K.terms])
    s2 = np.array([term.width**2 for term in K.terms])
    cos = np.einsum("bi,ti->bt", np.atleast_2d(x), K.centers())
    f = np.einsum("bt,t->b", np.exp((cos - 1.0) / s2), w)
    out = K.scale * (1.0 + K.epsilon * f)
    return float(out[0]) if x.ndim == 1 else out


def _derivs(K: KFunction, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangential gradients (B, d) and covariant Hessians (B, d, d) of K at a
    stack of unit points X (B, d).  Products run row by row (einsum, stacked
    matmul), so a point's derivatives round alike in any batch."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = K.centers()
    w = np.array([term.weight for term in K.terms])
    s2 = np.array([term.width**2 for term in K.terms])
    se = K.scale * K.epsilon
    wg = w * np.exp((np.einsum("bi,ti->bt", X, C) - 1.0) / s2)
    amb_grad = np.einsum("bt,ti->bi", wg / s2, C) * se
    amb_hess = np.matmul(C.T * (wg / s2**2)[:, None, :], C) * se
    radial = np.matmul(amb_grad[:, None, :], X[:, :, None])[:, 0, 0]
    P = np.eye(K.dim) - X[:, :, None] * X[:, None, :]
    return amb_grad - radial[:, None] * X, P @ amb_hess @ P - radial[:, None, None] * P


def grad_K(K: KFunction, x: np.ndarray) -> np.ndarray:
    """Tangential gradient of K at unit x (single point)."""
    x = np.asarray(x, dtype=float)
    check_unit(x)
    return _derivs(K, x)[0][0]


def hess_K(K: KFunction, x: np.ndarray) -> np.ndarray:
    """Covariant Hessian of K|_{S^n} at unit x, as a (d, d) matrix acting on the
    tangent space (rows/columns in ambient coordinates)."""
    x = np.asarray(x, dtype=float)
    check_unit(x)
    return _derivs(K, x)[1][0]


def laplace_K(K: KFunction, x: np.ndarray) -> float:
    """Sphere Laplacian of K at unit x: the trace of the covariant Hessian."""
    return float(np.trace(hess_K(K, x)))


# -- critical point search ----------------------------------------------------


def _newton_batch(K: KFunction, seeds: np.ndarray, iters: int = 80) -> np.ndarray:
    """Damped Newton on the tangential gradient, one batched step over all live
    seeds per iteration.  Returns the converged points, in seed order.

    The covariant Hessian H kills x, so A = H + x x^T is invertible exactly
    when the tangent Hessian B^T H B is (B any orthonormal tangent frame), and
    the solution of A delta = -g is the tangent Newton step
    B (B^T H B)^{-1} (-B^T g) with zero x-component.  One stacked solve thus
    replaces the per-seed frames.  One batched slogdet finds the exactly
    singular A (sign 0); those rows take the gradient step -g and the rest
    are solved as one stack.  A seed stops when its gradient norm is below
    the convergence threshold, when it has not halved in ``STALL_ITERS``
    iterations, or at the ``iters`` cap; an abandoned seed fails the final
    ``GRAD_NORM_TOL`` filter unless it had already converged.
    """
    X = seeds.copy()
    alive = np.ones(len(X), dtype=bool)
    # characteristic gradient magnitude, for the convergence threshold
    gscale = K.scale * K.epsilon * sum(abs(t.weight) / t.width**2 for t in K.terms)
    tol = max(GRAD_NORM_TOL * 0.1, 1e-15 * gscale)
    # each seed's gradient norm at its last halving, and that iteration
    ref, last = np.full(len(X), np.inf), np.zeros(len(X), dtype=int)

    for it in range(iters):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        pts = X[idx]
        grads, hess = _derivs(K, pts)
        gnorm = np.linalg.norm(grads, axis=1)
        halved = gnorm <= 0.5 * ref[idx]
        ref[idx[halved]], last[idx[halved]] = gnorm[halved], it
        done = (gnorm < tol) | (it - last[idx] >= STALL_ITERS)
        A = hess + pts[:, :, None] * pts[:, None, :]
        regular = np.linalg.slogdet(A)[0] != 0
        steps = -grads  # gradient fallback at singular Hessians
        steps[regular] = np.linalg.solve(A[regular], steps[regular, :, None])[..., 0]
        nrm = np.linalg.norm(steps, axis=1)
        # trust region: cap the geodesic step
        steps *= np.minimum(1.0, 0.5 / np.maximum(nrm, 1e-300))[:, None]
        steps[done] = 0.0
        X[idx] = unit(pts + steps)
        alive[idx[done]] = False

    # final filter: keep points whose gradient truly vanished
    return X[np.linalg.norm(_derivs(K, X)[0], axis=1) < GRAD_NORM_TOL]


def _distinct(points: np.ndarray) -> np.ndarray:
    """Greedy first-seen dedup by geodesic distance (the cross-norm atan2 form,
    accurate at small angles): each kept point, in order, drops the later rows
    within 1e-6 rad of it.  One matrix-vector product per kept point and no N x N
    one; only rows with cosine above 1 - 1e-10 (within 1.5e-5 rad) can be that
    close, so only they take the atan2 form."""
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


def find_critical_points(K: KFunction, seeds: int = 512) -> list[CriticalPoint]:
    """Locate and classify critical points of K.

    Newton iteration on the tangential gradient runs from a quasi-uniform seed
    set augmented with the bump centers, their antipodes, and normalized
    center pair sums/differences (cheap insurance for ridges and cols).  A
    seed is abandoned by the stall rule (``STALL_ITERS``) or the 80-iteration
    cap, so completeness is best effort: ``euler_characteristic_diagnostic``
    is the alarm for a missed point.  Results are deduplicated by geodesic
    distance and classified in one batch: the tangent Hessian's eigenvalues
    are those of the covariant Hessian with its normal direction shifted
    below them.

    Degenerate candidates (f identically zero) raise H1ViolationError; points
    whose Hessian fails the nondegeneracy ratio or whose Laplacian is
    numerically zero are dropped with a warning, since they violate the
    standing nondegeneracy hypotheses.
    """
    if not K.terms or all(t.weight == 0.0 for t in K.terms) or K.epsilon == 0.0:
        raise H1ViolationError(
            "H1 violated: f vanishes identically, every point of the sphere "
            "is a degenerate critical point"
        )
    d = K.dim
    seed_pts = [quasi_uniform_points(K.n, seeds)]
    C = K.centers()
    seed_pts.append(C)
    seed_pts.append(-C)
    for i in range(len(C)):
        for j in range(i + 1, len(C)):
            for combo in (C[i] + C[j], C[i] - C[j]):
                nrm = np.linalg.norm(combo)
                if nrm > 1e-8:
                    seed_pts.append((combo / nrm).reshape(1, d))
    all_seeds = np.vstack(seed_pts)

    distinct = _distinct(_newton_batch(K, all_seeds))

    # H x = 0: shifting x's direction down by sigma = 2 sum|H| > |H| sorts it
    # below the tangent eigenvalues, no frame needed, rounding relative to |H|
    grads, hess = _derivs(K, distinct)
    sigma = 2.0 * np.abs(hess).sum(axis=(1, 2))
    shifted = hess - sigma[:, None, None] * distinct[:, :, None] * distinct[:, None, :]
    eigs = np.linalg.eigvalsh(shifted)[:, 1:]
    laps = np.trace(hess, axis1=1, axis2=2)
    floor = NONDEGENERACY_RATIO * np.abs(eigs).max(axis=1)
    good = (np.abs(eigs).min(axis=1) > floor) & (np.abs(laps) > floor)
    points: list[CriticalPoint] = []
    for x, g, lap, ev, value in zip(
        distinct[good], grads[good], laps[good], eigs[good], eval_K(K, distinct[good])
    ):
        mi = int(np.sum(ev < 0))
        points.append(
            CriticalPoint(
                location=tuple(float(v) for v in x),
                value=float(value),
                morse_index_K=mi,
                co_index=K.n - mi,
                laplacian=float(lap),
                laplacian_sign=1 if lap > 0 else -1,
                grad_norm=float(np.linalg.norm(g)),
                hess_eigenvalues=tuple(float(v) for v in ev),
            )
        )
    if not good.all():
        warnings.warn(
            f"dropped {np.sum(~good)} degenerate critical point(s); the candidate "
            "violates the nondegeneracy hypotheses there",
            stacklevel=2,
        )
    # deterministic order: by value descending, then lexicographic location
    points.sort(key=lambda p: (-p.value, tuple(round(v, 9) for v in p.location)))
    return points


def euler_characteristic_diagnostic(
    points: list[CriticalPoint], n: int
) -> tuple[int, int, bool]:
    """(alternating sum, expected Euler characteristic, match?).

    Sum of (-1)^{morse index} over a complete critical inventory must equal
    1 + (-1)^n.  A mismatch flags missed points, not an error.
    """
    total = sum((-1) ** p.morse_index_K for p in points)
    expected = 1 + (-1) ** n
    return total, expected, total == expected


def k_infinity_points(points: list[CriticalPoint]) -> list[CriticalPoint]:
    """Filter to the admissible concentration set (negative Laplacian), ordered
    with the global maximum first, then by descending value."""
    admissible = [p for p in points if p.laplacian_sign < 0]
    if not admissible:
        raise H1ViolationError(
            "no critical point with negative Laplacian found; a smooth "
            "nonconstant candidate must have one at its global maximum"
        )
    admissible.sort(key=lambda p: (-p.value, tuple(round(v, 9) for v in p.location)))
    return admissible


def extract_K_infinity(points: list[CriticalPoint], N: int = 1) -> ParityConfig:
    """Parity configuration of the admissible concentration set.

    The level cap N is carried into the configuration (defaults to 1; callers
    computing tables generally override it).  Warns when m < 2, and when the
    inventory fails the Euler characteristic check (points were missed).
    """
    admissible = k_infinity_points(points)
    n = len(admissible[0].location) - 1
    euler_sum, euler_expected, euler_match = euler_characteristic_diagnostic(points, n)
    if not euler_match:
        warnings.warn(
            f"critical inventory is incomplete: {len(points)} points, alternating "
            f"index sum {euler_sum} != Euler characteristic {euler_expected}",
            stacklevel=2,
        )
    parities = tuple(p.co_index % 2 for p in admissible)
    if parities and parities[0] != 0:
        warnings.warn(
            "highest-value admissible point is not a local maximum; the "
            "critical inventory is likely incomplete",
            stacklevel=2,
        )
    if len(parities) < 2:
        warnings.warn("m < 2: multiplicity hypotheses fail", H3Warning, stacklevel=2)
    return ParityConfig(n=n, parities=parities, N=N)


# -- normalization ------------------------------------------------------------


def k_range(K: KFunction, samples: int = 1 << 16, polish: bool = True) -> tuple[float, float]:
    """(K_min, K_max) over a dense deterministic sample, optionally polished by
    Newton on the tangential gradient from the best grid points."""
    grid = quasi_uniform_points(K.n, samples)
    vals = eval_K(K, grid)
    kmin, kmax = float(np.min(vals)), float(np.max(vals))
    if polish and K.terms:
        refined = _newton_batch(K, grid[[int(np.argmin(vals)), int(np.argmax(vals))]])
        for v in eval_K(K, refined):
            kmin = min(kmin, float(v))
            kmax = max(kmax, float(v))
    return kmin, kmax


def check_positive(K: KFunction, samples: int = 1 << 16) -> None:
    """Raise if K is not positive on a dense sample."""
    kmin, _ = k_range(K, samples)
    if kmin <= 0:
        raise ValueError(f"K must be positive; sampled minimum is {kmin:.6g}")


def epsilon_membership(K: KFunction, samples: int = 1 << 16) -> tuple[float, bool]:
    """(K_max/K_min - 1, within declared epsilon?)."""
    kmin, kmax = k_range(K, samples)
    if kmin <= 0:
        raise ValueError(f"K must be positive; sampled minimum is {kmin:.6g}")
    ratio = kmax / kmin - 1.0
    return ratio, ratio < K.epsilon


def normalize(K: KFunction, samples: int = 1 << 16) -> KFunction:
    """Rescale so the minimum of K is 1; the applied factor is recorded in the
    returned instance's `scale` field (scale_new = scale_old / K_min)."""
    kmin, _ = k_range(K, samples)
    if kmin <= 0:
        raise ValueError(f"K must be positive to normalize; minimum is {kmin:.6g}")
    return KFunction(
        n=K.n, epsilon=K.epsilon, terms=K.terms, scale=K.scale / kmin
    )
