"""Analytic curvature candidates K = 1 + eps * f on S^n.

f is a sum of smooth sphere bumps w * exp(-(1 - <x, c>)/s^2), chosen because all
ambient derivatives are closed-form.  Intrinsic derivatives come from projecting:
with P = I - x x^T the tangential gradient is P (grad f), the covariant Hessian of
the restriction is P (Hess f) P - (x . grad f) P, and the sphere Laplacian is its
trace.  One kernel evaluates both for a stack of points, in two stages:
``_gradients``, then ``_hessians`` from the bump factors the first stage
leaves, for any subset of its rows; ``_derivs`` runs both.  It is the module's
only derivative route, and callers take single points as rows.  The module
locates critical points (Newton batched over a deterministic quasi-uniform
seed set; only the seeds still moving take Hessians and the stacked solve,
and a slogdet runs only when that solve raises), classifies them, extracts
the admissible concentration set {grad K = 0, Lap K < 0} as a parity
configuration, and scans K's range.  Every kernel, here and in ``bubbles``,
reads K through the arrays ``KFunction`` builds once (``centers``, ``weights``,
``widths``, ``widths2``); only ``KFunction`` reads its terms one by one.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .indexcount import ParityConfig
from .sphere import quasi_uniform_points, unit, unit_center


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

#: Iteration cap of the batched Newton search.
NEWTON_ITERS = 80

#: Size of the quasi-uniform sample that ``k_range`` scans before polishing.
K_RANGE_SAMPLES = 1 << 16


@dataclass(frozen=True)
class BumpTerm:
    """One bump: weight * exp(-(1 - <x, center>)/width^2)."""

    center: tuple[float, ...]
    weight: float
    width: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", unit_center(self.center, "bump center"))
        if not math.isfinite(self.weight):
            raise ValueError("bump weight must be finite")
        if not (0.0 < self.width < math.inf):
            raise ValueError("bump width must be positive and finite")

    def to_dict(self) -> dict:
        return {"center": list(self.center), "weight": self.weight, "width": self.width}


@dataclass(frozen=True)
class KFunction:
    """Curvature candidate K = 1 + epsilon * f on S^n.  `epsilon` is the
    declared oscillation bound (membership requires K_max/K_min - 1 < epsilon).
    A constant factor on K scales J and moves no critical point, so K carries
    none.  Its bumps are built once into read-only arrays, ``centers`` (t, n+1),
    ``weights``, ``widths`` and ``widths2`` (t,), which every kernel reads."""

    n: int
    epsilon: float
    terms: tuple[BumpTerm, ...]
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    widths: np.ndarray = field(init=False, repr=False, compare=False)
    widths2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 2:
            raise ValueError("dimension n must be an integer >= 2")
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be positive and finite")
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        for t in terms:
            if len(t.center) != self.n + 1:
                raise ValueError(
                    f"bump center has {len(t.center)} components, expected {self.n + 1}"
                )
        widths = np.array([t.width for t in terms], dtype=float)
        for name, a in [("centers", np.array([t.center for t in terms]).reshape(-1, self.dim)),
                        ("weights", np.array([t.weight for t in terms], dtype=float)),
                        ("widths", widths), ("widths2", widths * widths)]:
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return self.n + 1

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.epsilon,
            "terms": [t.to_dict() for t in self.terms],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KFunction":
        try:
            return cls(
                n=d["n"],
                epsilon=float(d["epsilon"]),
                terms=tuple(BumpTerm(**t) for t in d["terms"]),
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


# -- evaluation --------------------------------------------------------------


def eval_K(K: KFunction, x: np.ndarray) -> float | np.ndarray:
    """K(x) at a point (d,) or a batch (B, d).  Products run row by row (einsum,
    as in ``_derivs``, never threaded BLAS), so a point rounds alike in any batch."""
    x = np.asarray(x, dtype=float)
    cos = np.einsum("bi,ti->bt", np.atleast_2d(x), K.centers)
    f = np.einsum("bt,t->b", np.exp((cos - 1.0) / K.widths2), K.weights)
    out = 1.0 + K.epsilon * f
    return float(out[0]) if x.ndim == 1 else out


def _gradients(K: KFunction, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The derivative kernel's first stage at a stack of unit points X (B, d):
    tangential gradients (B, d), and the bump factors (B, t) and radial parts
    (B,) that ``_hessians`` builds the Hessians from.  Products run row by row
    (einsum, stacked matmul), so a point's derivatives round alike in any
    batch, and a Hessian built from a subset of these rows rounds as one
    built from all of them."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C, s2 = K.centers, K.widths2
    wg = K.weights * np.exp((np.einsum("bi,ti->bt", X, C) - 1.0) / s2)
    amb_grad = np.einsum("bt,ti->bi", wg / s2, C) * K.epsilon
    radial = np.matmul(amb_grad[:, None, :], X[:, :, None])[:, 0, 0]
    return amb_grad - radial[:, None] * X, wg / s2**2, radial


def _hessians(
    K: KFunction, X: np.ndarray, bumps: np.ndarray, radial: np.ndarray
) -> np.ndarray:
    """The kernel's second stage: covariant Hessians (B, d, d) at the unit
    points X (B, d), from the first stage's bump factors and radial parts at
    those points."""
    C = K.centers
    amb_hess = np.matmul(C.T * bumps[:, None, :], C) * K.epsilon
    P = np.eye(K.dim) - X[:, :, None] * X[:, None, :]
    return P @ amb_hess @ P - radial[:, None, None] * P


def _derivs(K: KFunction, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangential gradients (B, d) and covariant Hessians (B, d, d) of K at a
    stack of unit points X (B, d): both stages of the kernel."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    grads, bumps, radial = _gradients(K, X)
    return grads, _hessians(K, X, bumps, radial)


# -- critical point search ----------------------------------------------------


def _newton_batch(K: KFunction, seeds: np.ndarray) -> np.ndarray:
    """Damped Newton on the tangential gradient, one batched step over all live
    seeds per iteration.  Returns the converged points, in seed order.

    The covariant Hessian H kills x, so A = H + x x^T is invertible exactly
    when the tangent Hessian B^T H B is (B any orthonormal tangent frame), and
    the solution of A delta = -g is the tangent Newton step
    B (B^T H B)^{-1} (-B^T g) with zero x-component.  One stacked solve thus
    replaces the per-seed frames.  A seed stops when its gradient norm is
    below the convergence threshold, when it has not halved in
    ``STALL_ITERS`` iterations, or at the ``NEWTON_ITERS`` cap; an abandoned
    seed fails the final ``GRAD_NORM_TOL`` filter unless it had converged.

    The live rows travel as one compacted stack.  Each iteration takes their
    gradients and retires the rows that stop; only the rows still moving
    take a Hessian and a place in the stacked solve.  Only if that solve
    raises does a batched slogdet find the exactly singular A (sign 0): those
    rows take the gradient step -g and the rest are solved as one stack, with
    the same bits, as LAPACK factors each matrix on its own.  The final
    filter takes gradients only.
    """
    X = seeds.copy()
    # characteristic gradient magnitude, for the convergence threshold
    gscale = K.epsilon * sum(np.abs(K.weights) / K.widths2)
    tol = max(GRAD_NORM_TOL * 0.1, 1e-15 * gscale)
    # the live rows: their places in X, their points, and each one's gradient
    # norm at its last halving and that iteration
    idx, pts = np.arange(len(X)), seeds
    ref, last = np.full(len(X), np.inf), np.zeros(len(X), dtype=int)

    for it in range(NEWTON_ITERS):
        grads, bumps, radial = _gradients(K, pts)
        gnorm = np.linalg.norm(grads, axis=1)
        halved = gnorm <= 0.5 * ref
        ref[halved], last[halved] = gnorm[halved], it
        done = (gnorm < tol) | (it - last >= STALL_ITERS)
        # a stopped row is written back as after a zero step (+ 0.0 turns -0.0
        # into 0.0, which a reported location would show)
        X[idx[done]] = unit(pts[done] + 0.0)
        moving = ~done
        idx, pts, grads, bumps, radial, ref, last = (
            a[moving] for a in (idx, pts, grads, bumps, radial, ref, last)
        )
        if not len(idx):
            break
        A = _hessians(K, pts, bumps, radial) + pts[:, :, None] * pts[:, None, :]
        steps = -grads  # gradient fallback at singular Hessians
        try:
            steps = np.linalg.solve(A, steps[:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            regular = np.linalg.slogdet(A)[0] != 0
            steps[regular] = np.linalg.solve(A[regular], steps[regular, :, None])[..., 0]
        nrm = np.linalg.norm(steps, axis=1)
        # trust region: cap the geodesic step
        steps *= np.minimum(1.0, 0.5 / np.maximum(nrm, 1e-300))[:, None]
        pts = unit(pts + steps)
    X[idx] = pts  # rows still moving at the iteration cap

    # final filter: keep points whose gradient truly vanished
    return X[np.linalg.norm(_gradients(K, X)[0], axis=1) < GRAD_NORM_TOL]


def _distinct(points: np.ndarray) -> np.ndarray:
    """Greedy first-seen dedup by geodesic distance (the cross-norm atan2 form,
    accurate at small angles): each kept point, in order, drops the later rows
    within 1e-6 rad of it.  Only rows with cosine above 1 - 1e-10 (chord below
    1.415e-5) take the atan2 form, and they project within that chord on any
    unit axis: so only rows within 2e-5 of another on a fixed axis take a
    matrix-vector scan, found by one sort, and no N x N product is formed."""
    proj = points @ unit(np.arange(1.0, points.shape[1] + 1))
    order = np.argsort(proj)
    close = np.zeros(len(points), dtype=bool)
    pair = np.diff(proj[order]) <= 2e-5
    close[order[1:][pair]] = close[order[:-1][pair]] = True
    keep = np.ones(len(points), dtype=bool)
    for i in np.flatnonzero(close):
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
    try:
        seeds = operator.index(seeds)
    except TypeError:
        raise ValueError(f"seeds must be an integer, got {seeds!r}") from None
    if seeds < 0:
        raise ValueError(f"seeds must be at least 0, got {seeds}")
    if not K.weights.any():
        raise H1ViolationError(
            "H1 violated: f vanishes identically, every point of the sphere "
            "is a degenerate critical point"
        )
    d, C = K.dim, K.centers
    seed_pts = [quasi_uniform_points(K.n, seeds), C, -C]
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
    computing tables generally override it).  Warns when the inventory fails
    the Euler characteristic check (points were missed); ``ParityConfig``
    warns when m < 2 and refuses a highest point that is not a maximum.
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
    return ParityConfig(n=n, parities=parities, N=N)


# -- range and membership -----------------------------------------------------


def k_range(K: KFunction) -> tuple[float, float]:
    """(K_min, K_max) over ``K_RANGE_SAMPLES`` quasi-uniform points, polished
    by Newton on the tangential gradient from the best grid points."""
    grid = quasi_uniform_points(K.n, K_RANGE_SAMPLES)
    vals = eval_K(K, grid)
    kmin, kmax = float(np.min(vals)), float(np.max(vals))
    if K.terms:
        refined = _newton_batch(K, grid[[int(np.argmin(vals)), int(np.argmax(vals))]])
        for v in eval_K(K, refined):
            kmin = min(kmin, float(v))
            kmax = max(kmax, float(v))
    return kmin, kmax


def epsilon_membership(K: KFunction) -> tuple[float, bool]:
    """(K_max/K_min - 1, within declared epsilon?)."""
    kmin, kmax = k_range(K)
    if kmin <= 0:
        raise ValueError(f"K must be positive; sampled minimum is {kmin:.6g}")
    ratio = kmax / kmin - 1.0
    return ratio, ratio < K.epsilon
