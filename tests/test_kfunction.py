"""Curvature-candidate tests: analytic derivatives vs finite differences,
critical point location vs dense grid search, admissibility threshold vs a
high-precision oracle."""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from morsecount import kfunc
from morsecount.kfunc import (
    GRAD_NORM_TOL,
    BumpTerm,
    H1ViolationError,
    KFunction,
    ParityConfig,
    epsilon_membership,
    euler_characteristic_diagnostic,
    eval_K,
    extract_K_infinity,
    find_critical_points,
    k_range,
)
from morsecount import sphere
from morsecount.indexcount import H3Warning, admissible_epsilon
from morsecount.presets import available_presets, load_preset
from morsecount.sphere import quasi_uniform_points, tangent_basis, unit
from oracles import (
    one_stage_derivs,
    scan_every_point_distinct,
    scipy_quasi_uniform_points,
    slogdet_first_newton_batch,
)


def bump(center, weight=1.0, width=0.5):
    return BumpTerm(center=tuple(center), weight=weight, width=width)


def sample_K(n=3, seed=7):
    rng = np.random.default_rng(seed)
    centers = unit(rng.standard_normal((3, n + 1)))
    terms = tuple(
        bump(c, weight=w, width=s)
        for c, w, s in zip(centers, (0.4, -0.25, 0.3), (0.45, 0.6, 0.35))
    )
    return KFunction(n=n, epsilon=0.1, terms=terms)


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: unlike np.array_equal, 0.0 and -0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# derivative consistency (finite-difference oracles)
# ---------------------------------------------------------------------------


def fd_tangential_gradient(K, x, h=1e-6):
    B = tangent_basis(x)
    g = np.zeros(K.n)
    for j in range(K.n):
        xp = unit(x + h * B[:, j])
        xm = unit(x - h * B[:, j])
        g[j] = (eval_K(K, xp) - eval_K(K, xm)) / (2 * h)
    return B @ g


def fd_laplacian(K, x, h=1e-4):
    """Second-order intrinsic Laplacian: sum of geodesic second differences
    along an orthonormal tangent frame."""
    B = tangent_basis(x)
    total = 0.0
    f0 = eval_K(K, x)
    for j in range(K.n):
        v = B[:, j]
        xp = math.cos(h) * x + math.sin(h) * v
        xm = math.cos(h) * x - math.sin(h) * v
        total += (eval_K(K, xp) - 2 * f0 + eval_K(K, xm)) / h**2
    return total


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradient_matches_finite_differences(seed):
    K = sample_K(seed=seed)
    rng = np.random.default_rng(100 + seed)
    for _ in range(5):
        x = unit(rng.standard_normal(4))
        g = kfunc._derivs(K, x)[0][0]
        g_fd = fd_tangential_gradient(K, x)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(1.0, np.linalg.norm(g))
        assert abs(np.dot(g, x)) < 1e-12  # tangential


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_laplacian_matches_finite_differences(seed):
    K = sample_K(seed=seed)
    rng = np.random.default_rng(200 + seed)
    for _ in range(5):
        x = unit(rng.standard_normal(4))
        lap = np.trace(kfunc._derivs(K, x)[1][0])
        lap_fd = fd_laplacian(K, x)
        assert abs(lap - lap_fd) <= 1e-6 * max(1.0, abs(lap))


def test_tangent_basis_is_orthonormal_next_to_the_axes():
    # a point a hair off a coordinate axis: one Gram-Schmidt pass left
    # columns 5e-5 out of the tangent space, and the chart's exp_map off
    # the sphere (a flow on three-max-one-saddle ends at this center)
    points = [np.array([0.9999998674180557, 5.149406488086283e-4,
                        9.773322383279146e-12, -9.943815278185603e-12])]
    rng = np.random.default_rng(5)
    for d in (3, 4, 5):
        for j in range(d):
            for offset in (1e-3, 1e-6, 1e-9, 1e-12):
                x = np.zeros(d)
                x[j] = rng.choice([-1.0, 1.0])
                points.append(unit(x + offset * rng.standard_normal(d)))
    for x in points:
        B = tangent_basis(x)
        assert B.shape == (len(x), len(x) - 1)
        assert np.abs(x @ B).max() < 1e-15
        assert np.abs(B.T @ B - np.eye(len(x) - 1)).max() < 1e-15


def test_hessian_is_tangent_and_traces_to_laplacian():
    K = sample_K()
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = unit(rng.standard_normal(4))
        H = kfunc._derivs(K, x)[1][0]
        assert np.allclose(H, H.T, atol=1e-12)
        assert np.linalg.norm(H @ x) < 1e-12  # x is in the kernel


def test_hessian_matches_second_differences_of_gradient():
    K = sample_K(seed=5)
    x = unit(np.array([0.3, -0.5, 0.2, 0.9]))
    B = tangent_basis(x)
    H = B.T @ kfunc._derivs(K, x)[1][0] @ B
    h = 1e-5
    H_fd = np.zeros((3, 3))
    for j in range(3):
        xp = unit(x + h * B[:, j])
        xm = unit(x - h * B[:, j])
        # compare tangential gradients transported by projection onto the
        # frame at x (first-order parallel transport is projection here)
        gp = B.T @ kfunc._derivs(K, xp)[0][0]
        gm = B.T @ kfunc._derivs(K, xm)[0][0]
        H_fd[:, j] = (gp - gm) / (2 * h)
    H_fd = 0.5 * (H_fd + H_fd.T)
    assert np.max(np.abs(H - H_fd)) < 1e-5 * max(1.0, np.max(np.abs(H)))


@pytest.mark.parametrize(
    "K",
    [sample_K(seed=0), sample_K(seed=3), sample_K(n=2, seed=1),
     load_preset("three-max-one-saddle"), load_preset("two-bump-antipodal")],
)
def test_batched_derivatives_are_tangent_and_match_the_wrappers(K):
    """The Newton step needs H x = 0 and g . x = 0; a one-point call is a row
    of the batched kernel."""
    X = unit(np.random.default_rng(17).standard_normal((40, K.dim)))
    grads, hess = kfunc._derivs(K, X)
    assert np.max(np.abs(np.einsum("bij,bj->bi", hess, X))) < 1e-12
    assert np.max(np.abs(np.einsum("bi,bi->b", grads, X))) < 1e-12
    for x, g, H in zip(X, grads, hess):
        assert np.linalg.norm(kfunc._derivs(K, x)[1][0] @ x) < 1e-12
        assert abs(np.dot(kfunc._derivs(K, x)[0][0], x)) < 1e-12
        # row-wise products: a point's derivatives do not depend on its batch
        assert np.array_equal(kfunc._derivs(K, x)[0][0], g)
        assert np.array_equal(kfunc._derivs(K, x)[1][0], H)
    # the two stages round as the one-stage kernel did, and Hessians built
    # from some rows of the first stage as the same rows built from all
    want_grads, want_hess = one_stage_derivs(K, X)
    assert same_bits(grads, want_grads) and same_bits(hess, want_hess)
    rows = np.arange(0, len(X), 3)
    _, bumps, radial = kfunc._gradients(K, X)
    assert same_bits(kfunc._hessians(K, X[rows], bumps[rows], radial[rows]), hess[rows])


# critical values (descending) and (K_min, K_max) of the curvature presets, as
# computed when eval_K still multiplied through BLAS; row-wise products keep them
PRESET_VALUES = {
    "three-bump-s3": (
        [1.1392371245189632, 1.125106421563653, 1.1050004912726705,
         1.1020881383731742, 1.0172810175855496, 1.0000963739759468],
        (1.0000963739759468, 1.1392371245189632),
    ),
    "three-max-one-saddle": (
        [1.100421397224317, 1.0904462170765647, 1.0804709746763381,
         1.0256977935045366, 1.0242096615520642, 1.022992768203927],
        (1.004924787463132, 1.100421397224317),
    ),
    "two-bump-antipodal": (
        [1.0999664537372098, 0.9000335462627902],
        (0.9000335462627902, 1.0999664537372098),
    ),
}


@pytest.mark.filterwarnings("ignore:dropped")
@pytest.mark.parametrize("name", sorted(PRESET_VALUES))
def test_eval_k_rounds_a_point_alike_alone_or_in_a_batch(name):
    K = load_preset(name)
    X = unit(np.random.default_rng(23).standard_normal((200, K.dim)))
    batch = eval_K(K, X)
    assert all(eval_K(K, x) == v for x, v in zip(X, batch))
    values, krange = PRESET_VALUES[name]
    assert [p.value for p in find_critical_points(K)] == values
    assert k_range(K) == krange


def test_constant_candidate():
    K = KFunction(n=3, epsilon=0.05, terms=())
    x = unit(np.array([1.0, 2.0, -1.0, 0.5]))
    assert eval_K(K, x) == 1.0
    assert np.all(kfunc._derivs(K, x)[0][0] == 0.0)
    assert np.trace(kfunc._derivs(K, x)[1][0]) == 0.0


ARRAY_FORM = ("centers", "weights", "widths", "widths2")


def test_array_form_is_read_only_and_built_from_the_terms():
    K = sample_K()
    for name in ARRAY_FORM:
        with pytest.raises(ValueError, match="read-only"):
            getattr(K, name)[0] = 0.0
    assert same_bits(K.centers, np.array([t.center for t in K.terms]))
    assert same_bits(K.weights, np.array([t.weight for t in K.terms]))
    assert same_bits(K.widths, np.array([t.width for t in K.terms]))
    assert same_bits(K.widths2, np.array([t.width * t.width for t in K.terms]))

    empty = KFunction(n=4, epsilon=0.05, terms=())
    assert empty.centers.shape == (0, 5)
    assert [getattr(empty, name).shape for name in ARRAY_FORM[1:]] == [(0,)] * 3

    one = dataclasses.replace(K, terms=K.terms[1:2])
    assert same_bits(one.centers, K.centers[1:2])
    assert same_bits(one.widths2, K.widths2[1:2])
    assert one.weights.tolist() == [K.terms[1].weight]


def test_array_form_leaves_equality_hash_and_repr_to_the_terms():
    K, twin = sample_K(), sample_K()
    assert K == twin and hash(K) == hash(twin)
    assert K != dataclasses.replace(K, terms=K.terms[:2])
    assert repr(K) == f"KFunction(n=3, epsilon=0.1, terms={K.terms!r})"


def test_single_bump_center_is_a_max_with_negative_laplacian():
    c = np.array([0.0, 0.0, 0.0, 1.0])
    K = KFunction(n=3, epsilon=0.1, terms=(bump(c, weight=1.0, width=0.5),))
    assert np.linalg.norm(kfunc._derivs(K, c)[0][0]) < 1e-14
    H = kfunc._derivs(K, c)[1][0]
    eigs = np.linalg.eigvalsh(H)
    # three tangent directions strictly negative, the x-kernel direction zero
    assert np.sum(eigs < -1e-12) == 3
    assert np.trace(H) < 0


# ---------------------------------------------------------------------------
# quasi-uniform seeds
# ---------------------------------------------------------------------------


def test_quasi_uniform_points_match_the_scipy_route_bit_for_bit():
    from scipy.stats import qmc

    for n in range(len(sphere._SOBOL_TABLE)):
        # point 1 is the all-0.5 corner, which takes the fallback row
        assert np.all(sphere._sobol(n + 1, 4)[1] == 0.5)
        for count in (1, 16, 512, 1000, 2**16):
            got = quasi_uniform_points(n, count)
            want = scipy_quasi_uniform_points(n, count)
            assert np.array_equal(got, want), (n, count)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (n, count)
    for d in range(1, len(sphere._SOBOL_TABLE) + 1):
        want = qmc.Sobol(d, scramble=False).random_base2(16)  # each 2**m is a prefix
        for m in range(4, 17):
            assert np.array_equal(sphere._sobol(d, m), want[: 2**m]), (d, m)


@pytest.mark.parametrize(
    "n, count", [(len(sphere._SOBOL_TABLE), 16), (-1, 16), (3, 2**30 + 1), (3, -1)]
)
def test_quasi_uniform_points_refuse_past_the_table(n, count, monkeypatch):
    def drawn(*args):
        raise AssertionError("points drawn before the limit was checked")

    monkeypatch.setattr(sphere, "_sobol", drawn)
    with pytest.raises(ValueError, match=r"n <= 20 and 0 <= count <= 2\*\*30"):
        quasi_uniform_points(n, count)


# ---------------------------------------------------------------------------
# critical point search
# ---------------------------------------------------------------------------


def test_degenerate_candidate_raises():
    with pytest.raises(H1ViolationError):
        find_critical_points(KFunction(n=3, epsilon=0.05, terms=()))
    terms = (bump(np.array([0.0, 0.0, 0.0, 1.0]), weight=0.0),)
    with pytest.raises(H1ViolationError):
        find_critical_points(KFunction(n=3, epsilon=0.05, terms=terms))


def newton_per_seed_oracle(K, seeds, iters=80, stall=None):
    """The per-seed Newton loop the batched search replaced: one tangent frame,
    one frame Hessian and one solve per live seed per iteration.  With `stall`
    set, a seed whose gradient norm has not halved in that many iterations
    stops where it stands, as in the batched search."""
    d = K.dim
    X = seeds.copy()
    alive = np.ones(len(X), dtype=bool)
    gscale = K.epsilon * sum(abs(t.weight) / t.width**2 for t in K.terms)
    tol = max(GRAD_NORM_TOL * 0.1, 1e-15 * gscale)
    ref, last = [math.inf] * len(X), [0] * len(X)
    for it in range(iters):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        pts = X[idx]
        steps = np.empty((len(idx), d))
        done = np.zeros(len(idx), dtype=bool)
        for j, x in enumerate(pts):
            g = kfunc._derivs(K, x)[0][0]
            gnorm = float(np.linalg.norm(g))
            if gnorm <= 0.5 * ref[idx[j]]:
                ref[idx[j]], last[idx[j]] = gnorm, it
            if gnorm < tol or (stall is not None and it - last[idx[j]] >= stall):
                done[j] = True
                steps[j] = 0.0
                continue
            B = tangent_basis(x)
            H = B.T @ kfunc._derivs(K, x)[1][0] @ B
            gt = B.T @ g
            try:
                delta = np.linalg.solve(H, -gt)
            except np.linalg.LinAlgError:
                delta = -gt
            nrm = float(np.linalg.norm(delta))
            if nrm > 0.5:
                delta *= 0.5 / nrm
            steps[j] = B @ delta
        X[idx] = unit(pts + steps)
        alive[idx[done]] = False
    keep = [x for x in X if float(np.linalg.norm(kfunc._derivs(K, x)[0][0])) < GRAD_NORM_TOL]
    return np.array(keep).reshape(-1, d)


@pytest.mark.filterwarnings("ignore:dropped")  # the antipodal pair's degenerate equator
@pytest.mark.parametrize(
    "K",
    [load_preset("three-bump-s3"), load_preset("three-max-one-saddle"),
     load_preset("two-bump-antipodal"), sample_K(seed=3)],
    ids=["three-bump-s3", "three-max-one-saddle", "two-bump-antipodal", "sample-3"],
)
def test_batched_newton_matches_the_per_seed_oracle(K, monkeypatch):
    """Seed by seed against the per-seed loop under the same stall rule; the
    inventory against the per-seed loop without it (all 80 iterations)."""
    seeds = np.vstack([quasi_uniform_points(K.n, 128), K.centers, -K.centers])
    got = kfunc._newton_batch(K, seeds)
    want = newton_per_seed_oracle(K, seeds, stall=kfunc.STALL_ITERS)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-10

    new = find_critical_points(K, seeds=128)
    monkeypatch.setattr(kfunc, "_newton_batch", newton_per_seed_oracle)
    old = find_critical_points(K, seeds=128)
    assert len(new) == len(old) > 0
    for p, q in zip(new, old):
        assert (p.morse_index_K, p.co_index, p.laplacian_sign) == (
            q.morse_index_K, q.co_index, q.laplacian_sign)
        assert np.max(np.abs(np.subtract(p.location, q.location))) < 1e-10


@contextlib.contextmanager
def counting_work():
    """Counts, while open, the rows of each derivative stage, the Hessian
    stage's calls, LU factorizations (solve and slogdet calls, failed solves
    included), exactly singular rows, and the linear-algebra calls in order."""
    work = dict(gradient_rows=0, hessian_rows=0, hessian_calls=0, factorizations=0,
                singular=0, events=[])
    gradients, hessians = kfunc._gradients, kfunc._hessians
    solve, slogdet = np.linalg.solve, np.linalg.slogdet

    def counting_gradients(K, X):
        work["gradient_rows"] += len(X)
        return gradients(K, X)

    def counting_hessians(K, X, bumps, radial):
        work["hessian_rows"] += len(X)
        work["hessian_calls"] += 1
        return hessians(K, X, bumps, radial)

    def counting_solve(*args):
        work["factorizations"] += 1
        try:
            out = solve(*args)
        except np.linalg.LinAlgError:
            work["events"].append("raised")
            raise
        work["events"].append("solved")
        return out

    def counting_slogdet(A):
        work["factorizations"] += 1
        work["events"].append("slogdet")
        sign, logdet = slogdet(A)
        work["singular"] += int(np.sum(sign == 0))
        return sign, logdet

    with pytest.MonkeyPatch.context() as m:
        m.setattr(kfunc, "_gradients", counting_gradients)
        m.setattr(kfunc, "_hessians", counting_hessians)
        m.setattr(np.linalg, "solve", counting_solve)
        m.setattr(np.linalg, "slogdet", counting_slogdet)
        yield work


def count_search_work(K):
    """The work of one default find_critical_points search (``counting_work``)."""
    with counting_work() as work, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degenerate circle and equator
        find_critical_points(K)
    return work


def test_newton_survives_an_exactly_singular_hessian():
    """On the equator of a single bump the Hessian is rank one, so the
    augmented system is exactly singular; that seed must take the gradient
    step while its batch-mates keep Newton, each on the path it follows
    alone, bit for bit.  Singular rows cost no factorizations of their own."""
    K = KFunction(n=3, epsilon=0.1, terms=(bump([0.0, 0.0, 0.0, 1.0]),))
    seeds = np.array([[1.0, 0.0, 0.0, 0.0], unit(np.array([0.1, 0.0, 0.0, 1.0]))])
    A = kfunc._derivs(K, seeds[0])[1][0] + np.outer(seeds[0], seeds[0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, -kfunc._derivs(K, seeds[0])[0][0])
    got = kfunc._newton_batch(K, seeds)
    np.testing.assert_allclose(got, [[0, 0, 0, -1.0], [0, 0, 0, 1.0]], atol=1e-12)
    batch = np.vstack([quasi_uniform_points(3, 32), seeds[:1]])
    alone = np.vstack([kfunc._newton_batch(K, seed[None]) for seed in batch])
    assert len(alone) > 30
    assert np.array_equal(kfunc._newton_batch(K, batch), alone)
    # the equator seed is still moving when its system is singular: alone
    # and in its batch, the first stacked solve raises, one slogdet finds
    # that one row, and the regular rows are solved as one stack; every
    # later iteration factors its stack once
    for X in (seeds[:1], batch):
        with counting_work() as work:
            kfunc._newton_batch(K, X)
        events = work["events"]
        assert events[:3] == ["raised", "slogdet", "solved"]
        assert events[3:] == ["solved"] * (work["hessian_calls"] - 1)
        assert work["singular"] == 1
    # a strong, wide bump: the capped descent step -g leaves the equator for
    # the minimum's basin, where an ascent step would reach the maximum's
    K = KFunction(n=3, epsilon=1.0, terms=(bump([0.0, 0.0, 0.0, 1.0], 10.0, 1.5),))
    np.testing.assert_allclose(kfunc._newton_batch(K, seeds[:1]), [[0, 0, 0, -1.0]], atol=1e-12)
    # three-max-one-saddle's exactly singular rows all stop in the iteration
    # that meets them, so only moving rows are factored and no solve raises:
    # one factorization per Newton iteration with moving rows (one Hessian
    # call each, besides the classification's) and no slogdet
    work = count_search_work(load_preset("three-max-one-saddle"))
    assert work["events"] == ["solved"] * (work["hessian_calls"] - 1)
    assert work["factorizations"] == work["hessian_calls"] - 1 > 0


def dedup_per_point_oracle(converged):
    """The greedy dedup as it was: each converged point, in order, against every
    row kept so far, kept when all of them are more than 1e-6 rad away."""
    distinct = converged[:0]
    for x in converged:
        c = np.clip(distinct @ x, -1.0, 1.0)
        s = np.linalg.norm(distinct - x, axis=1) * np.linalg.norm(distinct + x, axis=1)
        if np.all(np.arctan2(s / 2.0, c) > 1e-6):
            distinct = np.vstack([distinct, x])
    return distinct


def classify_per_point_oracle(K, converged):
    """find_critical_points' tail as it was: dedup growing the kept rows with
    vstack, then one tangent frame, derivative call, eigvalsh and eval_K per
    distinct point.  Returns (the sorted points, the dropped count)."""
    points, dropped = [], 0
    for x in dedup_per_point_oracle(converged):
        B = tangent_basis(x)
        hess = kfunc._derivs(K, x)[1][0]
        eigs = np.linalg.eigvalsh(B.T @ hess @ B)
        emax = float(np.max(np.abs(eigs)))
        lap = float(np.trace(hess))
        floor = kfunc.NONDEGENERACY_RATIO * emax
        if emax == 0.0 or float(np.min(np.abs(eigs))) <= floor or abs(lap) <= floor:
            dropped += 1
            continue
        mi = int(np.sum(eigs < 0))
        points.append(kfunc.CriticalPoint(
            location=tuple(float(v) for v in x), value=float(eval_K(K, x)),
            morse_index_K=mi, co_index=K.n - mi, laplacian=lap,
            laplacian_sign=1 if lap > 0 else -1,
            grad_norm=float(np.linalg.norm(kfunc._derivs(K, x)[0][0])),
            hess_eigenvalues=tuple(float(v) for v in eigs),
        ))
    points.sort(key=lambda p: (-p.value, tuple(round(v, 9) for v in p.location)))
    return points, dropped


def random_bump_candidate(seed):
    """2 to 5 bumps of either sign on S^2, S^3 or S^4."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    centers = unit(rng.standard_normal((m, n + 1)))
    terms = tuple(
        bump(c, weight=float(w), width=float(s))
        for c, w, s in zip(centers, rng.uniform(-1.0, 1.0, m), rng.uniform(0.3, 0.8, m))
    )
    return KFunction(n=n, epsilon=0.1, terms=terms)


CLASSIFIED = [load_preset(name) for name in
              ("three-bump-s3", "three-max-one-saddle", "two-bump-antipodal")]
CLASSIFIED += [random_bump_candidate(seed) for seed in range(20)]
CLASSIFIED_IDS = ["three-bump-s3", "three-max-one-saddle", "two-bump-antipodal"] + [
    f"random-{seed}" for seed in range(20)]


@pytest.mark.parametrize("K", CLASSIFIED, ids=CLASSIFIED_IDS)
def test_batched_classification_matches_the_per_point_oracle(K, monkeypatch):
    """Same points in the same order, the same indices, drop count and
    warning; location, value, Laplacian and gradient norm bit for bit, and
    the tangent eigenvalues within 1e-13 of the largest (measured 3.6e-15)."""
    newton = []
    real = kfunc._newton_batch
    monkeypatch.setattr(kfunc, "_newton_batch", lambda *a: newton.append(real(*a)) or newton[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = find_critical_points(K, seeds=256)
    want, dropped = classify_per_point_oracle(K, newton[0])
    assert [str(w.message) for w in caught] == (
        [f"dropped {dropped} degenerate critical point(s); the candidate violates "
         "the nondegeneracy hypotheses there"] if dropped else []
    )
    assert len(got) == len(want) > 0
    for p, q in zip(got, want):
        assert (p.location, p.value, p.laplacian, p.grad_norm) == (
            q.location, q.value, q.laplacian, q.grad_norm)
        assert (p.morse_index_K, p.co_index, p.laplacian_sign) == (
            q.morse_index_K, q.co_index, q.laplacian_sign)
        scale = max(abs(v) for v in q.hess_eigenvalues)
        assert np.max(np.abs(np.subtract(p.hess_eigenvalues, q.hess_eigenvalues))) <= 1e-13 * scale


def converged_rows(K, seeds=512):
    """The rows find_critical_points hands to its dedup."""
    newton = []
    real = kfunc._newton_batch
    with pytest.MonkeyPatch.context() as m, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degenerate circle and equator
        m.setattr(kfunc, "_newton_batch", lambda *a: newton.append(real(*a)) or newton[0])
        find_critical_points(K, seeds)
    return newton[0]


def pairs_apart(angle, count=64, d=4, seed=0):
    """`count` pairs of rows `angle` rad apart, at random points along random
    tangent directions, each pair in consecutive rows."""
    rng = np.random.default_rng(seed)
    x = unit(rng.standard_normal((count, d)))
    t = rng.standard_normal((count, d))
    t = unit(t - np.sum(t * x, axis=1)[:, None] * x)
    return np.stack([x, math.cos(angle) * x + math.sin(angle) * t], axis=1).reshape(-1, d)


def on_one_projection(angles, d=4):
    """Points at these angles along a circle whose rows all share one
    projection on _distinct's axis, so every row has a neighbour there."""
    axis = unit(np.arange(1.0, d + 1))
    frame = np.linalg.qr(np.column_stack([axis, np.eye(d)[:, :2]]))[0]
    ring = np.cos(angles)[:, None] * frame[:, 1] + np.sin(angles)[:, None] * frame[:, 2]
    return 0.5 * axis + math.sqrt(0.75) * ring


DEDUP_CASES = [lambda K=K: converged_rows(K) for K in CLASSIFIED] + [
    lambda: pairs_apart(0.99e-6),
    lambda: pairs_apart(1.01e-6),
    lambda: on_one_projection(np.linspace(0.0, 2 * np.pi, 200, endpoint=False)),
    lambda: np.repeat(converged_rows(CLASSIFIED[0])[:40], 3, axis=0),
    lambda: np.vstack([converged_rows(CLASSIFIED[0])] * 2),
    lambda: np.zeros((0, 4)),
    lambda: converged_rows(CLASSIFIED[0])[:1],
]
DEDUP_IDS = CLASSIFIED_IDS + ["pairs-0.99e-6", "pairs-1.01e-6", "one-projection-ring",
                              "each-row-thrice", "rows-twice", "empty", "one-row"]


@pytest.mark.parametrize("rows", DEDUP_CASES, ids=DEDUP_IDS)
def test_dedup_matches_the_per_point_greedy_loop(rows):
    rows = rows()
    got = kfunc._distinct(rows)
    assert np.array_equal(got, dedup_per_point_oracle(rows))
    assert np.array_equal(got, scan_every_point_distinct(rows))


def test_dedup_is_greedy_along_a_chain():
    """A-B and B-C are 0.8e-6 rad apart, A-C 1.6e-6: closeness is not
    transitive, and first-seen greedy keeps A and C.  So too along a chain
    whose rows share one projection on _distinct's axis, and over pairs just
    inside and just outside 1e-6 rad."""
    angles = np.array([0.0, 0.8e-6, 1.6e-6])
    chain = np.zeros((3, 4))
    chain[:, 0], chain[:, 1] = np.cos(angles), np.sin(angles)
    level = on_one_projection(angles)
    inside, outside = pairs_apart(0.99e-6), pairs_apart(1.01e-6)
    for rows, kept in [(chain, chain[[0, 2]]), (level, level[[0, 2]]),
                       (inside, inside[::2]), (outside, outside)]:
        for route in (kfunc._distinct, dedup_per_point_oracle):
            assert np.array_equal(route(rows), kept)


class CountingRows(np.ndarray):
    """Rows that count the matrix products taken of them."""

    products = 0

    def __matmul__(self, other):
        CountingRows.products += 1
        return np.asarray(self) @ other


def dedup_scans(route, rows):
    """Matrix-vector scans of the later rows that a dedup route makes, not
    counting _distinct's one projection."""
    CountingRows.products = 0
    route(rows.view(CountingRows))
    return CountingRows.products - (route is kfunc._distinct)


def test_dedup_scans_only_rows_that_can_meet():
    """The saddle's degenerate circle keeps 314 of its 524 converged rows, and
    the per-point route scans each; a scan is needed only where two rows
    project within 2e-5 (17 measured, guarded at +10%).  On a ring sharing
    one projection every row is scanned, as before."""
    rows = converged_rows(load_preset("three-max-one-saddle"))
    assert (len(rows), len(kfunc._distinct(rows))) == (524, 314)
    assert dedup_scans(scan_every_point_distinct, rows) == 314
    assert dedup_scans(kfunc._distinct, rows) <= 1.1 * 17
    ring = on_one_projection(np.linspace(0.0, 2 * np.pi, 200, endpoint=False))
    assert dedup_scans(kfunc._distinct, ring) == 200


def _search_mismatches() -> list[str]:
    """Where the search differs in any bit from its oracle routes
    (oracles.slogdet_first_newton_batch, oracles.scan_every_point_distinct):
    every CLASSIFIED candidate at 128 and 512 seeds (the converged rows, the
    kept rows and the classified points), the singular-Hessian seeds and
    batch of test_newton_survives_an_exactly_singular_hessian, and k_range's
    two-row batches."""

    def search(K, seeds, newton, distinct):
        seen = []
        with pytest.MonkeyPatch.context() as m, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            m.setattr(kfunc, "_newton_batch", lambda *a: seen.append(newton(*a)) or seen[-1])
            m.setattr(kfunc, "_distinct", lambda *a: seen.append(distinct(*a)) or seen[-1])
            points = find_critical_points(K, seeds)
        return seen, points

    bad = []
    for label, K in zip(CLASSIFIED_IDS, CLASSIFIED):
        for seeds in (128, 512):
            got, got_points = search(K, seeds, kfunc._newton_batch, kfunc._distinct)
            want, want_points = search(K, seeds, slogdet_first_newton_batch,
                                       scan_every_point_distinct)
            if repr(got_points) != repr(want_points) or not all(map(same_bits, got, want)):
                bad.append(f"{label} at {seeds}")
        batches = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(kfunc, "_newton_batch", lambda K, X: batches.append(X) or X)
            k_range(K)
        for X in batches:
            if not same_bits(kfunc._newton_batch(K, X), slogdet_first_newton_batch(K, X)):
                bad.append(f"{label} k_range")
    equator = np.array([[1.0, 0.0, 0.0, 0.0]])
    seeds = np.vstack([equator, unit(np.array([0.1, 0.0, 0.0, 1.0]))])
    narrow = KFunction(n=3, epsilon=0.1, terms=(bump([0.0, 0.0, 0.0, 1.0]),))
    wide = KFunction(n=3, epsilon=1.0, terms=(bump([0.0, 0.0, 0.0, 1.0], 10.0, 1.5),))
    for label, K, X in [("singular seeds", narrow, seeds), ("singular wide", wide, equator),
                        ("singular batch", narrow,
                         np.vstack([quasi_uniform_points(3, 32), equator]))]:
        if not same_bits(kfunc._newton_batch(K, X), slogdet_first_newton_batch(K, X)):
            bad.append(label)
    return bad


def test_search_equals_its_oracle_routes_bit_for_bit():
    assert _search_mismatches() == []


def test_search_equals_its_oracle_routes_without_avx512_kernels():
    """Without AVX-512 numpy runs its AVX2 kernels; a route whose rows round
    apart by their place in the stack would move bits."""
    # numpy ignores a feature the host lacks, so without AVX-512 nothing is disabled
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(Path(kfunc.__file__).resolve().parents[1]),
                                    str(Path(__file__).resolve().parent)]),
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
    )
    body = "import json, test_kfunction as t\nprint(json.dumps(t._search_mismatches()))"
    proc = subprocess.run([sys.executable, "-c", body], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("seeds, message", [
    (3.0, "seeds must be an integer, got 3.0"),
    (-1, "seeds must be at least 0, got -1"),
])
def test_search_refuses_a_bad_seed_count_before_any_work(seeds, message, monkeypatch):
    def no_work(*args):
        raise AssertionError("the search started")

    for name in ("quasi_uniform_points", "_gradients", "_hessians"):
        monkeypatch.setattr(kfunc, name, no_work)
    with pytest.raises(ValueError, match=message):
        find_critical_points(load_preset("three-bump-s3"), seeds=seeds)


def test_a_search_without_quasi_uniform_seeds_keeps_working():
    """seeds=0 starts Newton from the centers, antipodes and pair seeds only."""
    points = find_critical_points(load_preset("three-bump-s3"), seeds=0)
    assert euler_characteristic_diagnostic(points, 3)[2]


def test_classification_takes_no_tangent_frames(monkeypatch):
    from collections import Counter

    from morsecount import sphere

    calls = Counter()
    real = sphere.tangent_basis

    def counting(*args):
        calls["tangent_basis"] += 1
        return real(*args)

    monkeypatch.setattr(sphere, "tangent_basis", counting)
    assert not hasattr(kfunc, "tangent_basis")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # its degenerate circle
        assert len(find_critical_points(load_preset("three-max-one-saddle"))) == 6
    assert calls == Counter()


def search_with_warnings(K, seeds):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = find_critical_points(K, seeds=seeds)
    return points, [str(w.message) for w in caught]


STALL_CANDIDATES = CLASSIFIED[:3] + [random_bump_candidate(seed) for seed in range(200)]


@pytest.mark.parametrize("seeds", [128, 256, 512])
def test_stall_rule_keeps_the_inventory(seeds, monkeypatch):
    """Against the same search with every seed run to the 80-iteration cap:
    the same points in the same order with the same indices, Laplacian signs
    and drop warnings, on the presets every field bit for bit.  A point may
    keep another seed as its representative: both are within GRAD_NORM_TOL /
    min|eig| of the true point."""
    for k, K in enumerate(STALL_CANDIDATES):
        got, got_warnings = search_with_warnings(K, seeds)
        with monkeypatch.context() as m:
            m.setattr(kfunc, "STALL_ITERS", 80)
            want, want_warnings = search_with_warnings(K, seeds)
        assert got_warnings == want_warnings
        if k < 3:
            assert got == want
            continue
        assert len(got) == len(want) > 0
        for p, q in zip(got, want):
            assert (p.morse_index_K, p.co_index, p.laplacian_sign) == (
                q.morse_index_K, q.co_index, q.laplacian_sign)
            bound = 2 * GRAD_NORM_TOL / min(abs(v) for v in q.hess_eigenvalues)
            assert np.linalg.norm(np.subtract(p.location, q.location)) <= bound


@pytest.mark.parametrize("K", CLASSIFIED, ids=CLASSIFIED_IDS)
def test_stall_rule_keeps_k_range(K, monkeypatch):
    got = k_range(K)
    monkeypatch.setattr(kfunc, "STALL_ITERS", 80)
    assert got == k_range(K)


# (gradient rows, Hessian rows, LU factorizations) of one default search, as
# measured; the guard at +10% catches a regression in work that timing noise
# would hide
SEARCH_WORK = {
    "three-bump-s3": (5502, 4454, 18),
    "three-max-one-saddle": (4012, 2964, 7),
    "two-bump-antipodal": (5234, 4200, 10),
}


@pytest.mark.parametrize("name", sorted(SEARCH_WORK))
def test_search_work_stays_within_its_measured_budget(name):
    work = count_search_work(load_preset(name))
    max_gradient_rows, max_hessian_rows, max_factorizations = SEARCH_WORK[name]
    assert work["gradient_rows"] <= 1.1 * max_gradient_rows
    assert work["hessian_rows"] <= 1.1 * max_hessian_rows
    assert work["factorizations"] <= 1.1 * max_factorizations


def grid_search_extrema(K, samples=1_000_000):
    """Dense-grid oracle: local extrema among sampled values via best-in-cap."""
    grid = quasi_uniform_points(K.n, samples)
    vals = eval_K(K, grid)
    return grid, vals


def test_two_antipodal_bumps_on_s2():
    """Opposite bumps of opposite sign on the 2-sphere: the finder must report
    at least the maximum near the positive center and the minimum near the
    negative one, matching the dense-grid oracle."""
    e3 = np.array([0.0, 0.0, 1.0])
    K = KFunction(
        n=2,
        epsilon=0.2,
        terms=(bump(e3, weight=1.0, width=0.6), bump(-e3, weight=-1.0, width=0.6)),
    )
    pts = find_critical_points(K, seeds=256)
    assert len(pts) >= 2
    grid, vals = grid_search_extrema(K, samples=200_000)
    x_max = grid[np.argmax(vals)]
    x_min = grid[np.argmin(vals)]
    best = max(pts, key=lambda p: p.value)
    worst = min(pts, key=lambda p: p.value)
    assert np.dot(best.location, x_max) > 0.999
    assert np.dot(worst.location, x_min) > 0.999
    assert best.morse_index_K == 2 and worst.morse_index_K == 0
    assert best.value >= float(np.max(vals)) - 1e-12
    assert worst.value <= float(np.min(vals)) + 1e-12


def test_finder_matches_grid_oracle_on_three_bumps():
    K = sample_K(seed=3)
    pts = find_critical_points(K, seeds=512)
    for p in pts:
        assert p.grad_norm < 1e-10
        eigs = np.array(p.hess_eigenvalues)
        assert np.min(np.abs(eigs)) > 1e-6 * np.max(np.abs(eigs))
        assert p.co_index == K.n - p.morse_index_K
    # the global max and min from a dense grid must appear in the inventory
    grid, vals = grid_search_extrema(K, samples=1_000_000)
    locs = np.array([p.location for p in pts])
    for target in (grid[np.argmax(vals)], grid[np.argmin(vals)]):
        assert np.max(locs @ target) > 0.999


def test_euler_characteristic_diagnostic_on_complete_inventory():
    K = sample_K(seed=3)
    pts = find_critical_points(K, seeds=512)
    total, expected, ok = euler_characteristic_diagnostic(pts, K.n)
    assert expected == 0  # odd-dimensional sphere
    assert ok, f"alternating sum {total} != {expected}: inventory incomplete"


def test_extract_k_infinity_orders_max_first_and_is_seed_stable():
    K = sample_K(seed=3)
    pts_a = find_critical_points(K, seeds=512)
    pts_b = find_critical_points(K, seeds=900)
    cfg_a = extract_K_infinity(pts_a, N=4)
    cfg_b = extract_K_infinity(pts_b, N=4)
    assert cfg_a.parities == cfg_b.parities
    assert cfg_a.parities[0] == 0
    assert cfg_a.n == 3


def test_extract_single_bump_warns_h3():
    c = np.array([0.0, 0.0, 0.0, 1.0])
    K = KFunction(n=3, epsilon=0.1, terms=(bump(c, weight=1.0, width=0.5),))
    pts = find_critical_points(K, seeds=256)
    import morsecount

    with pytest.warns(morsecount.H3Warning):
        cfg = extract_K_infinity(pts)
    assert cfg.parities == (0,)


def test_extract_k_infinity_flags_an_incomplete_inventory():
    c = np.array([0.0, 0.0, 0.0, 1.0])
    K = KFunction(n=3, epsilon=0.1, terms=(bump(c, weight=1.0, width=0.5),))
    pts = find_critical_points(K, seeds=256)

    def incomplete_warnings(points):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = extract_K_infinity(points)
        assert cfg.parities == (0,)
        return [str(w.message) for w in caught if "inventory is incomplete" in str(w.message)]

    assert [p.morse_index_K for p in pts] == [3, 0]  # the maximum and the minimum
    assert incomplete_warnings(pts) == []
    # dropping the minimum keeps the admissible set but breaks the Euler sum
    assert incomplete_warnings(pts[:-1]) == [
        "critical inventory is incomplete: 1 points, alternating index sum -1 "
        "!= Euler characteristic 0"
    ]


def test_extract_k_infinity_leaves_the_m_below_2_warning_to_the_configuration():
    """three-bump-s3 with its lower maxima and its saddles dropped keeps the
    Euler sum (the top maximum and the minimum) and m = 1: one H3Warning,
    from ``ParityConfig``, and no other warning."""
    pts = find_critical_points(load_preset("three-bump-s3"))
    assert [p.morse_index_K for p in pts] == [3, 3, 3, 2, 2, 0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = extract_K_infinity([pts[0], pts[-1]])
    assert cfg.parities == (0,)
    assert [w.category for w in caught] == [H3Warning]


def test_extract_k_infinity_refuses_an_odd_top_point_without_warning_first():
    """three-bump-s3 with its maxima dropped puts a saddle (co-index 1) on
    top: ``ParityConfig`` refuses it, and the only warning before the
    refusal is the incomplete Euler sum."""
    pts = find_critical_points(load_preset("three-bump-s3"))
    saddles_and_minimum = [p for p in pts if p.morse_index_K != 3]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="parities"):
            extract_K_infinity(saddles_and_minimum)
    assert [str(w.message).split(":")[0] for w in caught] == ["critical inventory is incomplete"]


# ---------------------------------------------------------------------------
# admissibility threshold
# ---------------------------------------------------------------------------


def mp_threshold(N, eta, n):
    with mpmath.workdps(60):
        expo = mpmath.mpf(2) / (n - 2)
        val = (
            (mpmath.mpf(N + 1) / N) ** expo
            * ((1 - mpmath.mpf(eta)) / (1 + mpmath.mpf(eta))) ** expo
            - 1
        )
        return float(val)


def test_admissible_epsilon_value():
    got = admissible_epsilon(3, 0.1, 7)
    assert math.isclose(got, 0.0354, rel_tol=0, abs_tol=5e-5)
    assert math.isclose(got, mp_threshold(3, 0.1, 7), rel_tol=0, abs_tol=1e-15)


@pytest.mark.parametrize(
    "N,eta,n",
    [(1, 0.2, 3), (3, 0.1, 7), (10, 1 / 22, 9), (25, 0.01, 12), (4, 0.09, 5)],
)
def test_admissible_epsilon_matches_high_precision(N, eta, n):
    assert abs(admissible_epsilon(N, eta, n) - mp_threshold(N, eta, n)) < 1e-12


def test_admissible_epsilon_limit_case():
    # eta -> 0, N = 1: threshold approaches 2^{2/(n-2)} - 1
    for n in (3, 5, 7, 11):
        got = admissible_epsilon(1, 1e-13, n)
        assert math.isclose(got, 2 ** (2 / (n - 2)) - 1, rel_tol=1e-10)


def test_admissible_epsilon_precondition():
    # boundary: eta must be strictly below 1/(2N+1) = 1/21 for N = 10
    with pytest.raises(ValueError):
        admissible_epsilon(10, 1 / 21, 7)
    admissible_epsilon(10, 1 / 22, 7)  # just inside the window: accepted
    with pytest.raises(ValueError):
        admissible_epsilon(10, 0.0, 7)
    with pytest.raises(ValueError):
        admissible_epsilon(10, -0.1, 7)
    with pytest.raises(ValueError):
        admissible_epsilon(0, 0.1, 7)
    with pytest.raises(ValueError):
        admissible_epsilon(3, 0.1, 2)
    # a bool is no level cap or dimension (True would read as N = 1)
    with pytest.raises(ValueError, match="N must be an integer"):
        admissible_epsilon(True, 0.1, 7)
    with pytest.raises(ValueError, match="n must be an integer"):
        admissible_epsilon(3, 0.1, True)


def test_from_dict_refuses_a_float_or_bool_dimension_or_level_cap():
    """``from_dict`` hands n and N to the constructors as given, so a float or
    a bool is refused rather than truncated; every bundled preset loads."""
    with pytest.raises(ValueError, match="n must be an integer"):
        KFunction.from_dict({"n": 3.9, "epsilon": 0.1, "terms": []})
    for bad in ({"n": 7.9}, {"N": True}, {"n": 7.9, "N": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            ParityConfig.from_dict({"n": 7, "parities": [0, 1], "N": 3, **bad})
    assert len([load_preset(name) for name in available_presets()]) == 16


# ---------------------------------------------------------------------------
# range and positivity
# ---------------------------------------------------------------------------


def test_membership_check_and_positivity():
    K = sample_K(seed=7)
    ratio, ok = epsilon_membership(K)
    kmin, kmax = k_range(K)
    assert ratio == pytest.approx(kmax / kmin - 1.0)
    bad = KFunction(
        n=3,
        epsilon=0.5,
        terms=(bump(np.array([0.0, 0.0, 0.0, 1.0]), weight=-30.0, width=0.8),),
    )
    with pytest.raises(ValueError):
        epsilon_membership(bad)
