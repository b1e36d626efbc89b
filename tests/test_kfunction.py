"""Curvature-candidate tests: analytic derivatives vs finite differences,
critical point location vs dense grid search, admissibility threshold vs a
high-precision oracle."""
from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest

from morsecount import kfunc
from morsecount.kfunc import (
    GRAD_NORM_TOL,
    BumpTerm,
    H1ViolationError,
    KFunction,
    admissible_epsilon,
    epsilon_membership,
    euler_characteristic_diagnostic,
    eval_K,
    extract_K_infinity,
    find_critical_points,
    grad_K,
    hess_K,
    k_range,
    laplace_K,
    normalize,
)
from morsecount.presets import load_preset
from morsecount.sphere import quasi_uniform_points, tangent_basis, unit


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
        g = grad_K(K, x)
        g_fd = fd_tangential_gradient(K, x)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(1.0, np.linalg.norm(g))
        assert abs(np.dot(g, x)) < 1e-12  # tangential


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_laplacian_matches_finite_differences(seed):
    K = sample_K(seed=seed)
    rng = np.random.default_rng(200 + seed)
    for _ in range(5):
        x = unit(rng.standard_normal(4))
        lap = laplace_K(K, x)
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
        H = hess_K(K, x)
        assert np.allclose(H, H.T, atol=1e-12)
        assert np.linalg.norm(H @ x) < 1e-12  # x is in the kernel
        assert abs(np.trace(H) - laplace_K(K, x)) < 1e-10


def test_hessian_matches_second_differences_of_gradient():
    K = sample_K(seed=5)
    x = unit(np.array([0.3, -0.5, 0.2, 0.9]))
    B = tangent_basis(x)
    H = B.T @ hess_K(K, x) @ B
    h = 1e-5
    H_fd = np.zeros((3, 3))
    for j in range(3):
        xp = unit(x + h * B[:, j])
        xm = unit(x - h * B[:, j])
        # compare tangential gradients transported by projection onto the
        # frame at x (first-order parallel transport is projection here)
        gp = B.T @ grad_K(K, xp)
        gm = B.T @ grad_K(K, xm)
        H_fd[:, j] = (gp - gm) / (2 * h)
    H_fd = 0.5 * (H_fd + H_fd.T)
    assert np.max(np.abs(H - H_fd)) < 1e-5 * max(1.0, np.max(np.abs(H)))


@pytest.mark.parametrize(
    "K",
    [sample_K(seed=0), sample_K(seed=3), sample_K(n=2, seed=1),
     load_preset("three-max-one-saddle"), load_preset("two-bump-antipodal")],
)
def test_batched_derivatives_are_tangent_and_match_the_wrappers(K):
    """The Newton step needs H x = 0 and g . x = 0; the public one-point
    derivatives are rows of the batched kernel."""
    X = unit(np.random.default_rng(17).standard_normal((40, K.dim)))
    grads, hess = kfunc._derivs(K, X)
    assert np.max(np.abs(np.einsum("bij,bj->bi", hess, X))) < 1e-12
    assert np.max(np.abs(np.einsum("bi,bi->b", grads, X))) < 1e-12
    for x, g, H in zip(X, grads, hess):
        assert np.linalg.norm(hess_K(K, x) @ x) < 1e-12
        assert abs(np.dot(grad_K(K, x), x)) < 1e-12
        # row-wise products: a point's derivatives do not depend on its batch
        assert np.array_equal(grad_K(K, x), g)
        assert np.array_equal(hess_K(K, x), H)


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
    assert np.all(grad_K(K, x) == 0.0)
    assert laplace_K(K, x) == 0.0


def test_single_bump_center_is_a_max_with_negative_laplacian():
    c = np.array([0.0, 0.0, 0.0, 1.0])
    K = KFunction(n=3, epsilon=0.1, terms=(bump(c, weight=1.0, width=0.5),))
    assert np.linalg.norm(grad_K(K, c)) < 1e-14
    H = hess_K(K, c)
    eigs = np.linalg.eigvalsh(H)
    # three tangent directions strictly negative, the x-kernel direction zero
    assert np.sum(eigs < -1e-12) == 3
    assert laplace_K(K, c) < 0


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
    gscale = K.scale * K.epsilon * sum(abs(t.weight) / t.width**2 for t in K.terms)
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
            g = grad_K(K, x)
            gnorm = float(np.linalg.norm(g))
            if gnorm <= 0.5 * ref[idx[j]]:
                ref[idx[j]], last[idx[j]] = gnorm, it
            if gnorm < tol or (stall is not None and it - last[idx[j]] >= stall):
                done[j] = True
                steps[j] = 0.0
                continue
            B = tangent_basis(x)
            H = B.T @ hess_K(K, x) @ B
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
    keep = [x for x in X if float(np.linalg.norm(grad_K(K, x))) < GRAD_NORM_TOL]
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
    seeds = np.vstack([quasi_uniform_points(K.n, 128), K.centers(), -K.centers()])
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


def count_search_work(monkeypatch, K):
    """(derivative rows, derivative calls, solve calls, exactly singular rows)
    of one default find_critical_points search."""
    work = dict(rows=0, calls=0, solves=0, singular=0)
    derivs, solve, slogdet = kfunc._derivs, np.linalg.solve, np.linalg.slogdet

    def counting_derivs(K, X):
        work["rows"] += len(X)
        work["calls"] += 1
        return derivs(K, X)

    def counting_solve(*args):
        work["solves"] += 1
        return solve(*args)

    def counting_slogdet(A):
        sign, logdet = slogdet(A)
        work["singular"] += int(np.sum(sign == 0))
        return sign, logdet

    monkeypatch.setattr(kfunc, "_derivs", counting_derivs)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "slogdet", counting_slogdet)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degenerate circle and equator
        find_critical_points(K)
    monkeypatch.undo()
    return work["rows"], work["calls"], work["solves"], work["singular"]


def test_newton_survives_an_exactly_singular_hessian(monkeypatch):
    """On the equator of a single bump the Hessian is rank one, so the
    augmented system is exactly singular; that seed must take the gradient
    step while its batch-mates keep Newton, each on the path it follows
    alone, bit for bit.  Singular rows cost no solves of their own."""
    K = KFunction(n=3, epsilon=0.1, terms=(bump([0.0, 0.0, 0.0, 1.0]),))
    seeds = np.array([[1.0, 0.0, 0.0, 0.0], unit(np.array([0.1, 0.0, 0.0, 1.0]))])
    A = hess_K(K, seeds[0]) + np.outer(seeds[0], seeds[0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, -grad_K(K, seeds[0]))
    got = kfunc._newton_batch(K, seeds)
    np.testing.assert_allclose(got, [[0, 0, 0, -1.0], [0, 0, 0, 1.0]], atol=1e-12)
    batch = np.vstack([quasi_uniform_points(3, 32), seeds[:1]])
    alone = np.vstack([kfunc._newton_batch(K, seed[None]) for seed in batch])
    assert len(alone) > 30
    assert np.array_equal(kfunc._newton_batch(K, batch), alone)
    # a strong, wide bump: the capped descent step -g leaves the equator for
    # the minimum's basin, where an ascent step would reach the maximum's
    K = KFunction(n=3, epsilon=1.0, terms=(bump([0.0, 0.0, 0.0, 1.0], 10.0, 1.5),))
    np.testing.assert_allclose(kfunc._newton_batch(K, seeds[:1]), [[0, 0, 0, -1.0]], atol=1e-12)
    # three-max-one-saddle meets exactly singular rows, yet takes at most one
    # solve per Newton iteration; the search makes one derivative call per
    # iteration, one for the final gradient filter and one for the classification
    _, calls, solves, singular = count_search_work(monkeypatch, load_preset("three-max-one-saddle"))
    assert singular > 0
    assert solves <= calls - 2


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
    vstack, then one tangent frame, hess_K, eigvalsh, eval_K and grad_K per
    distinct point.  Returns (the sorted points, the dropped count)."""
    points, dropped = [], 0
    for x in dedup_per_point_oracle(converged):
        B = tangent_basis(x)
        hess = hess_K(K, x)
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
            grad_norm=float(np.linalg.norm(grad_K(K, x))),
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


@pytest.mark.filterwarnings("ignore:dropped")
@pytest.mark.parametrize("K", CLASSIFIED, ids=CLASSIFIED_IDS)
def test_dedup_matches_the_per_point_greedy_loop(K, monkeypatch):
    newton = []
    real = kfunc._newton_batch
    monkeypatch.setattr(kfunc, "_newton_batch", lambda *a: newton.append(real(*a)) or newton[0])
    find_critical_points(K)
    assert np.array_equal(kfunc._distinct(newton[0]), dedup_per_point_oracle(newton[0]))


def test_dedup_is_greedy_along_a_chain():
    """A-B and B-C are 0.8e-6 rad apart, A-C 1.6e-6: closeness is not
    transitive, and first-seen greedy keeps A and C."""
    angles = np.array([0.0, 0.8e-6, 1.6e-6])
    chain = np.zeros((3, 4))
    chain[:, 0], chain[:, 1] = np.cos(angles), np.sin(angles)
    for route in (kfunc._distinct, dedup_per_point_oracle):
        assert np.array_equal(route(chain), chain[[0, 2]])


def test_classification_takes_no_tangent_frames(monkeypatch):
    from collections import Counter

    from morsecount import sphere

    calls = Counter()
    for module, name in ((sphere, "tangent_basis"), (kfunc, "hess_K")):
        def counting(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
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


# (derivative rows, solve calls) of one default search, as measured; the
# guard at +10% catches a regression in work that timing noise would hide
SEARCH_WORK = {
    "three-bump-s3": (5502, 19),
    "three-max-one-saddle": (4012, 8),
    "two-bump-antipodal": (5234, 11),
}


@pytest.mark.parametrize("name", sorted(SEARCH_WORK))
def test_search_work_stays_within_its_measured_budget(name, monkeypatch):
    rows, _, solves, _ = count_search_work(monkeypatch, load_preset(name))
    max_rows, max_solves = SEARCH_WORK[name]
    assert rows <= 1.1 * max_rows
    assert solves <= 1.1 * max_solves


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


# ---------------------------------------------------------------------------
# range, positivity, normalization
# ---------------------------------------------------------------------------


def test_normalize_constant():
    K = KFunction(n=3, epsilon=0.05, terms=(), scale=5.0)
    K2 = normalize(K)
    assert K2.scale == pytest.approx(1.0)
    x = unit(np.array([1.0, 0.0, 1.0, 0.0]))
    assert eval_K(K2, x) == pytest.approx(1.0)


def test_normalize_leaves_nonnegative_f_nearly_unchanged():
    # all-positive bumps decay to ~0 far away, so K_min ~ 1 already
    K = sample_K(seed=9)
    terms = tuple(
        BumpTerm(center=t.center, weight=abs(t.weight), width=t.width)
        for t in K.terms
    )
    Kpos = KFunction(n=3, epsilon=0.1, terms=terms)
    K2 = normalize(Kpos)
    assert 1.0 / (1.0 + 0.1) < K2.scale <= 1.0 + 1e-12


def test_normalized_min_is_one_on_dense_grid():
    K = sample_K(seed=13)
    K2 = normalize(K)
    grid = quasi_uniform_points(3, 1_000_000)
    vals = eval_K(K2, grid)
    assert abs(float(np.min(vals)) - 1.0) < 1e-4


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
