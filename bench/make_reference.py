"""Write bench/reference.json, the stored answers the benchmark checks against.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

The values come from library calls of the checked-out package (the benchmark
itself goes through the CLI where its workloads do), so regenerate only on a
commit whose outputs are trusted.  The pools that workload seeds draw from
are built from a fixed generator seed, not from any workload seed.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np

import morsecount as mc
from morsecount import bubbles as bb
from morsecount import indexcount as ic
from morsecount import kfunc
from morsecount.quadrature import QuadratureConvergenceError, QuadratureScheme

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import FLOW_PRESETS, MC_SAMPLES, MC_TOL, SEARCH_PRESET, SWEEP_MAX_M, SWEEP_N, VERIFY_MAX_M  # noqa: E402

POOL_SEED = 20240726
PAIR_POOL, MC_POOL = 64, 48
TAU = 0.05  # the CLI flow's default subcritical defect
TOWER_SCALES = (10.0, 25.0, 50.0, 100.0, 200.0, 400.0)


def exact_sweep() -> dict:
    presets = {}
    for name in mc.available_presets():
        cfg = mc.load_preset(name)
        if not isinstance(cfg, ic.ParityConfig):
            continue
        report = ic.solution_bounds(cfg)
        presets[name] = {
            "mu": list(ic.mu_recurrence(cfg).mu),
            "case_label": report.case_label,
            "total_bound": report.total_bound,
            "bounds": [r.lower_bound for r in report.rows],
        }
    patterns = [p for m in range(2, SWEEP_MAX_M + 1) for p in ic.all_parity_patterns(m)]
    hits = [p for p in patterns if ic.mu_closed_form(ic.ParityConfig(n=7, parities=p, N=SWEEP_N)) is not None]
    verified = [p for p in patterns if len(p) <= VERIFY_MAX_M]
    return {
        "presets": presets,
        "closed_form_hits": [list(p) for p in hits],
        "verify": {"checked": len(verified), "closed_form_hits": sum(len(p) <= VERIFY_MAX_M for p in hits)},
    }


def inventory(name: str):
    K = mc.load_preset(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        points = kfunc.find_critical_points(K)
    return K, points


def pin_flow() -> dict:
    out = {}
    for name in FLOW_PRESETS:
        _, points = inventory(name)
        out[name] = {
            "points": len(points),
            "targets": [
                {"location": list(p.location), "iota": p.co_index}
                for p in kfunc.k_infinity_points(points)
            ],
        }
    _, points = inventory(SEARCH_PRESET)
    out[SEARCH_PRESET] = {"points": len(points), "locations": [list(p.location) for p in points]}
    return out


def random_pair(rng, log_lam: tuple[float, float]):
    while True:
        a, b = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 4)))
        if abs(float(a @ b)) < 0.99:
            lams = [float(np.exp(rng.uniform(*log_lam))) for _ in range(2)]
            return [[float(x) for x in a], [float(x) for x in b]], lams


def energy_scan() -> dict:
    det = QuadratureScheme()
    towers = []
    for n in range(3, 7):
        for lam in TOWER_SCALES:
            pole = (0.0,) * n
            u = bb.BubbleSum(
                n=n,
                bubbles=(bb.Bubble(center=pole + (1.0,), lam=lam), bb.Bubble(center=pole + (-1.0,), lam=lam)),
                alphas=(1.0, 1.0),
            )
            j = bb.functional_J_detailed(u, bb.constant_one(n), det)
            towers.append({"n": n, "lam": lam, "j": j.value, "error": j.error})

    rng = np.random.default_rng(POOL_SEED)
    pairs = []
    for _ in range(PAIR_POOL):
        centers, lams = random_pair(rng, (0.0, 5.0))
        u = bb.BubbleSum(
            n=3, bubbles=tuple(bb.Bubble(center=tuple(c), lam=l) for c, l in zip(centers, lams)), alphas=(1.0, 1.0)
        )
        value, error = bb.norm_squared(u, det)
        pairs.append({"centers": centers, "lams": lams, "value": value, "error": error})

    K = mc.load_preset(FLOW_PRESETS[0])
    pool = []
    for i in range(MC_POOL):
        centers, lams = random_pair(rng, (0.5, 3.0))
        u = bb.BubbleSum(
            n=3,
            bubbles=tuple(bb.Bubble(center=tuple(c), lam=l) for c, l in zip(centers, lams)),
            alphas=(1.0, 1.0),
            tau=TAU,
        )
        scheme = QuadratureScheme(kind="monte-carlo", samples=MC_SAMPLES, seed=1000 + i, tol=MC_TOL)
        try:
            j = bb.functional_J_detailed(u, K, scheme)
        except QuadratureConvergenceError:
            continue  # keep only inputs on which no op fails
        pool.append({"centers": centers, "lams": lams, "tau": TAU, "seed": 1000 + i, "j": j.value, "error": j.error})

    pins = []
    for name in FLOW_PRESETS:
        K, points = inventory(name)
        for p in kfunc.k_infinity_points(points):
            lam = bb.equilibrium_scale(K, p.location, TAU, det)
            u = bb.BubbleSum(n=3, bubbles=(bb.Bubble(center=p.location, lam=lam),), alphas=(1.0,), tau=TAU)
            est = bb.reduced_morse_index(u, K, det)
            if est.index != p.co_index or est.indeterminate:
                raise SystemExit(f"{name}: reduced index {est.index} at co-index {p.co_index}")
            pins.append({"preset": name, "location": list(p.location), "iota": p.co_index, "tau": TAU, "lam": lam})
    return {"towers": towers, "pairs": pairs, "mc": pool, "pins": pins}


def main() -> None:
    ref = {
        "exact-sweep": exact_sweep(),
        "pin-flow": pin_flow(),
        "energy-scan": energy_scan(),
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(ref['energy-scan']['mc'])}/{MC_POOL} Monte Carlo inputs kept)")


if __name__ == "__main__":
    main()
