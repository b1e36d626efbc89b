"""The four workloads: their inputs, their ops and the check of every output.

An op is one checked item.  ``make_inputs`` turns a workload seed into plain
data (the same seed gives the same data); ``build_ops`` turns that data into
ops.  Each op's ``run`` calls the program and returns its output, which is
all that is timed; ``check`` then decides whether that output is correct.
Checks read report fields, never report bytes, so new report fields do not
trip them.  Reference values come from ``reference.json``, written by
``make_reference.py``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("exact-sweep", "exact-deep", "pin-flow", "energy-scan")
# the hostspeed kernel that does each workload's kind of work
KERNEL = {"exact-sweep": "python", "exact-deep": "python", "pin-flow": "numpy", "energy-scan": "mixed"}

DEEP_PATTERNS = 4096  # seed-drawn parity patterns per exact-deep pass
DEEP_M, DEEP_N = 16, 64
FLOW_PRESETS = ("three-bump-s3", "three-max-one-saddle")
SEARCH_PRESET = "two-bump-antipodal"  # the CLI flow rejects n = 2
DRIFT_BOUND = 0.05  # geodesic distance allowed between a flow's end and its target
SINGLE_SCALES = 8  # seed-drawn scales per dimension for the single-bubble identity
PAIR_DRAWS = 32  # non-aligned S^3 pair energies drawn from the reference pool
MC_DRAWS = 12  # Monte Carlo J evaluations drawn from the reference pool
MC_SAMPLES, MC_TOL = 50_000, 1e-2
EQ_SCALE_RTOL = 1e-3  # allowed relative drift of an equilibrium scale
SWEEP_MAX_M, SWEEP_N = 9, 12  # exact-sweep's library patterns: every pattern with m <= 9
# exact-sweep's CLI verify sweeps only m <= 6.  The full m <= 9 sweep through
# the CLI ran on verify's pool: two GIL-bound threads on two shared cores,
# whose hand-offs swung its time by up to 2x with the host's load.  The same
# per-pattern calls, made one by one, are the library ops.
VERIFY_MAX_M = 6


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def parity_presets(ref: dict) -> list[str]:
    return sorted(ref["exact-sweep"]["presets"])


def presets_for(workload: str, ref: dict) -> list[str]:
    """Presets a user of this workload loads at start-up."""
    return {
        "exact-sweep": parity_presets(ref),
        "exact-deep": [],
        "pin-flow": [*FLOW_PRESETS, SEARCH_PRESET],
        "energy-scan": list(FLOW_PRESETS),
    }[workload]


# -- inputs ------------------------------------------------------------------


def all_parity_patterns(m: int) -> list[tuple[int, ...]]:
    """Every parity pattern of length m with the first entry 0, in the order
    the package's ``all_parity_patterns`` gives them."""
    return [(0,) + tuple((mask >> j) & 1 for j in range(m - 1)) for mask in range(1 << (m - 1))]


def closed_form_patterns() -> list[tuple[int, ...]]:
    """All-even tail, all-odd tail (m = 16) and alternating (m = 15)."""
    return [
        (0,) * DEEP_M,
        (0,) + (1,) * (DEEP_M - 1),
        tuple(j % 2 for j in range(DEEP_M - 1)),
    ]


def make_inputs(workload: str, seed: int, ref: dict) -> dict:
    """Plain-data inputs of one workload.  Preset-based inputs are fixed; the
    seed draws the sampled ones (exact-deep patterns, energy-scan scales and
    pool picks)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-sweep":
        patterns = [p for m in range(2, SWEEP_MAX_M + 1) for p in all_parity_patterns(m)]
        return {
            "verify": ["--max-m", str(VERIFY_MAX_M), "--max-N", str(SWEEP_N)],
            "patterns": patterns,
            "N": SWEEP_N,
            "presets": parity_presets(ref),
        }
    if workload == "exact-deep":
        patterns = [
            (0,) + tuple(rng.getrandbits(1) for _ in range(DEEP_M - 1))
            for _ in range(DEEP_PATTERNS)
        ]
        return {"patterns": patterns + closed_form_patterns(), "N": DEEP_N}
    if workload == "pin-flow":
        return {"flows": list(FLOW_PRESETS), "search": SEARCH_PRESET}
    if workload == "energy-scan":
        es = ref["energy-scan"]
        single = [
            (n, math.exp(rng.uniform(math.log(1.5), math.log(2000.0))))
            for n in range(3, 8)
            for _ in range(SINGLE_SCALES)
        ]
        return {
            "single": single,
            "towers": [(t["n"], t["lam"]) for t in es["towers"]],
            "pairs": rng.sample(range(len(es["pairs"])), PAIR_DRAWS),
            "mc": rng.sample(range(len(es["mc"])), MC_DRAWS),
            "pins": list(range(len(es["pins"]))),
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- ops ---------------------------------------------------------------------


def _cli(mc, argv: list[str]) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return mc.cli.main(argv)


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


@contextlib.contextmanager
def _capture(module, attr: str):
    """Record what ``module.attr`` returns while the block runs."""
    seen = []
    inner = getattr(module, attr)

    def capture(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append(out)
        return out

    setattr(module, attr, capture)
    try:
        yield seen
    finally:
        setattr(module, attr, inner)


def _euler_ok(points, n: int) -> bool:
    return sum((-1) ** p.morse_index_K for p in points) == 1 + (-1) ** n


def _close(a, b, tol: float) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def _within(value: float, error: float, ref: float, ref_error: float, tol: float) -> bool:
    """The value lies within the combined error estimate of the reference,
    floored at the scheme's declared relative tolerance."""
    return abs(value - ref) <= max(error + ref_error, tol * abs(ref))


def exact_sweep_ops(mc, inputs: dict, ref: dict, tmp: Path) -> list[Op]:
    es = ref["exact-sweep"]

    def verify_check(rc) -> bool:
        rep = _report(tmp / "verify")
        return (
            rc == 0
            and rep["checked"] == es["verify"]["checked"]
            and rep["closed_form_hits"] == es["verify"]["closed_form_hits"]
            and rep["failures"] == []
            and all(
                r["routes_agree"] and r["euler_poincare"] and r["bounds_consistent"]
                for r in rep["results"]
            )
        )

    ops = [
        Op(
            "verify",
            lambda: _cli(mc, ["verify", "--exhaustive", *inputs["verify"], "--out", str(tmp / "verify")]),
            verify_check,
        )
    ]
    hits = {tuple(p) for p in es["closed_form_hits"]}
    ops += [_sweep_op(mc, tuple(par), inputs["N"], tuple(par) in hits) for par in inputs["patterns"]]
    for name in inputs["presets"]:
        want = es["presets"][name]
        for mode in ("indices", "bounds"):
            out = tmp / f"{mode}-{name}"

            def run(mode=mode, name=name, out=out):
                return _cli(mc, [mode, "--preset", name, "--out", str(out)])

            ops.append(Op(f"{mode} {name}", run, _preset_check(mode, out, want)))
    return ops


def _sweep_op(mc, par: tuple[int, ...], N: int, closed_hit: bool) -> Op:
    """The calls verify makes for one pattern, as library calls."""
    ic = mc.indexcount

    def run():
        cfg = ic.ParityConfig(n=7, parities=par, N=N)
        direct = ic.mu_direct(cfg)
        return direct, ic.mu_recurrence(cfg), ic.mu_closed_form(cfg), ic.euler_poincare_check(direct), ic.solution_bounds(cfg)

    def check(out) -> bool:
        direct, rec, closed, ep, bounds = out
        mu = direct.mu
        return (
            len(mu) == N
            and rec.mu == mu
            and (closed is not None) == closed_hit
            and (closed is None or closed.mu == mu)
            and ep is True
            and bounds.mu == mu
            and all(r.lower_bound <= abs(mu[r.p - 1]) for r in bounds.rows)
        )

    return Op("pattern " + "".join(map(str, par)), run, check)


def _preset_check(mode: str, out: Path, want: dict):
    def check(rc) -> bool:
        if rc != 0:
            return False
        rep = _report(out)
        if mode == "indices":
            return rep["table"]["mu"] == want["mu"] and rep["euler_poincare"] is True
        b = rep["bounds"]
        bounds = [r["lower_bound"] for r in b["rows"]]
        return (
            b["mu"] == want["mu"]
            and b["case_label"] == want["case_label"]
            and b["total_bound"] == want["total_bound"]
            and bounds == want["bounds"]
            and all(lb <= abs(m) for lb, m in zip(bounds, b["mu"]))
        )

    return check


def _special(par: tuple[int, ...]) -> bool:
    """Whether one of the three closed forms applies to the pattern."""
    m, tail = len(par), par[1:]
    return m >= 3 and (
        all(b == 0 for b in tail)
        or all(b == 1 for b in tail)
        or (m % 2 == 1 and all(par[j] == j % 2 for j in range(m)))
    )


def exact_deep_ops(mc, inputs: dict, ref: dict, tmp: Path) -> list[Op]:
    ic = mc.indexcount
    N = inputs["N"]

    def make(par):
        def run():
            cfg = ic.ParityConfig(n=7, parities=par, N=N)
            table = ic.mu_recurrence(cfg)
            return table, ic.euler_poincare_check(table), ic.mu_closed_form(cfg), ic.solution_bounds(cfg)

        def check(out) -> bool:
            table, ep, closed, bounds = out
            mu = table.mu
            identities = all(
                mu[p - 1] + table.mu_geq[0][p - 1] == (1 if p == 1 else 0)
                and mu[p - 1] + table.mu_geq[1][p - 1] == 0
                for p in range(1, N + 1)
            )
            routes = (closed.mu == mu) if _special(par) else closed is None
            return (
                len(mu) == N
                and ep is True
                and identities
                and routes
                and bounds.mu == mu
                and all(r.lower_bound <= abs(mu[r.p - 1]) for r in bounds.rows)
            )

        return Op("pattern " + "".join(map(str, par)), run, check)

    return [make(tuple(p)) for p in inputs["patterns"]]


def pin_flow_ops(mc, inputs: dict, ref: dict, tmp: Path) -> list[Op]:
    want = ref["pin-flow"]
    ops = []
    for name in inputs["flows"]:
        out = tmp / f"flow-{name}"

        def run(name=name, out=out):
            with _capture(mc.cli, "find_critical_points") as seen:
                rc = _cli(mc, ["flow", "--preset", name, "--out", str(out)])
            return rc, seen

        def check(result, name=name, out=out) -> bool:
            rc, seen = result
            w = want[name]
            if rc != 0 or len(seen) != 1:
                return False
            inventory = seen[0]
            flows = _report(out)["flows"]
            return (
                len(inventory) == w["points"]
                and _euler_ok(inventory, 3)
                and len(flows) == len(w["targets"])
                and all(
                    _close(f["target"], t["location"], 1e-6)
                    and f["target_iota"] == t["iota"]
                    and f["status"] == "converged"
                    and f["reduced_index"] == f["target_iota"]
                    and f["indeterminate"] == 0
                    and f["distance"] <= DRIFT_BOUND
                    for f, t in zip(flows, w["targets"])
                )
            )

        ops.append(Op(f"flow {name}", run, check))

    name = inputs["search"]
    K = mc.presets.load_preset(name)

    def search():
        points = mc.kfunc.find_critical_points(K)
        return points, mc.kfunc.euler_characteristic_diagnostic(points, K.n)

    def search_check(result) -> bool:
        points, (_, _, match) = result
        w = want[name]
        return (
            len(points) == w["points"]
            and match is True
            and _euler_ok(points, K.n)
            and all(_close(p.location, loc, 1e-6) for p, loc in zip(points, w["locations"]))
        )

    ops.append(Op(f"search {name}", search, search_check))
    return ops


def energy_scan_ops(mc, inputs: dict, ref: dict, tmp: Path) -> list[Op]:
    bb = mc.bubbles
    es = ref["energy-scan"]
    det = mc.quadrature.QuadratureScheme()
    mcs = mc.quadrature.QuadratureScheme
    ops = []

    def pole(n, sign=1.0):
        return (0.0,) * n + (sign,)

    for n, lam in inputs["single"]:
        u = bb.BubbleSum(n=n, bubbles=(bb.Bubble(center=pole(n), lam=lam),), alphas=(1.0,))
        target = bb.sobolev_constant(n) ** (2.0 / n)

        def run(u=u, n=n):
            return bb.functional_J_detailed(u, bb.constant_one(n), det)

        def check(j, target=target) -> bool:
            return _within(j.value, j.error, target, 0.0, det.tol)

        ops.append(Op(f"single n={n} lam={lam:.3g}", run, check))

    for t in es["towers"]:
        n, lam = t["n"], t["lam"]
        u = bb.BubbleSum(
            n=n,
            bubbles=(bb.Bubble(center=pole(n), lam=lam), bb.Bubble(center=pole(n, -1.0), lam=lam)),
            alphas=(1.0, 1.0),
        )

        def run(u=u, n=n):
            return bb.functional_J_detailed(u, bb.constant_one(n), det)

        def check(j, t=t) -> bool:
            return _within(j.value, j.error, t["j"], t["error"], det.tol)

        ops.append(Op(f"tower n={n} lam={lam:g}", run, check))

    for i in inputs["pairs"]:
        p = es["pairs"][i]
        u = bb.BubbleSum(
            n=3,
            bubbles=tuple(bb.Bubble(center=tuple(c), lam=l) for c, l in zip(p["centers"], p["lams"])),
            alphas=(1.0, 1.0),
        )

        def run(u=u):
            return bb.norm_squared(u, det)

        def check(out, p=p) -> bool:
            return _within(out[0], out[1], p["value"], p["error"], det.tol)

        ops.append(Op(f"pair {i}", run, check))

    K = mc.presets.load_preset(FLOW_PRESETS[0])
    for i in inputs["mc"]:
        p = es["mc"][i]
        u = bb.BubbleSum(
            n=3,
            bubbles=tuple(bb.Bubble(center=tuple(c), lam=l) for c, l in zip(p["centers"], p["lams"])),
            alphas=(1.0, 1.0),
            tau=p["tau"],
        )
        scheme = mcs(kind="monte-carlo", samples=MC_SAMPLES, seed=p["seed"], tol=MC_TOL)

        def run(u=u, scheme=scheme):
            return bb.functional_J_detailed(u, K, scheme)

        def check(j, p=p) -> bool:
            return _within(j.value, j.error, p["j"], p["error"], MC_TOL)

        ops.append(Op(f"mc {i}", run, check))

    curvatures = {name: mc.presets.load_preset(name) for name in FLOW_PRESETS}
    for i in inputs["pins"]:
        p = es["pins"][i]
        Kp = curvatures[p["preset"]]

        def run(Kp=Kp, p=p):
            lam = bb.equilibrium_scale(Kp, p["location"], p["tau"], det)
            if lam is None:
                return None, None
            u = bb.BubbleSum(n=3, bubbles=(bb.Bubble(center=tuple(p["location"]), lam=lam),), alphas=(1.0,), tau=p["tau"])
            return lam, bb.reduced_morse_index(u, Kp, det)

        def check(out, p=p) -> bool:
            lam, est = out
            return (
                lam is not None
                and abs(lam - p["lam"]) <= EQ_SCALE_RTOL * p["lam"]
                and est.index == p["iota"]
                and est.indeterminate == 0
            )

        ops.append(Op(f"pin {p['preset']} {i}", run, check))
    return ops


BUILDERS = {
    "exact-sweep": exact_sweep_ops,
    "exact-deep": exact_deep_ops,
    "pin-flow": pin_flow_ops,
    "energy-scan": energy_scan_ops,
}


def build_ops(mc, workload: str, inputs: dict, ref: dict, tmp: Path) -> list[Op]:
    """``mc`` is the imported ``morsecount`` package; ops look functions up
    on its modules at call time, so a tracer installed later sees them."""
    return BUILDERS[workload](mc, inputs, ref, tmp)
