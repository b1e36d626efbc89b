"""Command-line entry point.

Subcommands: indices, bounds, verify, flow, quadrature.  Reports are written
to --out as deterministic JSON/CSV (timestamps segregated in report_meta.json)
and a short human summary goes to stdout.  Exit codes: 0 success, 2 bad
arguments/config, 3 invariant violation, 4 numerical nonconvergence,
5 internal consistency failure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from .indexcount import (
    ConsistencyError,
    ParityConfig,
    admissible_epsilon,
    all_parity_patterns,
    euler_poincare_check,
    mu_closed_form,
    mu_direct,
    mu_recurrence,
    solution_bounds,
)
from .presets import load_preset
from .reports import (
    bounds_csv,
    critical_points_csv,
    index_table_csv,
    trajectory_csv,
    write_meta,
    write_report,
    write_text,
)

#: Subcommands of the numerical lab.  The names they use are bound in this
#: module on first use (``_load_numerics``), so the exact subcommands never
#: import numpy or scipy.
_NUMERICAL_MODES = ("flow", "quadrature")
_NUMERICS = {
    "bubbles": (
        "Bubble", "BubbleSum", "FlowOptions", "QuadratureNoiseWarning", "constant_one",
        "equilibrium_scale", "flow_to_critical", "functional_J_detailed",
        "reduced_morse_index", "sobolev_constant",
    ),
    "kfunc": (
        "KFunction", "euler_characteristic_diagnostic", "find_critical_points",
        "k_infinity_points",
    ),
    "quadrature": ("QuadratureConvergenceError", "QuadratureScheme"),
}


def _load_numerics() -> None:
    """Bind the names in ``_NUMERICS`` here.  A name that is already bound
    keeps its value, so a patched ``find_critical_points`` stays patched."""
    names = globals()
    for module, attrs in _NUMERICS.items():
        mod = importlib.import_module(f".{module}", __package__)
        for attr in attrs:
            names.setdefault(attr, getattr(mod, attr))


def __getattr__(name: str):
    if any(name in attrs for attrs in _NUMERICS.values()):
        _load_numerics()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_NONCONVERGENCE = 4
EXIT_CONSISTENCY = 5

#: The direct route enumerates all 2^m point subsets: ``indices`` refuses more than
#: MAX_INDICES_M points, ``verify`` sweeps at most MAX_VERIFY_M (each point triples it).
#: Both refuse a level cap above MAX_LEVEL_N; the counts are big integers, so the
#: work grows faster than linearly in N.
MAX_INDICES_M = 20
MAX_VERIFY_M = 12
MAX_LEVEL_N = 64


class CLIFailure(Exception):
    """Carries an exit code and a structured error payload."""

    def __init__(self, code: int, kind: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.kind = kind
        self.detail = detail

    def payload(self) -> dict:
        return {"error": {"kind": self.kind, "detail": self.detail}}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse failures inside our exit scheme
        raise CLIFailure(EXIT_USAGE, "usage", message)


@dataclass
class RunConfig:
    """Resolved inputs of one invocation; embedded verbatim in every report."""

    mode: str
    out: str | None = None
    parities: tuple[int, ...] | None = None
    preset: str | None = None
    N: int | None = None
    eta: float | None = None
    tau: float | None = None
    seed: int | None = None
    nodes: int | None = None
    samples: int | None = None
    exhaustive: bool = False
    max_m: int = 8
    max_N: int = 12

    def to_dict(self) -> dict:
        # the output directory is where results go, not an input that shapes
        # them; leaving it out keeps reports byte-identical across locations
        return {
            "mode": self.mode,
            "parities": list(self.parities) if self.parities is not None else None,
            "preset": self.preset,
            "N": self.N,
            "eta": self.eta,
            "tau": self.tau,
            "seed": self.seed,
            "nodes": self.nodes,
            "samples": self.samples,
            "exhaustive": self.exhaustive,
            "max_m": self.max_m,
            "max_N": self.max_N,
        }


def _parse_parities(text: str) -> tuple[int, ...]:
    try:
        bits = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok != "")
    except ValueError:
        raise CLIFailure(EXIT_USAGE, "usage", f"cannot parse parity list {text!r}")
    if not bits:
        raise CLIFailure(EXIT_USAGE, "usage", "empty parity list")
    return bits


def build_parser() -> _Parser:
    parser = _Parser(prog="morsecount", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p, n_help="energy level cap"):
        p.add_argument("--config", type=Path, help="JSON file with defaults for any flag")
        p.add_argument("--out", type=Path, help="directory for report files")
        p.add_argument("--preset", help="bundled preset name")
        p.add_argument("--N", type=int, help=n_help)
        p.add_argument("--eta", type=float, help="level-window half-width")
        p.add_argument("--tau", type=float, help="subcritical defect")
        p.add_argument("--seed", type=int, help="random seed for sampling schemes")

    p_idx = sub.add_parser("indices", help="signed blow-up counts mu_p for one configuration")
    common(p_idx, n_help=f"energy level cap, at most {MAX_LEVEL_N}")
    p_idx.add_argument(
        "--parities", help=f"comma-separated co-index parities, e.g. 0,0,1 (m <= {MAX_INDICES_M})"
    )

    p_bnd = sub.add_parser("bounds", help="classified case and solution-count lower bounds")
    common(p_bnd)
    p_bnd.add_argument("--parities", help="comma-separated co-index parities")

    p_ver = sub.add_parser("verify", help="cross-route equivalence sweep over parity patterns")
    common(p_ver)
    p_ver.add_argument(
        "--exhaustive",
        action="store_true",
        default=None,
        help="all patterns up to --max-m",
    )
    p_ver.add_argument(
        "--max-m", type=int, default=None, dest="max_m", help=f"default 8, at most {MAX_VERIFY_M}"
    )
    p_ver.add_argument(
        "--max-N", type=int, default=None, dest="max_N", help=f"default 12, at most {MAX_LEVEL_N}"
    )

    p_flow = sub.add_parser("flow", help="single-bubble flows seeded at each admissible point")
    common(p_flow)

    p_quad = sub.add_parser("quadrature", help="quadrature diagnostics: normalization and pair levels")
    common(p_quad)
    return parser


def _load_config_file(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise CLIFailure(EXIT_USAGE, "usage", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CLIFailure(EXIT_USAGE, "usage", f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CLIFailure(EXIT_USAGE, "usage", "config file must hold a JSON object")
    return data


def parse_args(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    file_cfg = _load_config_file(ns.config) if getattr(ns, "config", None) else {}

    def pick(flag, key=None, default=None):
        val = getattr(ns, flag, None)
        if val is not None:
            return val
        return file_cfg.get(key or flag, default)

    parities = pick("parities")
    if isinstance(parities, str):
        parities = _parse_parities(parities)
    elif parities is not None:
        parities = tuple(int(b) for b in parities)

    cfg = RunConfig(
        mode=ns.mode,
        out=str(pick("out")) if pick("out") is not None else None,
        parities=parities,
        preset=pick("preset"),
        N=pick("N"),
        eta=pick("eta"),
        tau=pick("tau"),
        seed=pick("seed"),
        nodes=file_cfg.get("nodes"),
        samples=file_cfg.get("samples"),
        exhaustive=bool(pick("exhaustive", default=False)),
        max_m=int(pick("max_m", default=8)),
        max_N=int(pick("max_N", default=12)),
    )
    return cfg


def _parity_config(cfg: RunConfig) -> ParityConfig:
    """Resolve parities from flag or preset, with the level cap applied."""
    n, parities, N = 7, cfg.parities, cfg.N if cfg.N is not None else 12
    if parities is None:
        if cfg.preset is None:
            raise CLIFailure(
                EXIT_USAGE, "usage", "need --parities or a parity --preset"
            )
        loaded = load_preset_checked(cfg.preset)
        if not isinstance(loaded, ParityConfig):
            raise CLIFailure(
                EXIT_USAGE,
                "usage",
                f"preset {cfg.preset!r} is a curvature candidate, not a parity pattern",
            )
        n, parities = loaded.n, loaded.parities
        if cfg.N is None:
            N = loaded.N
    try:
        return ParityConfig(n=n, parities=tuple(parities), N=int(N))
    except ValueError as exc:
        raise CLIFailure(EXIT_INVARIANT, "invariant", str(exc))


def load_preset_checked(name: str):
    try:
        return load_preset(name)
    except ValueError as exc:
        raise CLIFailure(EXIT_USAGE, "usage", str(exc))


def _scheme(cfg: RunConfig, **overrides) -> QuadratureScheme:
    kw = {}
    if cfg.nodes is not None:
        kw["nodes"] = int(cfg.nodes)
    if cfg.samples is not None:
        kw["samples"] = int(cfg.samples)
    if cfg.seed is not None:
        kw["seed"] = int(cfg.seed)
    kw.update(overrides)
    return QuadratureScheme(**kw)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _at_most(what: str, value: int, limit: int, unit: str = "") -> None:
    if value > limit:
        raise CLIFailure(EXIT_USAGE, "usage", f"{what}{value} exceeds the limit of {limit}{unit}")


def run_indices(cfg: RunConfig) -> int:
    pcfg = _parity_config(cfg)
    _at_most("m = ", pcfg.m, MAX_INDICES_M, " points")
    _at_most("N = ", pcfg.N, MAX_LEVEL_N, " levels")
    table = mu_direct(pcfg)
    cross = mu_recurrence(pcfg)
    closed = mu_closed_form(pcfg)
    if table.mu != cross.mu or (closed is not None and closed.mu != table.mu):
        raise CLIFailure(
            EXIT_CONSISTENCY,
            "consistency",
            f"counting routes disagree for {pcfg.parities}",
        )
    if not euler_poincare_check(table):
        raise CLIFailure(
            EXIT_CONSISTENCY, "consistency", "alternating-sum identity failed"
        )
    payload = {
        "config": cfg.to_dict(),
        "parity_config": pcfg.to_dict(),
        "table": table.to_dict(),
        "closed_form_applies": closed is not None,
        "euler_poincare": True,
    }
    print(f"parities {tuple(pcfg.parities)}  N={pcfg.N}")
    print("mu =", list(table.mu))
    if cfg.out:
        write_report(cfg.out, payload)
        write_text(Path(cfg.out) / "indices.csv", index_table_csv(table))
        write_meta(cfg.out)
        print(f"report written to {cfg.out}")
    return EXIT_OK


def run_bounds(cfg: RunConfig) -> int:
    pcfg = _parity_config(cfg)
    if cfg.eta is not None:
        try:
            threshold = admissible_epsilon(pcfg.N, cfg.eta, pcfg.n)
        except ValueError as exc:
            raise CLIFailure(EXIT_INVARIANT, "invariant", str(exc))
    else:
        threshold = None
    try:
        report = solution_bounds(pcfg)
    except ConsistencyError as exc:
        raise CLIFailure(EXIT_CONSISTENCY, "consistency", str(exc))
    payload = {
        "config": cfg.to_dict(),
        "bounds": report.to_dict(),
        "admissible_epsilon_threshold": threshold,
    }
    print(
        f"case {report.case_label}  index_K={report.index_K}"
        + (f"  ell={report.ell}" if report.ell is not None else "")
    )
    print(f"total solution bound: {report.total_bound}")
    for row in report.rows:
        if row.lower_bound:
            print(
                f"  level {row.p}: >= {row.lower_bound} "
                f"(energy {row.energy_multiple} S_n)"
            )
    if cfg.out:
        write_report(cfg.out, payload)
        write_text(Path(cfg.out) / "bounds.csv", bounds_csv(report))
        write_meta(cfg.out)
        print(f"report written to {cfg.out}")
    return EXIT_OK


def _verify_one(pcfg: ParityConfig) -> dict:
    direct = mu_direct(pcfg)
    rec = mu_recurrence(pcfg)
    closed = mu_closed_form(pcfg)
    ok_routes = direct.mu == rec.mu and (closed is None or closed.mu == direct.mu)
    ok_euler = euler_poincare_check(direct)
    try:
        ok_bounds = solution_bounds(pcfg).mu == direct.mu
    except ConsistencyError:
        ok_bounds = False
    return {
        "parities": list(pcfg.parities),
        "routes_agree": ok_routes,
        "euler_poincare": ok_euler,
        "bounds_consistent": ok_bounds,
        "closed_form": closed is not None,
    }


def run_verify(cfg: RunConfig) -> int:
    if not cfg.exhaustive:
        raise CLIFailure(
            EXIT_USAGE, "usage", "verify currently only supports --exhaustive sweeps"
        )
    _at_most("--max-m ", cfg.max_m, MAX_VERIFY_M)
    _at_most("--max-N ", cfg.max_N, MAX_LEVEL_N)
    N = cfg.max_N
    results = [
        _verify_one(ParityConfig(n=7, parities=parities, N=N))
        for m in range(2, cfg.max_m + 1)
        for parities in all_parity_patterns(m)
    ]
    results.sort(key=lambda r: (len(r["parities"]), r["parities"]))
    bad = [
        r
        for r in results
        if not (r["routes_agree"] and r["euler_poincare"] and r["bounds_consistent"])
    ]
    payload = {
        "config": cfg.to_dict(),
        "checked": len(results),
        "closed_form_hits": sum(r["closed_form"] for r in results),
        "failures": bad,
        "results": results,
    }
    print(
        f"checked {len(results)} parity patterns (m <= {cfg.max_m}, N = {N}): "
        f"{len(results) - len(bad)} ok, {len(bad)} failed"
    )
    if cfg.out:
        write_report(cfg.out, payload)
        write_meta(cfg.out)
        print(f"report written to {cfg.out}")
    if bad:
        raise CLIFailure(
            EXIT_CONSISTENCY,
            "consistency",
            f"{len(bad)} parity patterns failed cross-route verification",
        )
    return EXIT_OK


def _curvature_preset(cfg: RunConfig) -> KFunction:
    name = cfg.preset or "three-bump-s3"
    loaded = load_preset_checked(name)
    if not isinstance(loaded, KFunction):
        raise CLIFailure(
            EXIT_USAGE,
            "usage",
            f"preset {name!r} is a parity pattern, not a curvature candidate",
        )
    return loaded


def run_flow(cfg: RunConfig) -> int:
    K = _curvature_preset(cfg)
    if K.n != 3:
        raise CLIFailure(
            EXIT_INVARIANT,
            "invariant",
            "deterministic flow reports are wired for the 3-sphere presets",
        )
    tau = cfg.tau if cfg.tau is not None else 0.05
    if not tau > 0:
        raise CLIFailure(EXIT_INVARIANT, "invariant", "tau must be positive for flows")
    scheme = _scheme(cfg)
    points = find_critical_points(K)
    euler_sum, euler_expected, euler_match = euler_characteristic_diagnostic(points, K.n)
    if not euler_match:
        print(
            f"warning: critical inventory is incomplete: {len(points)} points, "
            f"alternating index sum {euler_sum} != Euler characteristic {euler_expected}"
        )
    targets = k_infinity_points(points)
    rows = []
    trajectories = []
    # seeds sit at the scanned equilibrium scale, i.e. already near-stationary,
    # so a generous newton_threshold sends them straight to the polish; plain
    # descent would slide off the saddle-type points
    opts = FlowOptions(max_steps=200, newton_threshold=0.1)
    for i, pt in enumerate(targets):
        center = pt.location
        iota = int(3 - pt.morse_index_K)
        lam_bar = equilibrium_scale(K, center, tau, scheme)
        if lam_bar is None:
            rows.append(
                {
                    "target": [float(c) for c in center],
                    "target_iota": iota,
                    "seed_scale": None,
                    "status": "no-equilibrium-scale",
                    "distance": None,
                    "final_scale": None,
                    "reduced_index": None,
                    "indeterminate": None,
                    "j_value": None,
                }
            )
            print(f"point {i}: iota={iota}  no pinned equilibrium scale")
            continue
        seedsum = BubbleSum(
            n=3,
            bubbles=(Bubble(center=tuple(center), lam=lam_bar),),
            alphas=(1.0,),
            tau=tau,
        )
        final, rep = flow_to_critical(
            seedsum, K, opts, scheme, reference_points=[center]
        )
        est = reduced_morse_index(final, K, scheme)
        rows.append(
            {
                "target": [float(c) for c in center],
                "target_iota": iota,
                "seed_scale": lam_bar,
                "status": rep.status,
                "distance": rep.nearest[0][1] if rep.nearest else None,
                "final_scale": final.bubbles[0].lam,
                "reduced_index": est.index,
                "indeterminate": est.indeterminate,
                "j_value": rep.j_value,
            }
        )
        trajectories.append((i, rep))
        print(
            f"point {i}: iota={iota}  status={rep.status}  "
            f"dist={rows[-1]['distance']:.2e}  seed_lam={lam_bar:.2f}  "
            f"index={est.index}{'?' if est.indeterminate else ''}"
        )
    payload = {
        "config": cfg.to_dict(),
        "curvature": K.to_dict(),
        "tau": tau,
        "scheme": scheme.to_dict(),
        "inventory": {
            "points": len(points),
            "euler_sum": euler_sum,
            "euler_expected": euler_expected,
            "euler_match": euler_match,
        },
        "flows": rows,
    }
    if cfg.out:
        write_report(cfg.out, payload)
        write_text(Path(cfg.out) / "targets.csv", critical_points_csv(targets))
        for i, rep in trajectories:
            write_text(Path(cfg.out) / f"trajectory_{i}.csv", trajectory_csv(rep, 3))
        write_meta(cfg.out)
        print(f"report written to {cfg.out}")
    if any(r["status"] != "converged" for r in rows):
        raise CLIFailure(
            EXIT_NONCONVERGENCE,
            "nonconvergence",
            "at least one flow did not converge; see report",
        )
    return EXIT_OK


def run_quadrature(cfg: RunConfig) -> int:
    scheme = _scheme(cfg)
    checks = []
    for n in range(3, 8):
        u = BubbleSum(
            n=n,
            bubbles=(Bubble(center=(0.0,) * n + (1.0,), lam=9.0),),
            alphas=(1.0,),
        )
        det = functional_J_detailed(u, constant_one(n), scheme)
        target = sobolev_constant(n) ** (2.0 / n)
        checks.append(
            {
                "n": n,
                "j_single": det.value,
                "target": target,
                "rel_dev": abs(det.value - target) / target,
            }
        )
    pair_levels = []
    target2 = (2 * sobolev_constant(3)) ** (2.0 / 3.0)
    for lam in (10.0, 30.0, 50.0, 100.0):
        u = BubbleSum(
            n=3,
            bubbles=(
                Bubble(center=(0.0, 0.0, 0.0, 1.0), lam=lam),
                Bubble(center=(0.0, 0.0, 0.0, -1.0), lam=lam),
            ),
            alphas=(1.0, 1.0),
        )
        det = functional_J_detailed(u, constant_one(3), scheme)
        pair_levels.append(
            {
                "lam": lam,
                "j_pair": det.value,
                "target": target2,
                "rel_dev": abs(det.value - target2) / target2,
            }
        )
    payload = {
        "config": cfg.to_dict(),
        "scheme": scheme.to_dict(),
        "single_bubble_levels": checks,
        "antipodal_pair_levels": pair_levels,
    }
    worst = max(c["rel_dev"] for c in checks)
    print(f"single-bubble level identity: worst relative deviation {worst:.2e}")
    for row in pair_levels:
        print(
            f"  antipodal pair lam={row['lam']:5.1f}: J={row['j_pair']:.6f} "
            f"dev={row['rel_dev']:.4f}"
        )
    if cfg.out:
        write_report(cfg.out, payload)
        write_meta(cfg.out)
        print(f"report written to {cfg.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "indices": run_indices,
    "bounds": run_bounds,
    "verify": run_verify,
    "flow": run_flow,
    "quadrature": run_quadrature,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit code."""
    runner = _RUNNERS.get(cfg.mode)
    if runner is None:
        raise CLIFailure(EXIT_USAGE, "usage", f"unknown mode {cfg.mode!r}")
    numerical = cfg.mode in _NUMERICAL_MODES
    if numerical:
        _load_numerics()
    try:
        return runner(cfg)
    except CLIFailure:
        raise
    except ConsistencyError as exc:
        raise CLIFailure(EXIT_CONSISTENCY, "consistency", str(exc))
    except ValueError as exc:
        raise CLIFailure(EXIT_INVARIANT, "invariant", str(exc))
    except RuntimeError as exc:
        # QuadratureConvergenceError is bound once a numerical subcommand runs
        if numerical and isinstance(exc, QuadratureConvergenceError):
            raise CLIFailure(EXIT_NONCONVERGENCE, "nonconvergence", str(exc))
        raise


def main(argv=None) -> int:
    # scoped, so an in-process call leaves the caller's warning filters intact
    with warnings.catch_warnings():
        try:
            cfg = parse_args(argv if argv is not None else sys.argv[1:])
            if cfg.mode in _NUMERICAL_MODES:
                _load_numerics()
                warnings.simplefilter("ignore", QuadratureNoiseWarning)
            return run(cfg)
        except CLIFailure as fail:
            json.dump(fail.payload(), sys.stderr, sort_keys=True)
            sys.stderr.write("\n")
            return fail.code


if __name__ == "__main__":
    sys.exit(main())
