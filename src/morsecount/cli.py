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
    IndexTable,
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
#: import numpy.  The subcommands call these bindings, so patching
#: one on ``cli`` changes what they call: tests do, and the bench's pin-flow
#: workload wraps ``cli.find_critical_points`` to capture the inventory.
_NUMERICAL_MODES = ("flow", "quadrature")
_NUMERICS = {
    "bubbles": (
        "Bubble", "BubbleSum", "constant_one", "equilibrium_scale",
        "flow_to_critical", "functional_J_detailed", "sobolev_constant",
    ),
    "kfunc": ("euler_characteristic_diagnostic", "find_critical_points", "k_infinity_points"),
    "quadrature": ("QuadratureConvergenceError", "QuadratureScheme"),
    "sphere": ("geodesic_distance",),
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
#: MAX_INDICES_M points, ``verify`` sweeps at most MAX_VERIFY_M (each point about
#: doubles its time; the m <= 12 sweep takes about 1.7 s at N = 12, 3.7 s at N = 64).
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
    """Resolved inputs of one invocation: each key the subcommand reads
    (``reads``) is recorded in its report."""

    mode: str
    reads: tuple[str, ...]
    out: str | None = None
    parities: tuple[int, ...] | None = None
    preset: str | None = None
    N: int | None = None
    eta: float | None = None
    tau: float | None = None
    exhaustive: bool = False
    max_m: int = 8
    max_N: int = 12

    def to_dict(self) -> dict:
        # the output directory is where results go, not an input that shapes
        # them; leaving it out keeps reports byte-identical across locations
        return {"mode": self.mode, **{k: getattr(self, k) for k in self.reads if k != "out"}}


def _parse_parities(text: str) -> tuple[int, ...]:
    try:
        bits = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok != "")
    except ValueError:
        raise CLIFailure(EXIT_USAGE, "usage", f"cannot parse parity list {text!r}")
    if not bits:
        raise CLIFailure(EXIT_USAGE, "usage", "empty parity list")
    return bits


#: The JSON types a ``--config`` value may take, by the type its flag parses
#: (``bool`` for a switch), compared exactly so that ``true`` is no integer;
#: ``null`` fits none.  The one special case is ``parities``, which a file
#: may also give as a list of integers.
_JSON_TYPES = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    bool: ("a boolean", (bool,)),
    str: ("a string", (str,)),
}
_PARITY_TYPES = ("a string or a list of integers", (str, list))


class _ConfigFile(argparse.Action):
    """``--config PATH``: the JSON object in PATH.  Each key must be a flag
    destination of the subcommand whose parser runs this action and hold
    that flag's JSON type."""

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise CLIFailure(EXIT_USAGE, "usage", f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise CLIFailure(EXIT_USAGE, "usage", f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise CLIFailure(EXIT_USAGE, "usage", "config file must hold a JSON object")
        flags = {a.dest: a for a in parser._actions if a.dest not in ("help", self.dest)}
        for key, value in data.items():
            flag = flags.get(key)
            if flag is None:
                mode = parser.prog.split()[-1]
                raise CLIFailure(EXIT_USAGE, "usage", f"config key {key!r} is not read by {mode}")
            if key == "parities":
                name, types = _PARITY_TYPES
            else:
                name, types = _JSON_TYPES[bool if flag.nargs == 0 else flag.type or str]
            if type(value) not in types or (
                type(value) is list and not all(type(v) is int for v in value)
            ):
                raise CLIFailure(
                    EXIT_USAGE, "usage", f"config key {key!r} must be {name}, got {value!r}"
                )
        setattr(namespace, self.dest, data)


_PRESET = ("--preset", {"help": "bundled preset name"})

#: Each subcommand's help text and the flags it reads besides --config and --out.
_SUBCOMMANDS = {
    "indices": ("signed blow-up counts mu_p for one configuration", (
        _PRESET,
        ("--N", {"type": int, "help": f"energy level cap, at most {MAX_LEVEL_N}"}),
        ("--parities", {
            "help": f"comma-separated co-index parities, e.g. 0,0,1 (m <= {MAX_INDICES_M})"
        }),
    )),
    "bounds": ("classified case and solution-count lower bounds", (
        _PRESET,
        ("--N", {"type": int, "help": "energy level cap"}),
        ("--eta", {"type": float, "help": "level-window half-width"}),
        ("--parities", {"help": "comma-separated co-index parities"}),
    )),
    "verify": ("cross-route equivalence sweep over parity patterns", (
        ("--exhaustive", {"action": "store_true", "default": None,
                          "help": "all patterns up to --max-m"}),
        ("--max-m", {"type": int, "dest": "max_m", "help": f"default 8, from 2 to {MAX_VERIFY_M}"}),
        ("--max-N", {"type": int, "dest": "max_N", "help": f"default 12, at most {MAX_LEVEL_N}"}),
    )),
    "flow": ("single-bubble flows seeded at each admissible point", (
        _PRESET,
        ("--tau", {"type": float, "help": "subcritical defect"}),
    )),
    "quadrature": ("quadrature diagnostics: normalization and pair levels", ()),
}


def build_parser(mode: str | None = None) -> _Parser:
    """The top-level parser with a subparser for ``mode`` alone when it names a
    subcommand, else with all of them; each declares only the flags it reads."""
    parser = _Parser(prog="morsecount", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in [mode] if mode in _SUBCOMMANDS else _SUBCOMMANDS:
        help_text, flags = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", action=_ConfigFile, help="JSON file with defaults for these flags")
        p.add_argument("--out", help="directory for report files")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def parse_args(argv) -> RunConfig:
    """Flags win over ``--config`` keys, which win over the defaults.  Only
    the subcommand that ``argv[0]`` names gets a parser built."""
    ns = vars(build_parser(argv[0] if argv else None).parse_args(argv))
    mode, file_cfg = ns.pop("mode"), ns.pop("config") or {}
    given = {**file_cfg, **{k: v for k, v in ns.items() if v is not None}}
    parities = given.get("parities")
    if isinstance(parities, str):
        given["parities"] = _parse_parities(parities)
    elif parities is not None:
        given["parities"] = tuple(parities)
    return RunConfig(mode=mode, reads=tuple(ns), **given)


def _preset(name: str, parity: bool):
    """The bundled preset ``name``, which must be a parity pattern when
    ``parity`` is set and a curvature candidate otherwise."""
    try:
        loaded = load_preset(name)
    except ValueError as exc:
        raise CLIFailure(EXIT_USAGE, "usage", str(exc))
    if isinstance(loaded, ParityConfig) != parity:
        kinds = ("a curvature candidate", "a parity pattern")
        raise CLIFailure(
            EXIT_USAGE, "usage", f"preset {name!r} is {kinds[not parity]}, not {kinds[parity]}"
        )
    return loaded


def _parity_config(cfg: RunConfig) -> ParityConfig:
    """Resolve parities from flag or preset, with the level cap applied."""
    if cfg.parities is not None:
        n, parities, N = 7, cfg.parities, 12
    elif cfg.preset is not None:
        loaded = _preset(cfg.preset, parity=True)
        n, parities, N = loaded.n, loaded.parities, loaded.N
    else:
        raise CLIFailure(EXIT_USAGE, "usage", "need --parities or a parity --preset")
    if cfg.N is not None:
        _at_least("N = ", cfg.N, 1)
        N = cfg.N
    return ParityConfig(n=n, parities=tuple(parities), N=N)


def _write(cfg: RunConfig, payload: dict, side_files: dict[str, str] | None = None) -> None:
    """With --out: report.json, then the side files, then report_meta.json,
    into the directory made here, once for all of them."""
    if not cfg.out:
        return
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out, payload)
    for name, text in (side_files or {}).items():
        write_text(out / name, text)
    write_meta(out)
    print(f"report written to {cfg.out}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _at_most(what: str, value: int, limit: int, unit: str = "") -> None:
    if value > limit:
        raise CLIFailure(EXIT_USAGE, "usage", f"{what}{value} exceeds the limit of {limit}{unit}")


def _at_least(what: str, value: int, floor: int) -> None:
    if value < floor:
        raise CLIFailure(EXIT_USAGE, "usage", f"{what}{value} is below {floor}")


def _cross_check(pcfg: ParityConfig) -> tuple[IndexTable, dict]:
    """The table by direct enumeration, and whether the recurrence's and (where
    one applies) the closed form's whole tables equal it and the
    Euler–Poincaré identities hold."""
    direct = mu_direct(pcfg)
    rec = mu_recurrence(pcfg)
    closed = mu_closed_form(pcfg)
    return direct, {
        "routes_agree": direct == rec and (closed is None or closed == direct),
        "euler_poincare": euler_poincare_check(direct),
        "closed_form": closed is not None,
    }


def run_indices(cfg: RunConfig) -> int:
    pcfg = _parity_config(cfg)
    _at_most("m = ", pcfg.m, MAX_INDICES_M, " points")
    _at_most("N = ", pcfg.N, MAX_LEVEL_N, " levels")
    table, checks = _cross_check(pcfg)
    if not checks["routes_agree"]:
        raise CLIFailure(
            EXIT_CONSISTENCY, "consistency", f"counting routes disagree for {pcfg.parities}"
        )
    if not checks["euler_poincare"]:
        raise CLIFailure(EXIT_CONSISTENCY, "consistency", "alternating-sum identity failed")
    payload = {
        "config": cfg.to_dict(),
        "parity_config": pcfg.to_dict(),
        "table": table.to_dict(),
        "closed_form_applies": checks["closed_form"],
        "euler_poincare": True,
    }
    print(f"parities {tuple(pcfg.parities)}  N={pcfg.N}")
    print("mu =", list(table.mu))
    _write(cfg, payload, {"indices.csv": index_table_csv(table)})
    return EXIT_OK


def run_bounds(cfg: RunConfig) -> int:
    pcfg = _parity_config(cfg)
    threshold = None if cfg.eta is None else admissible_epsilon(pcfg.N, cfg.eta, pcfg.n)
    report = solution_bounds(pcfg)
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
    _write(cfg, payload, {"bounds.csv": bounds_csv(report)})
    return EXIT_OK


def _verify_one(pcfg: ParityConfig) -> dict:
    try:
        direct, checks = _cross_check(pcfg)
    except ConsistencyError as exc:  # a route refused its own table
        return {"parities": list(pcfg.parities), "routes_agree": False, "error": str(exc)}
    try:
        ok_bounds = solution_bounds(pcfg).mu == direct.mu
    except ConsistencyError:
        ok_bounds = False
    return {"parities": list(pcfg.parities), **checks, "bounds_consistent": ok_bounds}


def run_verify(cfg: RunConfig) -> int:
    if not cfg.exhaustive:
        raise CLIFailure(
            EXIT_USAGE, "usage", "verify currently only supports --exhaustive sweeps"
        )
    _at_most("--max-m ", cfg.max_m, MAX_VERIFY_M)
    _at_least("--max-m ", cfg.max_m, 2)  # below 2 the sweep would check no pattern
    _at_most("--max-N ", cfg.max_N, MAX_LEVEL_N)
    _at_least("--max-N ", cfg.max_N, 1)
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
        "closed_form_hits": sum(r.get("closed_form", False) for r in results),
        "failures": bad,
        "results": results,
    }
    print(
        f"checked {len(results)} parity patterns (m <= {cfg.max_m}, N = {N}): "
        f"{len(results) - len(bad)} ok, {len(bad)} failed"
    )
    _write(cfg, payload)
    if bad:
        refusal = next((f"; {tuple(r['parities'])}: {r['error']}" for r in bad if "error" in r), "")
        raise CLIFailure(
            EXIT_CONSISTENCY,
            "consistency",
            f"{len(bad)} parity patterns failed cross-route verification{refusal}",
        )
    return EXIT_OK


def run_flow(cfg: RunConfig) -> int:
    K = _preset(cfg.preset or "three-bump-s3", parity=False)
    if K.n != 3:
        raise CLIFailure(
            EXIT_INVARIANT,
            "invariant",
            "deterministic flow reports are wired for the 3-sphere presets",
        )
    tau = cfg.tau if cfg.tau is not None else 0.05
    if not 0 < tau < 4.0 / (K.n - 2):
        raise CLIFailure(EXIT_INVARIANT, "invariant",
                         f"flows need 0 < tau < 4/(n-2) = {4.0 / (K.n - 2):g}; got {tau!r}")
    scheme = QuadratureScheme()
    # the search's warnings (dropped degenerate points) go to stdout beside
    # the inventory check, not to stderr under this file's path and line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = find_critical_points(K)
    for w in caught:
        print(f"warning: {w.message}")
    euler_sum, euler_expected, euler_match = euler_characteristic_diagnostic(points, K.n)
    if not euler_match:
        print(
            f"warning: critical inventory is incomplete: {len(points)} points, "
            f"alternating index sum {euler_sum} != Euler characteristic {euler_expected}"
        )
    targets = k_infinity_points(points)
    rows = []
    side_files = {"targets.csv": critical_points_csv(targets)}
    # each seed sits at its scanned equilibrium scale, near the critical point
    # (of any index) that the Newton flow converges to
    for i, pt in enumerate(targets):
        center = pt.location
        iota = pt.co_index
        lam_bar = equilibrium_scale(K, center, tau, scheme)
        row = {
            "target": [float(c) for c in center],
            "target_iota": iota,
            "seed_scale": lam_bar,
            "status": "no-equilibrium-scale",
            "distance": None,
            "final_scale": None,
            "reduced_index": None,
            "indeterminate": None,
            "j_value": None,
        }
        rows.append(row)
        if lam_bar is None:
            print(f"point {i}: iota={iota}  no pinned equilibrium scale")
            continue
        seedsum = BubbleSum(
            n=3,
            bubbles=(Bubble(center=tuple(center), lam=lam_bar),),
            alphas=(1.0,),
            tau=tau,
        )
        final, rep = flow_to_critical(seedsum, K, scheme)
        est = rep.morse_index()
        row.update(
            status=rep.status,
            distance=geodesic_distance(final.bubbles[0].center, center),
            final_scale=final.bubbles[0].lam,
            reduced_index=est.index,
            indeterminate=est.indeterminate,
            j_value=rep.j_value,
        )
        side_files[f"trajectory_{i}.csv"] = trajectory_csv(rep, 3)
        print(
            f"point {i}: iota={iota}  status={rep.status}  "
            f"dist={row['distance']:.2e}  seed_lam={lam_bar:.2f}  "
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
    _write(cfg, payload, side_files)
    if any(r["status"] != "converged" for r in rows):
        raise CLIFailure(
            EXIT_NONCONVERGENCE,
            "nonconvergence",
            "at least one flow did not converge; see report",
        )
    return EXIT_OK


def run_quadrature(cfg: RunConfig) -> int:
    scheme = QuadratureScheme()
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
    _write(cfg, payload)
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
    try:
        return run(parse_args(argv if argv is not None else sys.argv[1:]))
    except CLIFailure as fail:
        json.dump(fail.payload(), sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return fail.code


if __name__ == "__main__":
    sys.exit(main())
