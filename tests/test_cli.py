"""End-to-end command-line behavior: outputs, determinism, exit codes."""
from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from morsecount import cli
from morsecount.bubbles import QuadratureNoiseWarning
from morsecount.cli import main
from morsecount.sphere import geodesic_distance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_error(err: str) -> dict:
    payload = json.loads(err.strip().splitlines()[-1])
    return payload["error"]


# ---- indices ----


def test_indices_golden_all_even_pair(capsys):
    code, out, _ = run(capsys, "indices", "--parities", "0,0", "--N", "4")
    assert code == 0
    assert "mu = [-1, -1, -1, -1]" in out


def test_indices_alternating_preset(capsys):
    code, out, _ = run(capsys, "indices", "--preset", "index-one-ell-2", "--N", "8")
    assert code == 0
    # ell = 2: odd levels vanish, level 2p counts -C(p+1, p)
    assert "mu = [0, -2, 0, -3, 0, -4, 0, -5]" in out


#: sha256 of exact-side report files.  They hold only integers and strings,
#: so their bytes do not depend on the numpy or libm build; flow and
#: quadrature floats do, so those reports keep only the rerun check.
PINNED_REPORTS = [
    (("indices", "--parities", "0,1,1", "--N", "6"), {
        "report.json": "f27c0bed0850251f4f55606491c2c07d66cf7a2c250e27d0d97b787692bb344b",
        "indices.csv": "c86e2dfd5c57a55cdbaea6218ddfbc69ad422b2e5b1744c1357a0533cd3c0ada",
    }),
    (("indices", "--parities", "0,0,1,1,0", "--N", "10"), {
        "report.json": "1223be67d8f372c604c30def100f243965b836689e81f7672c42aea5e49e8368",
        "indices.csv": "f1c74ca4e84811a9bff64362989e39356b90fd9c139e61e2e658e997953f887b",
    }),
    (("bounds", "--preset", "index-one-ell-2"), {
        "report.json": "b9bc4129b7ec9a8087285df9e3c48261c59ac1cd099d486c07c4aecf7fe8ded2",
        "bounds.csv": "4c9a5dd74184cb8240c41f952b7c0ce206b6f62a37cefcaf862e250eefb0f34b",
    }),
    (("bounds", "--parities", "0,0,0,1", "--N", "16"), {  # Case3; p = 7, 14 print 1, 2
        "report.json": "c11f7fcb03b8fac663a6e6242cfa169f5e9128a16a39af9351359eb35db15589",
        "bounds.csv": "93c840c72b28b5e8e96d3a1cb8f442a25b20ffb4c5cf9c5506a8ea695a5dc39d",
    }),
    (("verify", "--exhaustive", "--max-m", "4"), {
        "report.json": "a99d10abef943f529f034819f2500b2d71ea955e948d204b2d67768ef0f005df",
    }),
]


def test_indices_report_is_deterministic(tmp_path, capsys):
    for k, (argv, pinned) in enumerate(PINNED_REPORTS):
        dirs = [tmp_path / f"{k}a", tmp_path / f"{k}b"]
        for d in dirs:
            code, _, _ = run(capsys, *argv, "--out", str(d))
            assert code == 0
        for name, digest in pinned.items():
            first, second = [(d / name).read_bytes() for d in dirs]
            assert first == second
            assert hashlib.sha256(first).hexdigest() == digest, (argv, name)
        # volatile fields live in the side file, never in the report itself
        assert b"written_at" not in (dirs[0] / "report.json").read_bytes()
        assert "written_at" in json.loads((dirs[0] / "report_meta.json").read_text())


def test_indices_report_embeds_resolved_config(tmp_path, capsys):
    code, _, _ = run(capsys, "indices", "--parities", "0,0,0", "--N", "5",
                     "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == "2"
    assert report["config"] == {"mode": "indices", "parities": [0, 0, 0], "N": 5, "preset": None}
    assert report["table"]["mu"] == [-2, -3, -4, -5, -6]


def test_indices_checks_the_closed_form_it_reports(tmp_path, capsys, monkeypatch):
    real = cli.mu_closed_form

    def off_by_one(pcfg):
        table = real(pcfg)
        if table is None:
            return None
        return replace(table, mu=(table.mu[0] + 1,) + table.mu[1:])

    monkeypatch.setattr(cli, "mu_closed_form", off_by_one)
    code, _, err = run(capsys, "indices", "--parities", "0,0,0", "--N", "5",
                       "--out", str(tmp_path))
    assert code == cli.EXIT_CONSISTENCY
    assert stderr_error(err)["kind"] == "consistency"
    assert "disagree" in stderr_error(err)["detail"]
    assert not (tmp_path / "report.json").exists()
    # a pattern no closed form covers is not checked against one
    code, _, _ = run(capsys, "indices", "--parities", "0,1,0,0", "--N", "5")
    assert code == 0


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"parities": [0, 1], "N": 3}))
    code, out, _ = run(capsys, "indices", "--config", str(cfg))
    assert code == 0
    assert "mu = [1, -1, 1]" in out
    code, out, _ = run(capsys, "indices", "--config", str(cfg), "--N", "5")
    assert code == 0
    assert "mu = [1, -1, 1, -1, 1]" in out


# ---- bounds ----


def test_bounds_alternating_preset_even_levels(tmp_path, capsys):
    code, out, _ = run(capsys, "bounds", "--preset", "index-one-ell-2", "--N", "8",
                       "--out", str(tmp_path))
    assert code == 0
    assert "case IndexOne" in out
    assert "total solution bound: 14" in out
    report = json.loads((tmp_path / "report.json").read_text())
    rows = report["bounds"]["rows"]
    by_level = {r["p"]: r["lower_bound"] for r in rows}
    assert by_level == {1: 0, 2: 2, 3: 0, 4: 3, 5: 0, 6: 4, 7: 0, 8: 5}
    csv_lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert csv_lines[0] == "p,energy_multiple_of_Sn,lower_bound"
    assert csv_lines[2] == "2,2/7,2"


def test_bounds_eta_threshold_recorded(tmp_path, capsys):
    code, _, _ = run(capsys, "bounds", "--parities", "0,0", "--N", "4",
                     "--eta", "0.05", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["admissible_epsilon_threshold"] > 0


# ---- verify ----


def test_verify_exhaustive_sweep(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--exhaustive", "--max-m", "4",
                       "--max-N", "6", "--out", str(tmp_path))
    assert code == 0
    assert "checked 14 parity patterns" in out  # 2 + 4 + 8
    assert "14 ok, 0 failed" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checked"] == 14
    assert report["failures"] == []
    pats = [tuple(r["parities"]) for r in report["results"]]
    assert pats == sorted(pats, key=lambda p: (len(p), p))


def test_verify_flags_bounds_whose_mu_disagrees_with_direct(tmp_path, capsys, monkeypatch):
    real = cli.solution_bounds

    def off_by_one(pcfg):
        report = real(pcfg)
        if pcfg.parities != (0, 1, 0):
            return report
        return replace(report, mu=(report.mu[0] + 1,) + report.mu[1:])

    monkeypatch.setattr(cli, "solution_bounds", off_by_one)
    code, out, _ = run(capsys, "verify", "--exhaustive", "--max-m", "3",
                       "--max-N", "4", "--out", str(tmp_path))
    assert code == cli.EXIT_CONSISTENCY
    report = json.loads((tmp_path / "report.json").read_text())
    assert [(r["parities"], r["bounds_consistent"]) for r in report["failures"]] == [
        ([0, 1, 0], False)
    ]


@pytest.mark.parametrize("max_m", [1, 0, -3])
def test_verify_refuses_a_sweep_that_checks_no_pattern(tmp_path, capsys, max_m):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"exhaustive": True, "max_m": max_m}))
    for extra in (("--exhaustive", "--max-m", str(max_m)), ("--config", str(path))):
        code, out, err = run(capsys, "verify", *extra, "--out", str(tmp_path / "out"))
        assert code == 2
        error = stderr_error(err)
        assert error["kind"] == "usage"
        assert error["detail"].startswith(f"--max-m {max_m} is below 2")
        assert out == "" and not (tmp_path / "out").exists()


def test_routes_that_differ_off_the_mu_row_disagree(tmp_path, capsys, monkeypatch):
    """A direct table for (0, 1, 0) whose mu_{>=m;m} at level 1 is off by one,
    its ``mu`` row still right, fails both subcommands' cross-check."""
    real = cli.mu_direct

    def off_by_one(pcfg):
        table = real(pcfg)
        if pcfg.parities != (0, 1, 0):
            return table
        last = table.mu_geq_at[-1]
        return replace(table, mu_geq_at=table.mu_geq_at[:-1] + ((last[0] + 1,) + last[1:],))

    monkeypatch.setattr(cli, "mu_direct", off_by_one)
    code, _, err = run(capsys, "indices", "--parities", "0,1,0", "--N", "4",
                       "--out", str(tmp_path / "indices"))
    assert code == cli.EXIT_CONSISTENCY
    assert stderr_error(err)["detail"] == "counting routes disagree for (0, 1, 0)"
    assert not (tmp_path / "indices").exists()
    code, _, _ = run(capsys, "verify", "--exhaustive", "--max-m", "3",
                     "--max-N", "4", "--out", str(tmp_path / "verify"))
    assert code == cli.EXIT_CONSISTENCY
    report = json.loads((tmp_path / "verify" / "report.json").read_text())
    assert [(r["parities"], r["routes_agree"]) for r in report["failures"]] == [
        ([0, 1, 0], False)
    ]


# ---- flow ----


def test_flow_pins_every_admissible_point(tmp_path, capsys):
    code, out, _ = run(capsys, "flow", "--preset", "three-bump-s3",
                       "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    flows = report["flows"]
    assert len(flows) == 4
    assert all(f["status"] == "converged" for f in flows)
    assert all(f["distance"] < 0.05 for f in flows)
    assert sorted(f["reduced_index"] for f in flows) == [0, 0, 0, 1]
    assert all(f["indeterminate"] == 0 for f in flows)
    assert all(f["reduced_index"] == f["target_iota"] for f in flows)
    assert report["inventory"] == {
        "points": 6, "euler_sum": 0, "euler_expected": 0, "euler_match": True,
    }
    assert "warning" not in out
    assert (tmp_path / "targets.csv").exists()
    # each distance is the geodesic one from the last trajectory row's center
    # to the target, bit for bit: repr floats round-trip exactly
    for i, f in enumerate(flows):
        with open(tmp_path / f"trajectory_{i}.csv", newline="") as fh:
            last = list(csv.reader(fh))[-1]
        end = np.array([float(v) for v in last[2:6]])
        assert f["distance"] == geodesic_distance(end, np.array(f["target"]))


def test_flow_pins_the_three_maxima_of_three_max_one_saddle(tmp_path, capsys):
    # a flow that ends a hair off a coordinate axis needs an orthonormal
    # tangent frame there for its Morse index
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # its 308 degenerate points
        code, _, _ = run(capsys, "flow", "--preset", "three-max-one-saddle",
                         "--out", str(tmp_path))
    assert code == 0
    flows = json.loads((tmp_path / "report.json").read_text())["flows"]
    assert [f["status"] for f in flows] == ["converged"] * 3
    assert [(f["reduced_index"], f["indeterminate"]) for f in flows] == [(0, 0)] * 3


def test_flow_evaluates_no_bubble_sum_twice(capsys, monkeypatch):
    """No J is taken twice on one bubble sum, whether functional_J_detailed
    takes it or the exact-derivative kernel takes it with the gradient and
    Hessian.  Each flow's Morse index reads the Hessian its last point
    already holds, so the flows' 12 kernel calls are all there are: none at
    the index, and no finite difference."""
    from morsecount import bubbles

    evaluated, kernel_calls, finite_differences = Counter(), [], []
    for name in ("_fd_gradient", "_fd_hessian"):
        monkeypatch.setattr(
            bubbles, name, lambda *args, name=name, **kwargs: finite_differences.append(name)
        )
    real_j, real_kernel = bubbles.functional_J_detailed, bubbles._single_bubble_derivatives

    def counting_j(u, K, scheme=None):
        evaluated[u] += 1
        return real_j(u, K, scheme)

    def counting_kernel(chart, K, scheme, x):
        u = chart.unpack(x)
        evaluated[u] += 1
        kernel_calls.append(u)
        return real_kernel(chart, K, scheme, x)

    monkeypatch.setattr(bubbles, "functional_J_detailed", counting_j)
    monkeypatch.setattr(bubbles, "_single_bubble_derivatives", counting_kernel)
    code, _, _ = run(capsys, "flow", "--preset", "three-bump-s3")
    assert code == 0
    assert finite_differences == []
    assert len(kernel_calls) == 12
    assert {u: k for u, k in evaluated.items() if k > 1} == {}


def test_flow_flags_an_inventory_that_fails_the_euler_check(tmp_path, capsys, monkeypatch):
    full = cli.find_critical_points
    # drop the lowest point, a minimum: the flow targets stay, the inventory breaks
    monkeypatch.setattr(cli, "find_critical_points", lambda K: full(K)[:-1])
    code, out, _ = run(capsys, "flow", "--preset", "three-bump-s3",
                       "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["inventory"]["points"] == 5
    assert report["inventory"]["euler_match"] is False
    assert "warning: critical inventory is incomplete" in out
    assert len(report["flows"]) == 4


def test_flow_runaway_defect_reports_nonconvergence(capsys):
    # tau this large penalizes all concentration: no scale line dips
    code, _, err = run(capsys, "flow", "--tau", "1.5")
    assert code == 4
    assert stderr_error(err)["kind"] == "nonconvergence"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["flow", "--preset", "three-bump-s3"], 0),
        (["flow", "--preset", "three-max-one-saddle"], 0),
        (["flow", "--tau", "1.5"], 4),
        (["quadrature"], 0),
    ],
)
def test_cli_runs_emit_no_quadrature_noise_warning(tmp_path, capsys, argv, code):
    # main() filters no warning, so a noise warning would reach the user
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # degenerate points
        warnings.simplefilter("error", QuadratureNoiseWarning)  # checked first
        assert run(capsys, *argv, "--out", str(tmp_path))[0] == code


# ---- quadrature ----


def test_quadrature_diagnostics(tmp_path, capsys):
    filters = list(warnings.filters)
    code, out, _ = run(capsys, "quadrature", "--out", str(tmp_path))
    assert code == 0
    assert warnings.filters == filters  # main() leaves the warning filters alone
    report = json.loads((tmp_path / "report.json").read_text())
    assert max(c["rel_dev"] for c in report["single_bubble_levels"]) < 1e-10
    pair = {row["lam"]: row["rel_dev"] for row in report["antipodal_pair_levels"]}
    assert pair[100.0] < pair[50.0] < pair[30.0] < pair[10.0]
    assert report["scheme"]["nodes"] == 64


# ---- exit codes and error objects ----


@pytest.mark.parametrize(
    "argv,code,kind",
    [
        (["indices", "--parities", "0,x"], 2, "usage"),
        (["indices"], 2, "usage"),
        (["bounds", "--preset", "nonsense"], 2, "usage"),
        (["verify"], 2, "usage"),
        (["indices", "--parities", "1,0"], 3, "invariant"),
        (["bounds", "--parities", "0,0", "--N", "4", "--eta", "0.9"], 3, "invariant"),
        (["flow", "--preset", "two-bump-antipodal"], 3, "invariant"),
        (["flow", "--tau", "-0.05"], 3, "invariant"),
        (["indices", "--parities", ",".join(["0"] * (cli.MAX_INDICES_M + 1))], 2, "usage"),
        (["verify", "--exhaustive", "--max-m", str(cli.MAX_VERIFY_M + 1)], 2, "usage"),
    ],
)
def test_failures_exit_with_structured_errors(capsys, argv, code, kind):
    got, _, err = run(capsys, *argv)
    assert got == code
    assert stderr_error(err)["kind"] == kind


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--exhaustive", "--max-m", "3", "--N", "20"],
        ["verify", "--exhaustive", "--max-m", "3", "--preset", "all-odd-m5"],
        ["indices", "--parities", "0,1", "--tau", "0.3"],
        ["bounds", "--parities", "0,1", "--seed", "1"],
        ["flow", "--eta", "0.1"],
        ["flow", "--seed", "1"],
        ["quadrature", "--preset", "three-bump-s3"],
        ["quadrature", "--seed", "1"],
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert stderr_error(err)["kind"] == "usage"
    assert "unrecognized arguments" in stderr_error(err)["detail"]
    assert out == ""


@pytest.mark.parametrize(
    "mode, config",
    [
        ("verify", {"exhaustive": True, "max_m": 3, "N": 20}),
        ("verify", {"exhaustive": True, "max_m": 3, "preset": "all-odd-m5"}),
        ("verify", {"exhaustive": True, "max_m": 3, "tau": 0.3}),
        ("flow", {"eta": 0.1}),
        ("flow", {"seed": 1}),
        ("flow", {"samples": 20_000}),
        ("flow", {"nodes": 128}),
        ("quadrature", {"preset": "three-bump-s3"}),
        ("quadrature", {"nodes": 128}),
    ],
)
def test_a_config_key_the_subcommand_does_not_read_is_refused(tmp_path, capsys, mode, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, mode, "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    error = stderr_error(err)
    assert error["kind"] == "usage"
    unread = list(config)[-1]
    assert error["detail"] == f"config key {unread!r} is not read by {mode}"
    assert out == "" and not (tmp_path / "out").exists()


def test_oversized_direct_route_inputs_name_the_limit(capsys, tmp_path):
    code, _, _ = run(capsys, "indices", "--parities", ",".join(["0"] * 20), "--N", "2")
    assert code == 0  # the limit itself is allowed
    _, _, err = run(capsys, "indices", "--parities", ",".join(["0"] * 21))
    assert "limit of 20 points" in stderr_error(err)["detail"]
    _, _, err = run(capsys, "verify", "--exhaustive", "--max-m", "13")
    assert "limit of 12" in stderr_error(err)["detail"]
    # the level cap, from the flag or from a config file
    for base, flag, key in ((("indices", "--parities", "0,1,1"), "--N", "N"),
                            (("verify", "--exhaustive", "--max-m", "3"), "--max-N", "max_N")):
        for value in (0, 64, 65):
            path = tmp_path / f"{base[0]}-{value}.json"
            path.write_text(json.dumps({key: value}))
            for extra in ((flag, str(value)), ("--config", str(path))):
                code, _, err = run(capsys, *base, *extra)
                assert code == (0 if value == 64 else 2)
                if value == 65:
                    assert "65 exceeds the limit of 64" in stderr_error(err)["detail"]
                if value == 0:
                    assert "0 is below 1" in stderr_error(err)["detail"]


def _subcommand_flags() -> dict[str, dict[str, str]]:
    """Each subcommand's flags other than --config, --out and help, mapped to
    their destinations, in declaration order."""
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "mode"]
    return {
        mode: {
            a.option_strings[0]: a.dest
            for a in p._actions
            if a.dest not in ("help", "config", "out")
        }
        for mode, p in sub.choices.items()
    }


def test_readme_flag_table_matches_the_parser(tmp_path):
    """The README's subcommand/flags table lists each subcommand's flags, and
    its --config file accepts exactly their destinations plus out."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 2:
            flags = [f.strip("`") for f in cells[1].split(", ")] if cells[1] != "none" else []
            table[cells[0].strip("`")] = flags
    parsed = _subcommand_flags()
    assert table == {mode: list(flags) for mode, flags in parsed.items()}
    values = {"N": 4, "max_m": 3, "max_N": 4, "eta": 0.01, "tau": 0.1, "exhaustive": True,
              "preset": "all-even-m3", "parities": "0,1", "out": str(tmp_path / "out"),
              "config": "other.json", "mode": "indices", "nodes": 64, "samples": 64, "seed": 1}
    assert {d for flags in parsed.values() for d in flags.values()} < set(values)
    path = tmp_path / "run.json"
    for mode, flags in parsed.items():
        accepted = set()
        for key, value in values.items():
            path.write_text(json.dumps({key: value}))
            try:
                cli.parse_args([mode, "--config", str(path)])
            except cli.CLIFailure as fail:
                assert fail.detail == f"config key {key!r} is not read by {mode}"
            else:
                accepted.add(key)
        assert accepted == set(flags.values()) | {"out"}, mode


# ---- cold start: which modules a fresh interpreter loads ----

_PROBE_HEAD = """
import contextlib, io, json, sys
def run(*argv):
    import morsecount.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert morsecount.cli.main(list(argv)) == 0
def loaded(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)
"""


def probe(body: str):
    """Run ``body`` in a fresh interpreter; returns what it prints as JSON."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _PROBE_HEAD + body], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "step",
    [
        "import morsecount",
        "import morsecount.cli",
        "from morsecount.presets import load_preset; load_preset('all-even-m3')",
        "run('indices', '--preset', 'index-one-ell-2')",
        "run('bounds', '--parities', '0,0,1', '--N', '3', '--eta', '0.01')",
        "run('verify', '--exhaustive', '--max-m', '4')",
    ],
)
def test_exact_side_loads_no_numpy_or_scipy(step):
    assert probe(step + "\nprint(json.dumps(loaded('numpy', 'scipy')))") == []


def test_cli_import_leaves_scipy_stats_unloaded():
    got = probe("import morsecount.cli\nprint(json.dumps(loaded('scipy')))")
    assert not [m for m in got if m.startswith("scipy.stats")]


@pytest.mark.parametrize(
    "step",
    [
        "run('flow', '--preset', 'three-bump-s3', '--out', {out!r})",
        "from morsecount.presets import load_preset\n"
        "from morsecount.kfunc import find_critical_points\n"
        "find_critical_points(load_preset('three-bump-s3'))",
        "run('quadrature', '--out', {out!r})",
    ],
    ids=["flow", "find_critical_points", "quadrature"],
)
def test_the_lab_loads_no_scipy(step, tmp_path):
    got = probe(step.format(out=str(tmp_path)) + "\nprint(json.dumps(loaded('numpy', 'scipy')))")
    assert "numpy" in got
    assert not [m for m in got if m.split(".")[0] == "scipy"]


def test_curvature_preset_and_eval_K_load_no_scipy():
    got = probe(
        "import numpy as np\n"
        "from morsecount.presets import load_preset\n"
        "from morsecount.kfunc import eval_K\n"
        "K = load_preset('three-bump-s3')\n"
        "eval_K(K, np.array([[0.0, 0.0, 0.0, 1.0]]))\n"
        "print(json.dumps(loaded('scipy')))"
    )
    assert got == []


def test_cold_cli_patch_of_find_critical_points_is_what_flow_calls():
    got = probe(
        "import morsecount.cli as cli\n"
        "cold = 'morsecount.kfunc' not in sys.modules\n"
        "real = getattr(cli, 'find_critical_points')\n"
        "seen = []\n"
        "def spy(K):\n"
        "    seen.append(K.n)\n"
        "    raise ValueError('stop after the search')\n"
        "cli.find_critical_points = spy\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(['flow', '--preset', 'three-bump-s3'])\n"
        "print(json.dumps([cold, real.__module__, seen, code]))"
    )
    assert got == [True, "morsecount.kfunc", [3], 3]


def test_every_export_resolves_on_a_cold_package():
    got = probe(
        "import morsecount\n"
        "missing = [n for n in morsecount.__all__ if not hasattr(morsecount, n)]\n"
        "ns = {}\n"
        "exec('from morsecount import *', ns)\n"
        "print(json.dumps([missing, sorted(set(morsecount.__all__) - set(ns))]))"
    )
    assert got == [[], []]


def test_admissible_epsilon_is_one_function_on_every_path():
    import morsecount
    from morsecount import indexcount

    assert morsecount.admissible_epsilon is indexcount.admissible_epsilon


def test_quadrature_nonconvergence_exits_4(capsys, monkeypatch):
    from morsecount.quadrature import QuadratureConvergenceError

    def fail(*args, **kwargs):
        raise QuadratureConvergenceError("error estimate above tolerance")

    monkeypatch.setattr(cli, "functional_J_detailed", fail)
    code, _, err = run(capsys, "quadrature")
    assert code == 4
    assert stderr_error(err) == {"kind": "nonconvergence", "detail": "error estimate above tolerance"}


def test_bad_config_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(capsys, "indices", "--config", str(bad))
    assert code == 2
    assert stderr_error(err)["kind"] == "usage"
    code, _, err = run(capsys, "indices", "--config", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize(
    "mode, config",
    [
        ("verify", {"exhaustive": True, "max_m": "x"}),
        ("verify", {"exhaustive": True, "max_m": None}),
        ("verify", {"exhaustive": True, "max_N": 12.0}),
        ("verify", {"exhaustive": "false"}),
        ("flow", {"tau": "0.1"}),
        ("bounds", {"parities": [0, 1], "N": True}),
        ("bounds", {"parities": [0, 1], "eta": None}),
        ("indices", {"parities": ["0", "1"]}),
        ("indices", {"preset": 5}),
        ("quadrature", {"nodes": 20.7}),
        ("quadrature", {"nodes": "x"}),
        ("flow", {"samples": 9.5}),
        ("flow", {"seed": True}),
        ("indices", {"parities": "0,1", "out": 5}),
    ],
)
def test_badly_typed_config_value_is_a_usage_error(tmp_path, capsys, mode, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, mode, "--config", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    error = stderr_error(err)
    assert error["kind"] == "usage"
    assert error["detail"].startswith("config key ")
    assert out == "" and not (tmp_path / "out").exists()


def test_well_typed_config_values_run(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"exhaustive": True, "max_m": 3, "max_N": 5}))
    code, out, _ = run(capsys, "verify", "--config", str(path))
    assert code == 0
    assert "checked 6 parity patterns (m <= 3, N = 5)" in out
    path.write_text(json.dumps({"exhaustive": False}))
    code, _, err = run(capsys, "verify", "--config", str(path))
    assert code == 2
    assert "--exhaustive" in stderr_error(err)["detail"]
    path.write_text(json.dumps({"parities": "0,1,1", "N": 4, "eta": 0}))
    code, _, err = run(capsys, "bounds", "--config", str(path))
    assert code == 3  # an integer is a number; its value is then checked
    assert "eta must satisfy" in stderr_error(err)["detail"]


def test_flow_verdicts_hold_at_twice_the_nodes(tmp_path, capsys, monkeypatch):
    """At nodes = 128 (value at 128 points per panel, error from 64) every
    flow ends as at the default 64 and 32, its final scale within 1e-9."""
    from morsecount.quadrature import QuadratureScheme

    rows = {}
    for name in ("default", "fine"):
        if name == "fine":
            monkeypatch.setattr(cli, "QuadratureScheme", lambda: QuadratureScheme(nodes=128),
                                raising=False)
        code, _, _ = run(capsys, "flow", "--preset", "three-bump-s3",
                         "--out", str(tmp_path / name))
        assert code == 0
        report = json.loads((tmp_path / name / "report.json").read_text())
        rows[name] = report["flows"]
    assert report["scheme"]["nodes"] == 128
    assert len(rows["fine"]) == len(rows["default"]) == 4
    for fine, default in zip(rows["fine"], rows["default"]):
        for key in ("status", "target_iota", "reduced_index", "indeterminate"):
            assert fine[key] == default[key], key
        assert fine["final_scale"] == pytest.approx(default["final_scale"], rel=1e-9)


def test_curvature_preset_rejected_where_parities_expected(capsys):
    code, _, err = run(capsys, "indices", "--preset", "three-bump-s3")
    assert code == 2
    assert "curvature candidate" in stderr_error(err)["detail"]
