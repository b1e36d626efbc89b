"""End-to-end command-line behavior: outputs, determinism, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from morsecount import cli
from morsecount.cli import main


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


def test_indices_report_is_deterministic(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run(capsys, "indices", "--parities", "0,1,1", "--N", "6",
                         "--out", str(d))
        assert code == 0
    first, second = [(d / "report.json").read_bytes() for d in dirs]
    assert first == second
    assert (dirs[0] / "indices.csv").read_bytes() == (dirs[1] / "indices.csv").read_bytes()
    # volatile fields live in the side file, never in the report itself
    assert b"written_at" not in first
    assert "written_at" in json.loads((dirs[0] / "report_meta.json").read_text())


def test_indices_report_embeds_resolved_config(tmp_path, capsys):
    code, _, _ = run(capsys, "indices", "--parities", "0,0,0", "--N", "5",
                     "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == "1"
    assert report["config"]["parities"] == [0, 0, 0]
    assert report["config"]["N"] == 5
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
    assert (tmp_path / "trajectory_0.csv").exists()
    assert (tmp_path / "targets.csv").exists()


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
    Hessian.  The one repeat allowed is the Morse index's kernel call on the
    sum each flow ended at."""
    from morsecount import bubbles

    evaluated, kernel_calls, at_index, indexing = Counter(), [], [], []
    real_j, real_kernel = bubbles.functional_J_detailed, bubbles._single_bubble_derivatives
    real_index = cli.reduced_morse_index

    def counting_j(u, K, scheme=None):
        evaluated[u] += 1
        return real_j(u, K, scheme)

    def counting_kernel(chart, K, scheme, x):
        u = chart.unpack(x)
        if indexing:
            at_index.append(u)
        else:
            evaluated[u] += 1
            kernel_calls.append(u)
        return real_kernel(chart, K, scheme, x)

    def noting_index(u, K, scheme=None, **kwargs):
        indexing.append(u)
        try:
            return real_index(u, K, scheme, **kwargs)
        finally:
            indexing.pop()

    monkeypatch.setattr(bubbles, "functional_J_detailed", counting_j)
    monkeypatch.setattr(bubbles, "_single_bubble_derivatives", counting_kernel)
    monkeypatch.setattr(cli, "reduced_morse_index", noting_index, raising=False)
    code, _, _ = run(capsys, "flow", "--preset", "three-bump-s3")
    assert code == 0
    assert kernel_calls
    assert {u: k for u, k in evaluated.items() if k > 1} == {}
    assert len(at_index) == 4
    assert all(evaluated[u] == 1 for u in at_index)


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


# ---- quadrature ----


def test_quadrature_diagnostics(tmp_path, capsys):
    filters = list(warnings.filters)
    code, out, _ = run(capsys, "quadrature", "--out", str(tmp_path))
    assert code == 0
    assert warnings.filters == filters  # main() silences noise warnings only inside
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


def test_oversized_direct_route_inputs_name_the_limit(capsys, tmp_path):
    code, _, _ = run(capsys, "indices", "--parities", ",".join(["0"] * 20), "--N", "2")
    assert code == 0  # the limit itself is allowed
    _, _, err = run(capsys, "indices", "--parities", ",".join(["0"] * 21))
    assert "limit of 20 points" in stderr_error(err)["detail"]
    _, _, err = run(capsys, "verify", "--exhaustive", "--max-m", "13")
    assert "limit of 12" in stderr_error(err)["detail"]
    # the level cap, from the flag or from a config file
    for value in (64, 65):
        (tmp_path / f"{value}.json").write_text(json.dumps({"N": value, "max_N": value}))
    for base, flag in ((("indices", "--parities", "0,1,1"), "--N"),
                       (("verify", "--exhaustive", "--max-m", "3"), "--max-N")):
        for value in (64, 65):
            for extra in ((flag, str(value)), ("--config", str(tmp_path / f"{value}.json"))):
                code, _, err = run(capsys, *base, *extra)
                assert code == (0 if value == 64 else 2)
                if value == 65:
                    assert "65 exceeds the limit of 64" in stderr_error(err)["detail"]


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, morsecount.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=60)


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
    from morsecount import indexcount, kfunc

    assert kfunc.admissible_epsilon is indexcount.admissible_epsilon
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


def test_curvature_preset_rejected_where_parities_expected(capsys):
    code, _, err = run(capsys, "indices", "--preset", "three-bump-s3")
    assert code == 2
    assert "curvature candidate" in stderr_error(err)["detail"]
