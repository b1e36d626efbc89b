"""Tests of the benchmark itself (not part of the package's test suite).

    python3 bench/selftest.py

They check that a corrupted output is counted as a failed op, that times
are scaled by the host's slowdown and the clock's own samples are taken out
of them, that every metric the benchmark emits is declared in BENCHMARK.json, that workload
inputs repeat for a seed, and that the benchmark refuses to run without the
package source.  Under a minute on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MC = run.import_package()
REF = json.loads((run.HERE / "reference.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TMP = run.OUT / "selftest"


def ops_for(workload: str, seed: int = 1):
    return workloads.build_ops(MC, workload, workloads.make_inputs(workload, seed, REF), REF, TMP / workload)


def op_named(ops, label):
    return next(op for op in ops if op.label == label)


def edit_report(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class CorruptedOutputs(unittest.TestCase):
    def failed_frac(self, op) -> float:
        result = run.run_pass([op])
        return result["failed"] / result["ops"]

    def test_flipped_mu_in_cli_report(self):
        op = op_named(ops_for("exact-sweep"), "indices all-odd-m4")
        self.assertEqual(self.failed_frac(op), 0.0)

        def corrupted():
            rc = op.run()
            edit_report(TMP / "exact-sweep" / "indices-all-odd-m4" / "report.json",
                        lambda r: r["table"]["mu"].__setitem__(2, -r["table"]["mu"][2]))
            return rc

        self.assertEqual(self.failed_frac(workloads.Op(op.label, corrupted, op.check)), 1.0)

    def test_flipped_mu_in_library_table(self):
        op = ops_for("exact-deep")[0]
        self.assertEqual(self.failed_frac(op), 0.0)

        def corrupted():
            table, ep, closed, bounds = op.run()
            mu = list(table.mu)
            mu[5] += 1
            return dataclasses.replace(table, mu=tuple(mu)), ep, closed, bounds

        self.assertEqual(self.failed_frac(workloads.Op(op.label, corrupted, op.check)), 1.0)

    def test_flipped_mu_on_the_direct_route(self):
        op = op_named(ops_for("exact-sweep"), "pattern 01101")
        self.assertEqual(self.failed_frac(op), 0.0)

        def corrupted():
            direct, *rest = op.run()
            mu = list(direct.mu)
            mu[3] = -mu[3] + 1
            return (dataclasses.replace(direct, mu=tuple(mu)), *rest)

        self.assertEqual(self.failed_frac(workloads.Op(op.label, corrupted, op.check)), 1.0)

    def test_flow_status(self):
        op = op_named(ops_for("pin-flow"), "flow three-max-one-saddle")
        result = op.run()
        self.assertTrue(op.check(result))
        edit_report(TMP / "pin-flow" / "flow-three-max-one-saddle" / "report.json",
                    lambda r: r["flows"][1].__setitem__("status", "non-convergence"))
        self.assertEqual(self.failed_frac(workloads.Op(op.label, lambda: result, op.check)), 1.0)


class Inputs(unittest.TestCase):
    def test_seeded_inputs_repeat_and_differ(self):
        for workload in ("exact-deep", "energy-scan"):
            a = workloads.make_inputs(workload, 11, REF)
            self.assertEqual(a, workloads.make_inputs(workload, 11, REF))
            self.assertNotEqual(a, workloads.make_inputs(workload, 12, REF))

    def test_preset_inputs_are_fixed(self):
        for workload in ("exact-sweep", "pin-flow"):
            self.assertEqual(workloads.make_inputs(workload, 11, REF), workloads.make_inputs(workload, 12, REF))


class HostSpeed(unittest.TestCase):
    def test_times_are_divided_by_the_slowdown(self):
        clock = hostspeed.HostClock("python")
        nominal = clock.nominal
        # the host runs at half speed in wall time, at 1.5x slowdown in CPU time
        for t in (0.0, 1.0, 2.0, 3.0):
            clock.times.append(t)
            clock.wall.append(2.0 * nominal)
            clock.cpu.append(1.5 * nominal)
        p = {"spans": [(0.9, 1.1), (1.9, 2.1)], "op_wall": [0.2, 0.4], "op_cpu": [0.3, 0.3], "lat": [0.1, None]}
        scaled = run.at_host_speed(p, clock)
        self.assertAlmostEqual(scaled["wall_s"], 0.3)
        self.assertAlmostEqual(scaled["cpu_s"], 0.4)
        self.assertAlmostEqual(scaled["lat"][0], 0.05)
        self.assertIsNone(scaled["lat"][1])
        self.assertAlmostEqual(scaled["slowdown"], 2.0)

    def test_timer_samples_are_taken_out_of_the_op(self):
        def naps():  # short sleeps, so a sample delays the op by its own length
            for _ in range(300):
                time.sleep(0.002)

        op = workloads.Op("naps", naps, lambda out: True)
        alone = run.run_pass([op])["op_wall"][0]
        clock = hostspeed.HostClock("python")
        clock.kernel = lambda: time.sleep(0.05)
        passes = run.run_passes([op], 0.0, 1, [], clock)
        self.assertGreaterEqual(len(clock.wall), 2 * run.BRACKET_SAMPLES + 2)
        self.assertGreater(clock.paused_wall, 0.1)
        self.assertAlmostEqual(passes[0]["lat"][0], alone, delta=0.05 + 0.1 * alone)
        self.assertAlmostEqual(passes[0]["op_wall"][0], alone, delta=0.05 + 0.1 * alone)


class MetricNames(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]], tracing.LAYER_METRICS)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_emitted_metrics_are_declared(self):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "energy-scan", "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            result = last_json_line(proc.stdout)
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in declared})


class Refusal(unittest.TestCase):
    def test_without_package_source(self):
        bare = TMP / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "exact-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, env=env, timeout=170,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
