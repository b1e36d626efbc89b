"""morsecount benchmark: one workload, one process, a closed loop with one client.

    python3 bench/run.py --workload exact-deep --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.  A run
repeats the workload's fixed list of ops (a pass) with no think time until
the next pass would overrun ``--seconds`` (at least two passes with
``--trace 0``).  Every op's output is checked.  With ``--trace 0`` the
end-to-end metrics are reported; with ``--trace 1`` the run makes untraced
passes for half the time, then one traced pass, and reports the per-layer
metrics of that pass.  With ``--trace 0`` every reported time is scaled to
quiet-host speed with the workload's ``hostspeed`` kernel, sampled while the
run goes on; the raw times are printed and kept too.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
environment, per-pass figures and (traced) spans are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# (metric, unit) reported with --trace 0
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
SETUP_RUNS = 5
IMPORT_RUNS = 3
CHILD_TIMEOUT = 120
BRACKET_SAMPLES = 5  # kernel samples just before and just after the passes

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import morsecount.cli
from morsecount.presets import load_preset
for name in sys.argv[1:]:
    load_preset(name)
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr.strip()[-2000:]}")
    return proc


def setup_seconds(presets: list[str]) -> list[float]:
    """Import morsecount.cli and load the presets in fresh interpreters.
    Raw times: start-up tracks the host's slow spells far less than running
    code does, and no kernel predicted it better than none."""
    return [float(run_child(["-c", SETUP_CODE, *presets]).stdout.split()[-1]) for _ in range(SETUP_RUNS)]


def import_seconds() -> dict[str, float]:
    """Median incremental import time per module over fresh interpreters."""
    runs = [tracing.import_times(run_child(["-X", "importtime", "-c", "import morsecount.cli"]).stderr)
            for _ in range(IMPORT_RUNS)]
    return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in tracing.MODULES}


# -- environment --------------------------------------------------------------


def read_cpu_ticks() -> dict | None:
    """Aggregate steal and total ticks from /proc/stat (read only)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:9]]
    return {"steal": ticks[7], "total": sum(ticks)}


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "MORSECOUNT_THREADS": os.environ.get("MORSECOUNT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# -- the closed loop ----------------------------------------------------------


def run_pass(ops, tracer=None, failures=None, clock=None) -> dict:
    """Run every op once, in order; time each call and check each output.

    Per op it keeps the span [start, end] and, with the time the host clock
    spent sampling taken out, the call's latency (``lat``; None if the call
    raised), the wall time of call and check (``op_wall``) and the process
    CPU time of both (``op_cpu``)."""
    lat, spans, op_wall, op_cpu, failed = [], [], [], [], 0
    w0, c0 = time.perf_counter(), time.process_time()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if clock is not None:
            clock.tick()
        pw0, pc0 = (clock.paused_wall, clock.paused_cpu) if clock else (0.0, 0.0)
        elapsed = None
        a, ac = time.perf_counter(), time.process_time()
        try:
            t0 = time.perf_counter()
            out = op.run()
            elapsed = time.perf_counter() - t0 - ((clock.paused_wall - pw0) if clock else 0.0)
            ok = op.check(out)
        except Exception:  # an op that raises is a failed op, not a dead run
            traceback.print_exc(file=sys.stderr)
            ok = False
        b, bc = time.perf_counter(), time.process_time()
        pw1, pc1 = (clock.paused_wall, clock.paused_cpu) if clock else (0.0, 0.0)
        lat.append(elapsed)
        spans.append((a, b))
        op_wall.append(b - a - (pw1 - pw0))
        op_cpu.append(bc - ac - (pc1 - pc0))
        if not ok:
            failed += 1
            if failures is not None:
                failures.append(op.label)
    return {
        "wall_s": time.perf_counter() - w0,
        "cpu_s": time.process_time() - c0,
        "lat": lat,
        "spans": spans,
        "op_wall": op_wall,
        "op_cpu": op_cpu,
        "ops": len(ops),
        "failed": failed,
    }


def run_passes(ops, budget: float, min_passes: int, failures: list, clock=None, timer: bool = True) -> list[dict]:
    """Passes until the next one would end past the budget.  With a clock,
    a few samples bracket the passes and the clock samples between ops;
    with ``timer`` it also samples inside ops."""
    if clock is not None:
        clock.sample(BRACKET_SAMPLES)
        if timer:
            clock.start()
    start = time.perf_counter()
    passes = []
    try:
        while True:
            passes.append(run_pass(ops, failures=failures, clock=clock))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= min_passes and elapsed + typical > budget:
                return passes
    finally:
        if clock is not None:
            if timer:
                clock.stop()
            clock.sample(BRACKET_SAMPLES)


def at_host_speed(p: dict, clock) -> dict:
    """A pass's times at quiet-host speed: every op's figures divided by the
    host's slowdown around that op."""
    wall_f = [clock.wall_factor(a, b) for a, b in p["spans"]]
    cpu_f = [clock.cpu_factor(a, b) for a, b in p["spans"]]
    return {
        "wall_s": sum(w / f for w, f in zip(p["op_wall"], wall_f)),
        "cpu_s": sum(c / f for c, f in zip(p["op_cpu"], cpu_f)),
        "lat": [None if t is None else t / f for t, f in zip(p["lat"], wall_f)],
        "slowdown": statistics.fmean(wall_f),
    }


def import_package():
    if not (SRC / "morsecount" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'morsecount'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import morsecount

    if Path(morsecount.__file__).resolve().parent != (SRC / "morsecount").resolve():
        raise SystemExit(f"error: imported morsecount from {morsecount.__file__}, not from {SRC}")
    import morsecount.cli  # noqa: F401  (binds the cli submodule on the package)

    return morsecount


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    mc = import_package()
    ref = json.loads((HERE / "reference.json").read_text())
    ticks0 = read_cpu_ticks()
    tmp = OUT / f"tmp-{args.workload}"
    shutil.rmtree(tmp, ignore_errors=True)

    inputs = workloads.make_inputs(args.workload, args.seed, ref)
    failures: list[str] = []
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    if args.trace == 0:
        setups = setup_seconds(workloads.presets_for(args.workload, ref))
        ops = workloads.build_ops(mc, args.workload, inputs, ref, tmp)
        clock = hostspeed.HostClock(workloads.KERNEL[args.workload])
        passes = run_passes(ops, args.seconds, 2, failures, clock)
        scaled = [at_host_speed(p, clock) for p in passes]
        # an op's latency is its median over the passes, which keeps one
        # stalled call from moving a percentile; percentiles run over ops
        lat = [statistics.median(t) for t in zip(*(p["lat"] for p in scaled)) if None not in t]
        if not lat:
            raise SystemExit(f"error: every op raised; failed ops: {sorted(set(failures))}")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in scaled),
            "cpu_s": statistics.median(p["cpu_s"] for p in scaled),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3 if len(lat) > 1 else lat[0] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        record["setup_runs_s"] = setups
        record["op_samples"] = len(lat)
        record["host"] = {
            "kernel": clock.kind,
            "samples": len(clock.wall),
            "slowdown": clock.mean_wall_factor(),
            "timer_samples_skipped": clock.skipped,
            "sampling_share": 1.0 - sum(sum(p["op_wall"]) for p in passes) / sum(p["wall_s"] for p in passes),
            "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
            "raw_cpu_s": statistics.median(p["cpu_s"] for p in passes),
        }
        for p, q in zip(passes, scaled):
            p.update(scaled_wall_s=q["wall_s"], scaled_cpu_s=q["cpu_s"], slowdown=q["slowdown"])
    else:
        imports = import_seconds()
        ops = workloads.build_ops(mc, args.workload, inputs, ref, tmp)
        # samples between ops only, so no span holds a sample
        clock = hostspeed.HostClock(workloads.KERNEL[args.workload])
        passes = run_passes(ops, args.seconds / 2, 1, failures, clock, timer=False)
        tracer = tracing.Tracer()
        tracer.install(mc)
        try:
            traced = run_pass(ops, tracer, failures, clock)
        finally:
            tracer.uninstall()
        clock.sample(BRACKET_SAMPLES)
        labels = [op.label for op in ops]
        values = tracer.metrics(labels)
        values.update({f"{m}.import_s": s for m, s in imports.items()})
        untraced = statistics.median(at_host_speed(p, clock)["wall_s"] for p in passes)
        values["trace.overhead_frac"] = at_host_speed(traced, clock)["wall_s"] / untraced - 1.0
        values = {name: values[name] for name, _, _ in tracing.LAYER_METRICS}
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl", labels)
        passes = passes + [traced]

    ticks1 = read_cpu_ticks()
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record.update(
        env=environment(),
        passes=[{k: v for k, v in p.items() if k not in ("lat", "spans", "op_wall", "op_cpu")} for p in passes],
        failed_ops=failures[:50],
        failed_frac=failed / attempted,
        metrics=values,
    )
    if ticks0 and ticks1:
        dt = ticks1["total"] - ticks0["total"]
        record["steal"] = {"ticks": ticks1["steal"] - ticks0["steal"], "frac": (ticks1["steal"] - ticks0["steal"]) / dt if dt else 0.0}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(tmp, ignore_errors=True)

    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# steal {json.dumps(record.get('steal'))}")
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} attempted={attempted} failed={failed} failed_frac={failed / attempted}")
    if args.trace == 0:
        print(f"# op samples (op_p50_ms, op_p90_ms): {record['op_samples']}")
        print(f"# host {json.dumps(record['host'], sort_keys=True)}")
    for name, value in values.items():
        print(f"# {name:42s} {value!r:>24} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
