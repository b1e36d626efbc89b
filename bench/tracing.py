"""Per-module call tracing installed from outside the package.

The tracer replaces every module attribute of ``morsecount`` that binds a
public function with a wrapper that records one span per call: name, start,
end, parent span, op id, thread and whether the call raised.  Modules import
each other's functions by name (``cli`` binds ``mu_direct``, ``bubbles`` binds
the quadrature routines, ``kfunc`` and ``bubbles`` bind ``tangent_basis``),
so the same wrapper is set on every binding, not only on the defining module.

Spans stay in memory and are written once, by ``write_spans``.  Parents come
from a per-thread stack; a span opened on a worker thread with an empty stack
(``verify``'s thread pool) takes the innermost open span of the thread that
runs the op as its parent.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
import types
import warnings
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "reports", "presets", "indexcount", "sphere", "kfunc", "quadrature", "bubbles")

# (metric, unit, better), in the order they are printed; the values come
# from one traced pass, so counts are exact and repeat for a given seed
LAYER_METRICS = [
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("reports.write_report.calls", "count", "lower"),
    ("reports.busy_s", "s", "lower"),
    ("reports.bytes", "bytes", "lower"),
    ("presets.load_preset.busy_s", "s", "lower"),
    *[(f"{m}.import_s", "s", "lower") for m in MODULES],
    ("indexcount.mu_direct.calls", "count", "lower"),
    ("indexcount.mu_direct.busy_s", "s", "lower"),
    ("indexcount.mu_recurrence.calls", "count", "lower"),
    ("indexcount.mu_recurrence.busy_s", "s", "lower"),
    ("indexcount.solution_bounds.self_s", "s", "lower"),
    ("indexcount.euler_poincare_check.busy_s", "s", "lower"),
    ("indexcount.mu_closed_form.busy_s", "s", "lower"),
    ("indexcount.mu_closed_form.hit_ratio", "ratio", "higher"),
    ("indexcount.busy_over_wall", "ratio", "lower"),
    ("sphere.tangent_basis.calls", "count", "lower"),
    ("sphere.tangent_basis.busy_s", "s", "lower"),
    ("sphere.geodesic_distance.calls", "count", "lower"),
    ("sphere.geodesic_distance.busy_s", "s", "lower"),
    ("sphere.quasi_uniform_points.busy_s", "s", "lower"),
    ("kfunc.find_critical_points.calls", "count", "lower"),
    ("kfunc.find_critical_points.self_s", "s", "lower"),
    ("kfunc.grad_K.calls", "count", "lower"),
    ("kfunc.hess_K.calls", "count", "lower"),
    ("kfunc.newton_yield", "ratio", "higher"),
    *[
        (f"quadrature.{fn}.{kind}", unit, "lower")
        for fn in ("integrate_radial", "integrate_two_point_s3", "mc_integrate")
        for kind, unit in (("calls", "count"), ("busy_s", "s"), ("points", "count"))
    ],
    ("bubbles.functional_J_detailed.calls", "count", "lower"),
    ("bubbles.functional_J_detailed.self_s", "s", "lower"),
    ("bubbles.functional_J_detailed.errors", "count", "lower"),
    *[
        (f"bubbles.{fn}.busy_s", "s", "lower")
        for fn in (
            "norm_squared",
            "weighted_power_integral",
            "reduced_gradient",
            "fd_hessian",
            "equilibrium_scale",
            "reduced_morse_index",
        )
    ],
    ("bubbles.flow_to_critical.calls", "count", "lower"),
    ("bubbles.flow_to_critical.self_s", "s", "lower"),
    ("bubbles.j_per_flow", "ratio", "lower"),
    ("bubbles.noise_warnings", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# integrand argument whose abscissae are counted: (position, keyword, rows only)
_INTEGRANDS = {
    "quadrature.integrate_radial": (0, "F", False),
    "quadrature.integrate_two_point_s3": (1, "weight_v", False),
    "quadrature.mc_integrate": (0, "F", True),
}
_REPORT_WRITERS = ("reports.write_report", "reports.write_meta", "reports.write_text")


def _seeds_started(K, seeds: int) -> int:
    """Size of find_critical_points' seed set: the quasi-uniform points, the
    bump centers, their antipodes, and the nonzero center pair sums and
    differences."""
    C = [t.center for t in K.terms]
    pairs = 0
    for i in range(len(C)):
        for j in range(i + 1, len(C)):
            for sign in (1.0, -1.0):
                if sum((a + sign * b) ** 2 for a, b in zip(C[i], C[j])) > 1e-16:
                    pairs += 1
    return seeds + 2 * len(C) + pairs


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Spans and counters for calls into the package's public functions."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, t0, t1, parent, op, thread, raised)
        self.op = None
        self.points: Counter = Counter()
        self.bytes_written = 0
        self.closed_form_hits = 0
        self.yield_points = 0
        self.yield_seeds = 0
        self.noise_warnings = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._driver_stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function binding in the package's modules."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(name, obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        # bubbles reaches warnings.warn through its module global; a proxy
        # counts noise warnings before any filter (the CLI ignores them)
        bubbles = package.bubbles
        self._patched.append((bubbles, "warnings", bubbles.warnings))
        bubbles.warnings = self._warnings_proxy(bubbles.QuadratureNoiseWarning)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _warnings_proxy(self, category):
        proxy = types.ModuleType("warnings")
        proxy.__dict__.update(vars(warnings))
        tracer = self

        def warn(message, cat=UserWarning, *args, **kwargs):
            if isinstance(cat, type) and issubclass(cat, category):
                tracer.noise_warnings += 1
            return warnings.warn(message, cat, *args, **kwargs)

        proxy.warn = warn
        return proxy

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._driver_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        integrand = _INTEGRANDS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if integrand is not None:
                args, kwargs = tracer._count_integrand(name, integrand, args, kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                driver = tracer._driver_stack
                parent = driver[-1] if driver else None
            sid = next(tracer._ids)
            stack.append(sid)
            raised = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, t0, t1, parent, tracer.op, threading.get_ident(), raised)
                )
            tracer._observe(name, args, kwargs, out)
            return out

        return traced

    def _count_integrand(self, name, spec, args, kwargs):
        pos, key, rows = spec
        points = self.points

        def counting(f):
            def g(x):
                points[name] += len(x) if rows else int(getattr(x, "size", 1))
                return f(x)

            return g

        if len(args) > pos:
            args = args[:pos] + (counting(args[pos]),) + args[pos + 1 :]
        elif key in kwargs:
            kwargs = dict(kwargs, **{key: counting(kwargs[key])})
        return args, kwargs

    def _observe(self, name, args, kwargs, out) -> None:
        if name in _REPORT_WRITERS:
            self.bytes_written += Path(out).stat().st_size
        elif name == "indexcount.mu_closed_form":
            self.closed_form_hits += out is not None
        elif name == "kfunc.find_critical_points":
            seeds = args[1] if len(args) > 1 else kwargs.get("seeds", 512)
            self.yield_points += len(out)
            self.yield_seeds += _seeds_started(args[0] if args else kwargs["K"], seeds)

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path, op_labels: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"ops": op_labels}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")

    def metrics(self, op_labels: list[str]) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (one pass)."""
        by_name = defaultdict(list)
        children = defaultdict(list)
        parent_of = {}
        for span in self.spans:
            sid, name, t0, t1, parent, _, _, _ = span
            by_name[name].append(span)
            parent_of[sid] = (name, parent)
            if parent is not None:
                children[parent].append((t0, t1))

        def self_time(spans) -> float:
            total = 0.0
            for sid, _, t0, t1, *_ in spans:
                covered = [(max(a, t0), min(b, t1)) for a, b in children[sid] if b > t0 and a < t1]
                total += (t1 - t0) - _union_length(covered)
            return total

        def busy(spans) -> float:
            per_thread = defaultdict(list)
            for _, _, t0, t1, _, _, thread, _ in spans:
                per_thread[thread].append((t0, t1))
            return sum(_union_length(iv) for iv in per_thread.values())

        def module_spans(mod):
            return [s for name, group in by_name.items() if name.startswith(mod + ".") for s in group]

        def has_ancestor(sid, target) -> bool:
            parent = parent_of[sid][1]
            while parent is not None:
                name, parent_next = parent_of[parent]
                if name == target:
                    return True
                parent = parent_next
            return False

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            head, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = len(by_name[head])
            elif kind == "busy_s":
                out[metric] = busy(by_name[head] if head.count(".") else module_spans(head))
            elif kind == "self_s":
                out[metric] = self_time(by_name[head] if head.count(".") else module_spans(head))
            elif kind == "points":
                out[metric] = self.points[head]
            elif kind == "errors":
                out[metric] = sum(1 for s in by_name[head] if s[7])
        out["reports.bytes"] = self.bytes_written
        out["indexcount.mu_closed_form.hit_ratio"] = ratio(
            self.closed_form_hits, len(by_name["indexcount.mu_closed_form"])
        )
        out["kfunc.newton_yield"] = ratio(self.yield_points, self.yield_seeds)
        flows = by_name["bubbles.flow_to_critical"]
        in_flow = sum(
            1
            for s in by_name["bubbles.functional_J_detailed"]
            if has_ancestor(s[0], "bubbles.flow_to_critical")
        )
        out["bubbles.j_per_flow"] = ratio(in_flow, len(flows))
        out["bubbles.noise_warnings"] = self.noise_warnings

        # verify's pool: indexcount busy time over all threads / the call's wall
        verify_ops = {i for i, label in enumerate(op_labels) if label == "verify"}
        wall = sum(s[3] - s[2] for s in by_name["cli.main"] if s[5] in verify_ops)
        work = busy([s for s in module_spans("indexcount") if s[5] in verify_ops])
        out["indexcount.busy_over_wall"] = ratio(work, wall)
        return out


def import_times(stderr: str) -> dict[str, float]:
    """Incremental import seconds per package module from ``python -X importtime``.

    A module's cumulative time minus that of the package modules imported
    beneath it: what importing it adds, third-party imports it triggers first
    included.  Lines come children first, indented one step deeper than
    their parent.
    """
    out = {}
    pending: list[tuple[int, float, float]] = []  # (depth, cumulative, package part)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        cum = int(cumulative) / 1e6
        package_part = 0.0
        while pending and pending[-1][0] > depth:
            _, child_cum, child_part = pending.pop()
            package_part += child_cum if child_part is None else child_part
        is_package = name == "morsecount" or name.startswith("morsecount.")
        pending.append((depth, cum, None if is_package else package_part))
        if name.startswith("morsecount.") and name.split(".", 1)[1] in MODULES:
            out[name.split(".", 1)[1]] = cum - package_part
    return out
