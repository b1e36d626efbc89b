"""How fast the host runs right now, measured with fixed reference kernels.

The benchmark shares a few cores of a busy host.  Other tenants slow the
same code by up to ~2x, for seconds to minutes at a time, in CPU time as
well as in wall time, so runs of identical code made a few minutes apart
differ by more than any bound worth holding a change to.  The slowdown is
not the same for all code: interpreted integer code and small numpy calls
slow down at different moments.  So each workload names the kernel that
does its kind of work, and while a pass runs the kernel is sampled every
``PERIOD_S`` (3-6% of the time, taken out again from any op a sample
interrupts).  Every time the benchmark reports is divided by the host's
slowdown at that moment: the kernel's time then over its time on a quiet
host.  A change to the package cannot change a kernel, so a speed-up of the
package shows in full, while a slow spell of the host does not.

    python3 bench/hostspeed.py        # time each kernel on this host
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import threading
import time
from itertools import combinations

import numpy as np

PERIOD_S = 0.2  # timer period of the in-pass samples
WINDOW_S = 0.25  # samples this close to an op weigh on its factor

_V4 = np.linspace(0.2, 1.0, 4)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def python_kernel() -> int:
    """Interpreted loops over small and big integers, tuples, dicts and
    subsets, as in the counting routes."""
    acc = 0
    counts: dict = {}
    for i in range(1500):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
        acc += pow(3, i % 96) // (i + 1)
    par = (0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0)
    for size in (3, 4, 5):
        for S in combinations(range(len(par)), size):
            acc += -1 if (size + sum(par[j] for j in S)) % 2 else 1
    return acc + len(counts)


def numpy_kernel() -> float:
    """Many numpy calls on 4-vectors, as in a Newton step on a sphere."""
    v = _V4.copy()
    for _ in range(500):
        v = v / np.linalg.norm(v)
        v = v + 1e-3 * (np.outer(v, v) @ v)
    return float(v.sum())


def vector_kernel() -> float:
    """Panel Gauss-Legendre sums and a Monte Carlo batch on whole arrays.
    Alone it tracked energy-scan's small ops worse than mixed with the
    numpy kernel."""
    total = 0.0
    breaks = np.linspace(0.0, np.pi, 33)
    half = 0.5 * (breaks[1:] - breaks[:-1])
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    pts = mid[:, None] + half[:, None] * _GL_X[None, :]
    for lam in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
        vals = (lam / (1.0 + lam * lam * (1.0 - np.cos(pts)))) ** 1.5 * np.sin(pts) ** 2
        total += float(np.sum(half * (vals @ _GL_W)))
    x = np.random.default_rng(7).standard_normal((16000, 4))
    x /= np.linalg.norm(x, axis=1)[:, None]
    total += float(np.mean(np.exp(-x @ _V4)))
    return total


def mixed_kernel() -> float:
    """Small calls and whole-array work in one sample."""
    return numpy_kernel() + vector_kernel()


KERNELS = {"python": python_kernel, "numpy": numpy_kernel, "mixed": mixed_kernel}

# Median time of each kernel on a quiet host (2 vCPU x86-64 guest, CPython
# 3.11, numpy 2.4).  They set the unit of the reported times and nothing else.
NOMINAL_S = {"python": 0.0030, "numpy": 0.0035, "mixed": 0.0065}


class HostClock:
    """Samples one kernel and turns raw times into times at quiet-host speed.

    ``tick`` is called between ops and samples once ``PERIOD_S`` has passed
    since the last sample.  ``start``/``stop`` also arm a SIGALRM timer with
    the same period, so long ops are sampled while they run.  The handler
    runs in the main thread between bytecodes and adds its time to
    ``paused_wall``/``paused_cpu``, which the caller takes out of the op it
    interrupted.  It skips its sample while the package runs Python threads
    of its own (``verify``'s pool): they would take turns with the kernel
    on the GIL, and it would measure them instead of the host.  Wall
    slowdown comes from the kernel's wall time, CPU slowdown from its thread
    CPU time.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.nominal = NOMINAL_S[kind]
        self.times: list[float] = []  # sample midpoints, perf_counter
        self.wall: list[float] = []  # kernel wall time per sample
        self.cpu: list[float] = []  # kernel thread CPU time per sample
        self.paused_wall = 0.0
        self.paused_cpu = 0.0
        self.skipped = 0

    def _one(self) -> None:
        # the cyclic collector would walk the package's heap inside the kernel
        collecting = gc.isenabled()
        gc.disable()
        c0, t0 = time.thread_time(), time.perf_counter()
        self.kernel()
        t1, c1 = time.perf_counter(), time.thread_time()
        if collecting:
            gc.enable()
        self.times.append((t0 + t1) / 2)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)

    def sample(self, reps: int) -> None:
        for _ in range(reps):
            self._one()

    def tick(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PERIOD_S:
            self._one()

    def _handler(self, signum, frame) -> None:
        if threading.active_count() > 1:
            self.skipped += 1
            return
        p0, h0 = time.process_time(), time.perf_counter()
        self._one()
        self.paused_wall += time.perf_counter() - h0
        self.paused_cpu += time.process_time() - p0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _near(self, t0: float, t1: float) -> range:
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo < hi:
            return range(lo, hi)
        # no sample in the window: the nearest one on each side
        return range(max(lo - 1, 0), min(hi + 1, len(self.times)))

    def wall_factor(self, t0: float, t1: float) -> float:
        """Host slowdown in wall time around [t0, t1]."""
        return statistics.fmean(self.wall[i] for i in self._near(t0, t1)) / self.nominal

    def cpu_factor(self, t0: float, t1: float) -> float:
        """Host slowdown in CPU time around [t0, t1]."""
        return statistics.fmean(self.cpu[i] for i in self._near(t0, t1)) / self.nominal

    def mean_wall_factor(self) -> float:
        return statistics.fmean(self.wall) / self.nominal


if __name__ == "__main__":
    for kind, kernel in KERNELS.items():
        kernel()
        walls = []
        for _ in range(300):
            t0 = time.perf_counter()
            kernel()
            walls.append(time.perf_counter() - t0)
        print(f"{kind:7s} median {statistics.median(walls) * 1e3:.3f} ms  min {min(walls) * 1e3:.3f} ms  nominal {NOMINAL_S[kind] * 1e3:.3f} ms")
