"""A clock in reference seconds, for a machine whose speed drifts.

The benchmark runs on a few virtual cores of a shared host. There, the same
call can take 0.2 s one moment and 0.35 s the next, for tens of seconds at a
stretch, and process CPU time slows just as much as wall time: the host
makes the core itself slower, so neither clock removes it. A fixed
calibration kernel slows along with the program, though, so the ratio of the
two is steady where each alone is not.

While a `SpeedProbe` runs, an interval timer (SIGALRM) runs the kernel every
`period` seconds, between two bytecodes of whatever Python code is running,
and records how long it took. The kernel's own time is left out of the
benchmark's timings (`mark`). A call that took `b - a` such seconds is
then worth

    (b - a) * KERNEL_REF_S / mean(kernel times sampled during [a, b])

reference seconds, the kernel times taken just before and after the call
included, so even a call shorter than `period` has two. A reference second
is a second on a machine where the kernel takes KERNEL_REF_S; on the 2-vCPU
Xeon VM the benchmark was written on, reference seconds came to between 0.75
and 1.2 wall seconds, as the host was busy or quiet.

The kernel stands for the program's three kinds of work: quadrature loops
in the interpreter over numpy scalars (bivariate, geometry), many small
numpy calls (channels, protocol's per-round work), and Philox draws and
compares over a few megabytes (protocol's codebooks). Their shares were
chosen by probing: of the mixes tried, this one tracked δ*, sweep and
simulate calls best together, leaving a per-call coefficient of variation
of 2-7% over 400 s where wall time had 10-17%. It is written here, not
imported from avcsim, so no change to the program can change the yardstick.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

# median kernel time on a quiet run of the reference machine (see above)
KERNEL_REF_S = 0.0105
DEFAULT_PERIOD_S = 0.1

_BIG = 1 << 19  # int64 elements: 4 MiB, twice a core's L2
_SMALL = np.arange(64, dtype=np.float64)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)


def _density(x: float, y: float, rho: float) -> float:
    om = 1.0 - rho * rho
    z = (x * x - 2.0 * rho * x * y + y * y) / (2.0 * om)
    return math.exp(-z) / (2.0 * math.pi * math.sqrt(om))


def kernel() -> float:
    """Fixed work with the program's mix of costs; returns a checksum."""
    acc = 0.0
    # quadrature panels: interpreter loops over numpy scalars calling math
    for i in range(60):
        mid, half = 0.01 * i, 0.005
        for node, weight in zip(_NODES, _WEIGHTS):
            acc += weight * _density(0.3, -0.2, mid + half * node)
    # small numpy calls, where call overhead is most of the cost
    for _ in range(600):
        acc += float(np.dot(_SMALL, _SMALL) + _SMALL.max())
    # codebook-like draws and compares, past the per-core caches
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    big = gen.integers(0, 2, size=_BIG, dtype=np.int64)
    acc += float((big != big[::-1]).sum())
    return acc


class SpeedProbe:
    """Samples the machine's speed with `kernel` on a timer, and rescales timings by it."""

    def __init__(self, period: float = DEFAULT_PERIOD_S):
        self.period = period
        self.at: list[float] = []  # perf_counter when each sample started
        self.took: list[float] = []  # its kernel seconds
        self.paused = 0.0  # perf_counter seconds spent in samples so far
        self._previous = None
        self._running = False
        self._sampling = False

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.at.append(t0)
        self.took.append(dt)
        self.paused += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        # a late alarm can arrive while a sample still runs; it is skipped,
        # so samples never nest and stay in time order
        if self._running and not self._sampling:
            self._sampling = True
            try:
                self.sample()
            finally:
                self._sampling = False

    def start(self) -> None:
        if self._running:
            return
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._running = False
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    def mark(self) -> tuple:
        """An instant: (perf_counter less the time spent in samples so far,
        perf_counter). Two marks bound a timed call."""
        now = time.perf_counter()
        return (now - self.paused, now)

    def seconds(self, a: tuple, b: tuple) -> float:
        """Seconds between two marks, samples left out."""
        return b[0] - a[0]

    def reference_s(self, a: tuple, b: tuple) -> float:
        """Seconds between two marks, in reference seconds (module docstring)."""
        lo = max(bisect.bisect_right(self.at, a[1]) - 1, 0)
        hi = min(bisect.bisect_left(self.at, b[1]) + 1, len(self.at))
        window = self.took[lo:hi]
        if not window:
            raise RuntimeError("no speed sample around the timed call")
        return self.seconds(a, b) * KERNEL_REF_S / (sum(window) / len(window))
