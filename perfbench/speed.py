"""How fast the machine runs while the benchmark measures.

The benchmark shares its CPUs with other tenants of the host. Under their
load the same Python and NumPy work takes up to twice as long, and that
state changes every few seconds and drifts over minutes, so plain wall-clock
medians of identical runs spread by a quarter or more. The benchmark
therefore times a fixed reference kernel, which is its own code and calls
nothing in ``rlvs``, just before and just after each call it measures, and
divides the call's time by the machine factor around it: the mean reference
time of those two groups of samples over ``REF_SECONDS``. Each reported time
is then the median of such quotients over the run's repeats.
A change to the program cannot change the factor, because the kernel never
runs program code; a host that runs everything slower moves the stage times
and the factor together.

The kernel mixes the kinds of work the program does: short per-cell
generator streams and small reductions (as ``surface`` does), scalar float
arithmetic in Python (as the Newton solver in ``voltools`` does) and
elementwise NumPy over a (23,400, 5) array, the shape of the tick-level
likelihood in ``model``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_SECONDS = 0.020       # about the kernel's median on a shared 2-CPU x86 machine
_TICKS = np.random.default_rng(12345).standard_normal((23_400, 5))


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        x = np.random.default_rng([12345, i]).standard_normal(100)
        acc += float(np.std(x))
        for _ in range(40):
            acc = math.sqrt(acc * acc + 1.0) - 0.5 * math.exp(-acc)
    for _ in range(3):
        z = 0.3 * _TICKS - 0.1
        dens = np.exp(-0.5 * z * z)
        total = dens.sum(axis=1, keepdims=True)
        acc += float(((dens / total) * z).sum() + np.log(total).sum())
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.perf_counter() - t0


class Speed:
    """Reference-kernel samples taken around the timed calls of one run."""

    def __init__(self, per_group: int = 4):
        self.per_group = per_group
        self.samples: list[float] = []
        self._last: float | None = None

    def _group(self) -> float:
        times = [kernel() for _ in range(self.per_group)]
        self.samples.extend(times)
        return statistics.fmean(times)

    def begin(self) -> None:
        """Take the reference group the next call to ``time`` starts from."""
        self._last = self._group()

    def time(self, fn) -> tuple[float, float]:
        """Call ``fn()``; return its wall time and that time divided by the
        machine factor measured around it (the mean of the reference groups
        just before and just after). The group after one call is the group
        before the next, so calls made back to back share it."""
        t0 = time.perf_counter()
        fn()
        took = time.perf_counter() - t0
        before, self._last = self._last, self._group()
        return took, took * REF_SECONDS / (0.5 * (before + self._last))

    def factor(self) -> float:
        """Median reference time over ``REF_SECONDS``, over the whole run."""
        return statistics.median(self.samples) / REF_SECONDS
