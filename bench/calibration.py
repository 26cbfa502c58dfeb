"""Machine-speed calibration of the benchmark's timings.

Shared machines change speed by up to ~1.7x over seconds to minutes,
through load from outside. Each timed unit of work (one potential point)
is therefore timed next to this fixed kernel, run in the same process
right before and right after it, and rescaled:

    rescaled = measured * REFERENCE_S / kernel_time

where kernel_time is the mean of the two kernel runs around the unit.
Set-up time (a fresh interpreter importing planarcp) does not follow that
kernel; it is rescaled the same way by IMPORT_PROBE, a fresh interpreter
importing planarcp's dependencies, run before and after each set-up.
The kernel is a frozen copy of the engine's hot path (passive-branch
square roots and Fresnel coefficients on 15-node Gauss-Kronrod panels),
so it slows down with the machine the way planarcp does, and it never
changes with the library. REFERENCE_S and REFERENCE_IMPORT_S are the
times on an undisturbed 2-core x86-64 machine, so rescaled figures read
as seconds there.
"""

from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_S = 0.65e-3

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, scipy.constants; "
                "print(repr(time.perf_counter() - t0))")
REFERENCE_IMPORT_S = 0.25

_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813])
_WEIGHTS = np.full(15, 1.0 / 15.0)
_PANELS = 40


def _passive_sqrt(w):
    r = np.sqrt(w.astype(complex))
    return np.where(r.imag < 0.0, -r, r)


def kernel() -> complex:
    eps = -3.0 + 1e-3j
    acc = 0j
    for i in range(_PANELS):
        a = 0.05 * i
        x = (a + 0.025) + 0.025 * _NODES
        q2 = x * x + 1.0
        beta = _passive_sqrt(1.0 - q2)
        beta1 = _passive_sqrt(eps - q2)
        r_p = (eps * beta - beta1) / (eps * beta + beta1)
        acc += np.sum(_WEIGHTS * r_p * np.exp(-2.0 * x))
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class KernelClock:
    """Times units of work in one process with the kernel run on both sides.

    Consecutive units share the kernel run between them, so each unit costs
    one kernel run. After a fork the first unit times a fresh "before" run.
    """

    def __init__(self):
        self._pid = None
        self._last = 0.0

    def time(self, fn, *args, **kwargs):
        """(fn's result, its seconds, mean kernel seconds around it)."""
        if self._pid != os.getpid():
            self._pid, self._last = os.getpid(), kernel_seconds()
        before = self._last
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        self._last = kernel_seconds()
        return out, elapsed, 0.5 * (before + self._last)


def rescale(seconds: float, kernel_s: float) -> float:
    """Seconds on the undisturbed machine, given the kernel time alongside."""
    return seconds * REFERENCE_S / kernel_s
