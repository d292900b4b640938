"""Machine speed during a measurement, from a fixed kernel timed every 50 ms.

On a shared host this benchmark's passes run up to 1.7x slower for tens of
seconds at a time, and CPU time slows with wall time, so neither shows what
the code costs.  While a pass runs, ``SpeedSampler`` interrupts it every
``INTERVAL_S`` (SIGALRM) and times ``kernel_s``, a fixed piece of work that
runs no itolab code: numpy calls on tiny arrays, as in the optimizer, and a
small batched eigvalsh, as in the enumerations.  ``nominal`` rescales a wall
time to a machine on which the kernel takes ``KERNEL_NOMINAL_S``.  The
sampling costs about 2% of a pass.

The kernel is timed in thread CPU time.  The host slowing the guest inflates
that as much as wall time, but the guest sharing a core between this process
and worker processes of the program does not, so a program that keeps every
core busy does not also make itself look faster by slowing the kernel.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

KERNEL_NOMINAL_S = 4e-4
INTERVAL_S = 0.05

_MATS = np.random.default_rng(0).standard_normal((64, 3, 3))


def kernel_s() -> float:
    """Thread CPU time of one run of the fixed kernel."""
    t0 = time.thread_time()
    x = np.ones(8, dtype=complex)
    for _ in range(40):
        x = np.abs(x) * 0.5 + 0.5j
        float((x * x.conj()).real.sum())
    np.linalg.eigvalsh(_MATS @ _MATS.transpose(0, 2, 1))
    return time.thread_time() - t0


def nominal(wall: float, kernel: float) -> float:
    """``wall`` seconds measured while the kernel took ``kernel`` seconds."""
    return wall * KERNEL_NOMINAL_S / kernel


class SpeedSampler:
    """Context manager that times the kernel every ``INTERVAL_S`` of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        kernel_s()   # warms the caches the pass evicted: time the machine, not them
        self.samples.append(kernel_s())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_time(self) -> float:
        """Kernel time over the samples, without the slowest and fastest tenth
        (a sample that a page fault or a descheduling hit says little about
        the next 50 ms)."""
        if not self.samples:
            self._sample(None, None)
        s = sorted(self.samples)
        cut = len(s) // 10
        return statistics.fmean(s[cut:len(s) - cut])
