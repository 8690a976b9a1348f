"""Host-speed normalisation of the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.5-2x over seconds to minutes, for numpy and pure-Python code alike (a
process's CPU time drifts with its wall time, so this is not time spent
descheduled).  A raw wall time therefore measures the host as much as the
program.

:class:`HostClock` times a fixed calibration kernel that does not call
veflow: on entry, on exit and, while it is entered, every ``PERIOD_S``
seconds from a ``SIGALRM`` handler.  Python runs the handler between
bytecodes of the main thread, so a calibration never interrupts a numpy
call and needs no hook in the program.  Each calibration is a pause that
:meth:`HostClock.scaled` leaves out of the intervals it converts; the time
between two calibrations is scaled by ``REF_KERNEL_S`` over the mean of
their kernel times.  A scaled time is thus the time the interval would
have taken at the host speed where the kernel takes ``REF_KERNEL_S``.
A change to veflow moves it in full, since the kernel never runs veflow
code.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

# the kernel's time at the reference speed: about its fastest on a
# 2-vCPU Intel Xeon (KVM) host with numpy's pocketfft
REF_KERNEL_S = 3.0e-3
PERIOD_S = 0.1      # calibration period while a HostClock is entered
REPEATS = 2         # kernel repetitions per calibration; the fastest is used
CAPACITY = 1 << 16  # calibrations one clock can record (6500 s at PERIOD_S)


class Kernel:
    """A 3-d FFT pair on two 32^3 complex fields (1 MB), the transform work
    that dominates the box workloads, written into preallocated arrays.
    Across repeated solves on a drifting host its time tracked the solve
    times of the box, decay and propagator workloads better (correlation
    0.93-0.99) than small-array numpy or interpreted kernels, whose speed
    drifts more than the solves do."""

    def __init__(self):
        rng = np.random.default_rng(20121)
        shape = (2, 32, 32, 32)
        self.fields = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.spec = np.empty_like(self.fields)
        self.back = np.empty_like(self.fields)

    def __call__(self) -> None:
        axes = (-3, -2, -1)
        np.fft.fftn(self.fields, axes=axes, out=self.spec)
        np.fft.ifftn(self.spec, axes=axes, out=self.back)

    def time(self) -> float:
        """Shortest time of ``REPEATS`` runs of the kernel, in seconds: a
        stall inside one run says nothing about the host's speed."""
        best = math.inf
        for _ in range(REPEATS):
            a = perf_counter()
            self()
            best = min(best, perf_counter() - a)
        return best


class HostClock:
    """Calibrates while entered (``with clock:``) and converts raw
    ``perf_counter`` intervals into reference-speed seconds afterwards.

    With ``timed=False`` it calibrates only on entry and exit, which adds no
    pause inside the timed work (the traced solve uses it so that no span
    covers a calibration).

    A calibration allocates no memory that outlives it: the kernel writes
    into its own arrays and the records go into preallocated lists.
    """

    def __init__(self, timed: bool = True):
        self.timed = timed
        self.kernel = Kernel()
        self.kernel.time()          # warm up numpy's FFT plan cache
        self.count = 0
        self._starts = [0.0] * CAPACITY   # pause start of each calibration
        self._ends = [0.0] * CAPACITY     # pause end of each calibration
        self._kernel_s = [0.0] * CAPACITY
        self._saved = None

    @property
    def starts(self) -> list:
        return self._starts[: self.count]

    @property
    def ends(self) -> list:
        return self._ends[: self.count]

    @property
    def kernel_s(self) -> list:
        return self._kernel_s[: self.count]

    def calibrate(self) -> None:
        if self.count == CAPACITY:
            return
        a = perf_counter()
        k = self.kernel.time()
        i = self.count
        self._starts[i], self._ends[i], self._kernel_s[i] = a, perf_counter(), k
        self.count = i + 1

    def _on_alarm(self, signum, frame) -> None:
        self.calibrate()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self.calibrate()
        if self.timed:
            self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.timed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._saved)
        self.calibrate()

    def pause_s(self) -> float:
        """Total time spent calibrating."""
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def scaled(self, a: float, b: float) -> float:
        """Reference-speed seconds of the work done in [a, b], calibration
        pauses left out.  Needs a calibration before ``a`` and after ``b``."""
        starts, ends, kernel_s = self.starts, self.ends, self.kernel_s
        if not starts or a < ends[0] or b > starts[-1]:
            raise ValueError("interval not bracketed by calibrations")
        total = 0.0
        i = max(bisect.bisect_right(ends, a) - 1, 0)
        while i + 1 < len(starts) and ends[i] < b:
            lo, hi = max(a, ends[i]), min(b, starts[i + 1])
            if hi > lo:
                total += (hi - lo) * 2.0 * REF_KERNEL_S / (kernel_s[i] + kernel_s[i + 1])
            i += 1
        return total

    def summary(self) -> dict:
        k = self.kernel_s
        return {
            "calibrations": len(k),
            "kernel_ms_p50": 1e3 * statistics.median(k),
            "kernel_ms_min": 1e3 * min(k),
            "kernel_ms_max": 1e3 * max(k),
            "ref_kernel_ms": 1e3 * REF_KERNEL_S,
            "pause_s": self.pause_s(),
        }
