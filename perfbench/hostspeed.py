"""Host speed, sampled while a workload runs, to rescale its wall times.

The benchmark runs on a shared VM whose vCPUs slow down by up to ~1.8x for
stretches of seconds to minutes, as other tenants load the physical cores
under them (see NOTES.md). Raw wall times then measure the neighbours as
much as the program.

So while a timed interval runs, a SIGALRM timer fires every ``PERIOD_S``
and the handler times a fixed reference kernel: a short sum of
``fractions.Fraction`` products, stdlib code that no change to groupwalk
can speed up or slow down. It runs once untimed, to warm the caches the
workload evicted, and once timed. An interval's host factor is the mean of
``(REF_S / kernel time) ** sensitivity`` over the samples taken in it, plus
one taken at each end; its scaled time is the raw time times that factor,
i.e. the time the interval would have taken at the host speed where the
kernel takes ``REF_S``. The handler's own time is left out of the raw time.

``sensitivity`` is how strongly the interval's time follows the kernel's
as the host slows: the slope of log(time) on log(kernel time). Pure-Python
work follows it one to one; numpy-heavy work, partly bound by memory, less
(``workloads.HOST_SENSITIVITY`` gives the measured slopes). Any fixed value
rescales two versions of the program the same way, so it favours neither;
a well-fitted one only removes more of the host's noise.

The handler runs in the main thread between bytecodes, so a long C call
(a numpy sort, say) delays the next sample until it returns; the factor then
leans on the samples around it. Nothing about the machine is changed: the
timer and the kernel act on this process only.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
# the kernel's time at the fast end of its range on a 2-vCPU Sapphire Rapids
# KVM guest (Python 3.11); any constant would do, it only sets the scale
REF_S = 160e-6
_TERMS = [Fraction(i, i + 7) for i in range(1, 40)]


def _kernel():
    s = Fraction(0)
    for f in _TERMS:
        s += f * f
    return s


class HostSpeed:
    """Reference-kernel samples ``(start, seconds)`` taken on a timer."""

    def __init__(self, kernel=_kernel, period=PERIOD_S):
        self.kernel, self.period = kernel, period
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # seconds inside sample(), to leave out of raw times
        self._busy = False
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame):
        if not self._busy:  # an explicit sample() is running; skip this tick
            self.sample()

    def sample(self):
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.samples.append((t1, t2 - t1))
        self.spent += t2 - t0
        self._busy = False

    def mark(self):
        """Start a timed interval; pass the result to `since`."""
        self.sample()
        return len(self.samples) - 1, time.perf_counter(), self.spent

    def since(self, mark, sensitivity=1.0) -> tuple[float, float]:
        """(raw, scaled) seconds since `mark`, sampling time left out of both."""
        first, t0, spent0 = mark
        raw = time.perf_counter() - t0 - (self.spent - spent0)
        self.sample()
        factor = statistics.fmean((REF_S / dt) ** sensitivity for _, dt in self.samples[first:])
        return raw, raw * factor

