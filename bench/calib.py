"""Machine-speed calibration, so that timings survive a drifting host.

On the shared 2-core x86 VM this benchmark was written on, the same Python
code ran up to 2x slower for stretches of seconds to minutes (CPU contention
from other tenants), on both CPUs independently; the wall-clock medians of
runs of identical work then spread by 20-26 % over ten runs.  So a fixed
pure-Python kernel, with the program's instruction mix (Fraction arithmetic,
dict and tuple work), is timed every TICK_S seconds inside the op's own
thread while it runs, and once before and once after.  The op's time is
reported at the reference speed at which the kernel takes REF_S seconds:

    op time = (wall time - kernel time) / slowdown,
    slowdown = mean kernel time / REF_S.

On the same VM this cut the spread of single Gr(2,5) ops from 20 % to 7 %.
The kernel is benchmark code, so a change to the program cannot move it.
"""

import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.0025
TICK_S = 0.1


def kernel():
    """About 2 ms of work on a 2.1 GHz Xeon core."""
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        key = (i % 13, i % 7)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 5 + 1, i % 3 + 1)
        acc += table[key]
    return acc


def timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdown_now():
    """Slowdown from the median of three kernel runs (used at start-up)."""
    return statistics.median(timed_kernel() for _ in range(3)) / REF_S


class SpeedSampler:
    """Context manager timing the kernel on SIGALRM while its body runs."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum=None, frame=None):
        self.samples.append(timed_kernel())

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.kernel_s = sum(self.samples[1:])
        self._tick()
        return False

    @property
    def slowdown(self):
        return statistics.mean(self.samples) / REF_S

    @property
    def seconds(self):
        """Wall time of the body without the kernel runs inside it."""
        return self.wall - self.kernel_s
