"""A clock that reads seconds as the quiet reference machine would.

Other tenants of a shared machine slow this process by up to 2x, for
seconds to minutes at a time. On the machine the benchmark was defined on,
a corpus pass took anywhere from 12 to 20 s, and the median round time of a
12-s run moved by 38% from run to run. No statistic over one run's raw times
removes that, because a contended spell can cover a whole run.

So every ``INTERVAL_S`` of wall time a SIGALRM handler runs a small fixed
calibration kernel, and times it. The kernel does not use finslergeo, but it
is shaped like its hot path: small objects, method calls and a truncated
Taylor product by fancy indexing and ``bincount``. The ratio of its time to
``REFERENCE_S``, its time on the quiet reference machine, is how much slower
the machine runs at that moment. The clock advances by elapsed time divided
by that ratio, averaged over the two samples around each interval. So it
reads reference-machine seconds, and the handler's own time is excluded.
Over 1-s windows the machine's speed moved by 22%, and its speed over the
kernel's by 5%.

The handler runs between bytecodes of the main thread and touches only its
own data, so the program's results are unchanged.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# Median kernel time on the reference machine when quiet: Intel Xeon,
# 2 vCPUs at 2.1 GHz, Python 3.11, numpy 2.4.
REFERENCE_S = 2.05e-4


class _Term:
    __slots__ = ("c", "k")

    def __init__(self, c, k):
        self.c = c
        self.k = k

    def scaled(self, x):
        return self.k * x + 1.0


class Kernel:
    """The calibration kernel: fixed work, independent of finslergeo."""

    def __init__(self):
        rng = np.random.default_rng(1)
        # A (4 variables, order 5) product: 126 coefficients, 1287 pairs.
        self._c = rng.standard_normal(126)
        self._ia, self._ib, self._ic = (rng.integers(0, 126, 1287) for _ in range(3))

    def __call__(self) -> float:
        """Run the kernel once; return its CPU seconds.

        CPU time, not wall time: when the host deschedules this machine in
        the middle of a run, the run is not slower at executing, and read on
        the wall clock it would make the whole interval around it count as
        nearly stopped.
        """
        t0 = time.thread_time()
        acc = 0.0
        for k in range(24):
            t = _Term(self._c, k)
            s = np.bincount(self._ic, weights=t.c[self._ia] * t.c[self._ib], minlength=126)
            acc += t.scaled(float(s[k]))
            acc += sum(_Term(None, j).scaled(0.5) for j in range(4))
        return time.thread_time() - t0


class QuietClock:
    """Reference-machine seconds since ``since`` (a ``perf_counter`` time).

    Use as a context manager; time before entry is counted at the rate of
    the first sample.
    """

    def __init__(self, since=None):
        self._kernel = Kernel()
        self._since = since
        self.samples = []
        self._state = None   # (reference seconds so far, time of last sample, its length)

    def _tick(self, signum=None, frame=None):
        now = time.perf_counter()
        c = self._kernel()
        done, t_last, c_last = self._state
        done += (now - t_last) * 0.5 * (REFERENCE_S / c_last + REFERENCE_S / c)
        self.samples.append(c)
        self._state = (done, time.perf_counter(), c)   # one assignment: readers see all or none

    def now(self) -> float:
        done, t_last, c_last = self._state
        return done + (time.perf_counter() - t_last) * REFERENCE_S / c_last

    def __enter__(self):
        start = time.perf_counter()
        c = self._kernel()
        self.samples.append(c)
        before = start - self._since if self._since is not None else 0.0
        self._state = (before * REFERENCE_S / c, time.perf_counter(), c)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Median kernel time over the reference time: how contended the run was."""
        return float(np.median(self.samples)) / REFERENCE_S
