"""Host-speed normalisation of the benchmark's timings.

On a shared host the speed of one core drifts by up to 1.7x within seconds,
with CPU time tracking wall time, so raw timings of identical runs spread
more than any useful regression bound.  The benchmark therefore runs a fixed
*yardstick* (work that does not touch ``shearlab``) every few milliseconds
between checks, and scales each timing by ``reference / local yardstick
time``, the local time being the median of the yardstick samples nearest to
it.  Reported times are thus seconds on a host on which the yardstick takes
its reference time; a change to ``shearlab`` moves them, a change of host
speed does not.  There are three yardsticks, matched to the work they scale:
exact-ring workloads spend their time in the interpreter on dicts and tuples;
``qdilog_strip`` spends it in numpy's complex ``exp``/``sinh``; set-up, in a
fresh interpreter, spends it mostly loading numpy.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
WINDOW = 3  # samples taken on each side of a timing


def _python_yardstick():
    # Dict updates under tuple keys, the core of every sparse-ring loop.  On
    # a shared 2-core Xeon host it tracked all three exact-ring workloads
    # better than a Fraction-based variant: the IQR over 1 s windows of check
    # time / yardstick time was 7-8% against 10-18% (27-37% unscaled).
    acc = {}
    for i in range(1200):
        key = (i % 17, i % 5, i % 3)
        acc[key] = acc.get(key, 0) + i * 3
    return acc


_P = np.linspace(-20.0, 20.0, 4097) + 0.5j


def _numpy_yardstick():
    f = np.exp(-0.3j * _P) / (np.sinh(math.pi * _P) * np.sinh(0.5 * math.pi * _P))
    return complex(f.sum())


# kind -> (yardstick, its time in seconds on the reference host)
YARDSTICKS = {
    "python": (_python_yardstick, 5.0e-4),
    "numpy": (_numpy_yardstick, 7.0e-4),
}


class HostSpeed:
    """Timeline of yardstick samples and the scale factor it implies."""

    def __init__(self, kind):
        self._fn, self._reference = YARDSTICKS[kind]
        self._starts = []
        self._costs = []
        self._last = -math.inf

    def sample(self, n=1):
        for _ in range(n):
            start = time.perf_counter()
            self._fn()
            end = time.perf_counter()
            self._starts.append(start)
            self._costs.append(end - start)
            self._last = end

    def maybe_sample(self):
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, at):
        """reference / median yardstick time of the samples around instant ``at``."""
        i = bisect.bisect(self._starts, at)
        local = statistics.median(self._costs[max(0, i - WINDOW) : i + WINDOW])
        return self._reference / local


# Set-up is timed in fresh interpreters, and its time is mostly the loading of
# numpy's modules and shared libraries, which the in-process yardsticks do not
# track: on a shared 2-core Xeon host, round medians of 11 set-ups moved +-13%
# unscaled and +-7% scaled by the dict yardstick, which often moved against
# them.  Loading a fixed set of standard-library modules, some with C
# extensions, in a fresh interpreter tracked them: the ratio moved +-5%.
IMPORT_YARDSTICK = """
import time
start = time.perf_counter()
import asyncio, csv, decimal, email.mime.multipart, fractions, http.client, sqlite3, statistics, unittest, xml.etree.ElementTree
print(time.perf_counter() - start)
"""
IMPORT_REFERENCE_S = 0.08
