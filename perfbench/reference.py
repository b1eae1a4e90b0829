"""Host-speed reference: a fixed piece of work that never calls devfactor.

The benchmark runs on shared hosts whose speed moves by up to 1.7x between
stretches of a few seconds.  On a 2-vCPU x86-64 VM, one fixed ladder op took
5.6 ms in some 4-second stretches and 9.9 ms in others, in CPU time as in
wall time: the process was not descheduled, the cores ran slower.  That alone
spread ten-seed sets of raw wall times past a 25% bound.

The worker therefore times this reference before every op, and op times are
reported at reference speed: an op's wall time times ``NOMINAL_MS`` over the
median reference time within ``WINDOW_S`` of the op.  A change to devfactor
moves op times and not the reference, so it moves the scaled times as it
would move wall times on a steady host.  The reference mixes what the ops
do (ufuncs on small numpy arrays, a float loop, dict and str work); scaled
by it, 3-second means of ladder, kernel and CLI ops on that VM spread about
a third as much as raw ones.
"""

import bisect
import math
import statistics
import time

import numpy as np

# The reference's typical time between ops on a 2-vCPU x86-64 VM (Intel
# Xeon, Python 3.11), so that scaled times are on the scale of wall times.
NOMINAL_MS = 0.45
WINDOW_S = 0.5  # reference timings this close to an op set its scale

_X = np.linspace(0.0, 1.0, 2048)


def work():
    acc = 0.0
    for k in range(16):
        acc += float(np.sqrt(_X * _X + k).sum())
    s = 0.0
    for k in range(1200):
        s += math.sqrt(k + acc * 1e-9)
    names = {}
    for k in range(300):
        names[str(k)] = k
    return acc + s + len(names)


def timed():
    """(start, ms) of one run of the reference, on the perf_counter clock."""
    t0 = time.perf_counter()
    work()
    return t0, 1e3 * (time.perf_counter() - t0)


def median_ms(count):
    return statistics.median(timed()[1] for _ in range(count))


class Scale:
    """Maps an op's wall time to reference speed, from the (start, ms)
    reference timings taken around it."""

    def __init__(self, refs):
        refs = sorted(refs)
        if not refs:
            raise ValueError("no reference timings")
        self.starts = [t for t, _ in refs]
        self.ms = [ms for _, ms in refs]

    def factor(self, start, ms):
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + ms / 1e3 + WINDOW_S)
        if lo == hi:  # no timing in the window: take the nearest one
            k = min(lo, len(self.starts) - 1)
            lo, hi = k, k + 1
        return NOMINAL_MS / statistics.median(self.ms[lo:hi])

    def __call__(self, start, ms):
        return ms * self.factor(start, ms)
