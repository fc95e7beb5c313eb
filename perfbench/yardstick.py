"""A fixed pure-Python yardstick for the CPU's current speed.

On a shared 2-core virtual machine the CPU speed changes by up to 1.8x
within seconds: the same `certify` job, repeated, takes 0.40 s in one period
and 0.72 s in the next, in CPU time as in wall time.  No run length averages that out.  So the benchmark
times this kernel right before and right after every job (and every set-up
probe) and reports each time rescaled to a fixed kernel speed: a job that
took 0.6 s while the kernel took 6 ms is reported as 0.5 s, its time at the
nominal speed where the kernel takes NOMINAL_S = 5 ms.  A change to vclab
moves the rescaled times as it moves seconds; a slow period of the host
moves both the job and the kernel and cancels.  The wall times are printed
beside them.

The kernel uses only the standard library, so no change to vclab changes a
ref.  Like the hot paths of vclab it is small-Fraction arithmetic, hashing
and sorting.  The cyclic collector is paused while it runs, so a collection
of the program's heap is not charged to the yardstick.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

ROUNDS = 500
REPEATS = 3
# The kernel's time in the fast periods of a 2-core x86-64 virtual machine
# with CPython 3.11.
NOMINAL_S = 0.005


def _kernel() -> int:
    seen = set()
    mids = []
    for i in range(ROUNDS):
        a = Fraction(i % 89 + 1, 97)
        b = Fraction(i % 53 + 1, 59)
        m = (a + b) / 2
        if m < a:
            m = a - (m - b) / 3
        seen.add(m)
        mids.append(m)
    mids.sort()
    return len(seen)


def measure() -> float:
    """Seconds the kernel takes now: the median of REPEATS timings.

    The median, not the least: when the host's speed flickers faster than a
    job lasts, the least timing catches a fast instant and overstates the
    speed the job ran at."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        timings = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            timings.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(timings)


def nominal(seconds: float, ref_s: float) -> float:
    """`seconds`, measured while the kernel took `ref_s`, rescaled to the
    speed at which it takes NOMINAL_S."""
    return seconds * NOMINAL_S / ref_s
