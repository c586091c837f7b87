"""The host's pace, measured by a fixed loop that does not use ``fibcheb``.

The benchmark runs on virtual machines that share their host, and other
tenants slow every process on the machine by up to 2x, in bursts that come
and go within a second and in slow periods that last minutes.  A round's wall
time therefore says as much about the host as about the program.  The
benchmark times this loop next to every piece of work it measures and scales
the work's time to the pace at which the loop takes ``REFERENCE_S``: the
loop is fixed, so a change to the program moves the scaled time exactly as
it moves the real one, while a change of the host's pace moves both the loop
and the work and cancels.

The loop does what the program spends its time on: exact ``Fraction``
arithmetic on growing integers, terminating hypergeometric-style sums, and a
dictionary of results.
"""

from __future__ import annotations

import time
from fractions import Fraction

# A fixed unit, near the loop's shortest times on the reference machine
# (2 vCPUs, Intel Xeon at 2.1 GHz, Python 3.11.7).  Scaled times compare
# between runs and commits on one kind of machine, not with real times
# elsewhere; changing it rescales every recorded time metric.
REFERENCE_S = 0.035
SIZE = 50


def loop_seconds() -> float:
    """Seconds this process takes for the fixed loop, now."""
    start = time.perf_counter()
    sums = {}
    for n in range(1, SIZE):
        for m in range(n // 2 + 1):
            term = total = Fraction(1)
            for k in range(m):
                term = term * Fraction((k - m) * (k + n), (k + 1) * (k + n + m + 1)) * 4
                total += term
            sums[n, m] = total
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work timed between two loops, at the reference pace."""
    return seconds * REFERENCE_S / ((before + after) / 2)
