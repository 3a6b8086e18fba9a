"""Host speed probe used to put every timing on one scale.

On a shared two-vCPU Xeon host one vCPU can run at half the speed of the
other, and a process that migrates between them changes speed by up to 2x
from one second to the next.  So a run first pins itself, and every
process it starts, to the allowed CPU where the probe is fastest.  Then
each timed call is bracketed by two probes of a fixed piece of exact
rational arithmetic, the kind of work the library spends its time on, and
its time is scaled by REFERENCE_S over the mean of the two probes.
Reported times are therefore seconds on a host where the probe takes
exactly REFERENCE_S; raw wall times are printed beside them.  The probe
is part of the benchmark, so no change to the library moves it.
"""

import os
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001


def _kernel() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the kernel takes now; the faster of two back-to-back runs,
    which drops a one-off interruption."""
    return min(_kernel(), _kernel())


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference seconds for a call bracketed
    by the probes ``before`` and ``after``."""
    return REFERENCE_S / ((before + after) / 2)


def pin_to_fastest_cpu() -> int | None:
    """Pin this process (and the processes it starts later) to the allowed
    CPU where the probe runs fastest; returns it, or None where CPU
    affinity is not supported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    timings = []
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        timings.append((statistics.median(probe() for _ in range(10)), cpu))
    cpu = min(timings)[1]
    os.sched_setaffinity(0, {cpu})
    return cpu
