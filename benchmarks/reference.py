"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host other tenants slow this process by up to 60%, in stretches
that last from a fraction of a second to minutes.  The process is not kept off
the CPU (its CPU time grows with its wall time); its core runs slower, as it
does when a hyperthread sibling is busy.  A whole run can fall in a
slow stretch, so neither the fastest nor the median call time of a run repeats
from run to run.

``run.py`` therefore times ``work()`` just before and just after every CLI
call and divides each call's time by the mean of the two: the call's cost in
units of this fixed computation, which slows down with it.  ``REF_S``
converts those units back into seconds.  The computation mixes a pure-Python
float loop with small numpy calls, as the program does, and touches little
memory, so a change to the program does not change its time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds of one ``work()`` at the fastest seen on the machine the bounds were
# set on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2; its median there was
# 4-5 ms).  Reported times are in seconds of that machine at that speed.
REF_S = 0.003

_X = np.linspace(0.0, 1.0, 64)


def work() -> float:
    s = 0.0
    for i in range(20000):
        s += (i % 7) * 0.5
    for i in range(250):
        s += float(np.sum(np.sin(_X * i)))
    return s


def timed() -> float:
    """Wall seconds of one ``work()``."""
    start = perf_counter()
    work()
    return perf_counter() - start


def scaled_sweep(calls: list[float], refs: list[float]) -> float:
    """Seconds at reference speed of one pass: ``refs[i]`` and ``refs[i + 1]``
    are the reference times just before and just after ``calls[i]``."""
    return REF_S * sum(
        2.0 * t / (before + after) for t, before, after in zip(calls, refs, refs[1:])
    )
