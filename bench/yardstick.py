"""A fixed computation that uses no zetalab code.

The host this benchmark was built on drifts: the same loop of series
evaluations took anywhere from 10 to 19 ms per batch within one minute,
and process CPU time drifted with it.  Timing this yardstick right after
each job and dividing the job's time by it removes most of that drift,
because the yardstick slows down with the host as the job does.  Its mix of
pure Python, numpy and mpmath mirrors what the workloads spend time in.
"""

from __future__ import annotations

import math
import time

import mpmath as mp
import numpy as np

_X = np.arange(1.0, 20001.0) + 0.75


def compute() -> float:
    """One unit of work, about 10 ms; the return value defeats elision."""
    acc = 0.0
    for k in range(3000):                       # interpreter
        acc += math.sin(k * 1e-3) * (k % 7)
    z = _X ** complex(-1.5, 1e3)                # vectorised complex powers
    acc += float(z.real.sum())
    with mp.workdps(30):                        # software precision
        total = mp.mpf(0)
        for n in range(1, 300):
            total += mp.mpf(n) ** mp.mpf("-1.001")
        acc += float(total)
    return acc


def timed() -> float:
    t0 = time.perf_counter()
    compute()
    return time.perf_counter() - t0
