"""A fixed calibration loop that measures how fast the machine runs right now.

The benchmark shares a host with other tenants, and the speed the host gives
it drifts by up to 2x within seconds. A pure-Python loop timed between ops
slows down by the same factor as the ops do, so the timed runs divide every
op time (and every set-up time) by the loop's time around it and report it
in nominal seconds: seconds on a machine where the loop takes ``NOMINAL_S``.

The loop is what the ddestab layers mostly do: interpreted float arithmetic,
closures, list appends and ``bisect`` reads of a growing mesh. It is a
method-of-steps RK4 run of a Mackey-Glass equation with Hermite reads of its
own past. It imports nothing from ddestab, so a change to the package cannot
change the loop, and any change in an op's own cost shows in full.
"""

from __future__ import annotations

import bisect
import gc
from time import perf_counter

# Seconds one pass of the loop takes on the 2-core machine the bounds were
# set on, at its usual speed; it only fixes the unit, so nominal and wall
# seconds agree there on average.
NOMINAL_S = 0.003
# Ops run between two calibrations for at least this long.
EVERY_S = 0.2
STEPS = 300
# A calibration is the median of this many passes, so one interrupted pass
# does not set it.
PASSES = 3


def _hermite(t0, x0, m0, t1, x1, m1, t):
    h = t1 - t0
    s = (t - t0) / h
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * x0 + s * (1.0 - s) ** 2 * h * m0
            + s * s * (3.0 - 2.0 * s) * x1 + s * s * (s - 1.0) * h * m1)


def _loop(steps=STEPS, h=0.01, lag=0.37):
    ts, xs, ms = [0.0], [1.0], [0.0]

    def read(tau):
        if tau <= 0.0:
            return 0.8
        i = bisect.bisect_right(ts, tau) - 1
        if i >= len(ts) - 1:
            return xs[-1]
        return _hermite(ts[i], xs[i], ms[i], ts[i + 1], xs[i + 1], ms[i + 1], tau)

    def rhs(t, x):
        y = read(t - lag)
        return -x + 2.0 * y / (1.0 + y ** 9.6)

    t, x = 0.0, 1.0
    for _ in range(steps):
        k1 = rhs(t, x)
        k2 = rhs(t + h / 2, x + h / 2 * k1)
        k3 = rhs(t + h / 2, x + h / 2 * k2)
        k4 = rhs(t + h, x + h * k3)
        x += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        ts.append(t)
        xs.append(x)
        ms.append(rhs(t, x))
    return x


def measure() -> float:
    """Median wall seconds of ``PASSES`` passes of the loop, with the garbage
    collector off.

    With the collector off, the number of objects the package keeps alive
    cannot change the loop's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PASSES):
            start = perf_counter()
            _loop()
            times.append(perf_counter() - start)
        return sorted(times)[PASSES // 2]
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from wall to nominal seconds for work timed between two passes."""
    return NOMINAL_S / (0.5 * (before + after))
