"""Machine-speed calibration: a fixed kernel timed beside every op.

On a shared host the CPU speed itself drifts by up to 1.7 times in phases of
seconds to minutes, and CPU time drifts with wall time, so neither measures
the program alone.  A kernel that does not touch qmsflow, timed right before
and right after an op, tells how fast the machine ran around it.  An op's
*scaled* latency is its wall time times ``REFERENCE_S / kernel time``: the
time the op would take on a machine that runs the kernel in REFERENCE_S.
A change to qmsflow moves the op's wall time and not the kernel, so it moves
the scaled latency by the same factor.

The kernel mixes what the workloads spend their time on: interpreted Python
arithmetic and calls, numpy on short arrays, and scipy's DOP853 driving a
Python right-hand side.  The pure-Python part alone over-corrects the ops
(slope 1.16 in log-log against op latency) and the solve_ivp part alone
under-corrects them (0.79); their sum tracks them.
"""

import math
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

# The reference speed: scaled latencies are seconds on a machine that runs the
# kernel in REFERENCE_S.  The 2-core Xeon host the bounds were set on runs it
# in 7.5 to 11 ms, depending on the load of other tenants.
REFERENCE_S = 0.010

_Y0 = np.array([1.0, 0.0, 0.0, 0.0, 1.1, 0.1])


def _kepler(t, y):
    q = y[:3]
    r = math.sqrt(float(q @ q))
    return np.concatenate([y[3:], -q / r ** 3])


def _kernel():
    s = 0
    for i in range(20000):
        s += i * i % 7
    a = np.arange(64.0)
    for _ in range(200):
        a = np.sin(a) + 1.0
    solve_ivp(_kepler, (0.0, 6.0), _Y0, method="DOP853", rtol=1e-10,
              atol=1e-12)
    return s


def kernel_seconds() -> float:
    """Wall time of one pass of the kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def warm_up(passes: int = 5) -> None:
    for _ in range(passes):
        kernel_seconds()


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s at the reference speed, from the kernel times around it."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
