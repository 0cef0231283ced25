"""A fixed unit of pure-Python work that measures the machine's speed now.

The host is shared, and its speed drifts by 20-40% over minutes: runs of
identical work differ that much in wall time.  The worker reads this
kernel's time right before and right after every timed job, and the
benchmark reports each job's time scaled to a machine on which the
kernel takes REFERENCE_S.  A drift that slows the job slows the kernel
beside it, so the scaled time follows the program, not the host.

The kernel mixes what the program spends its time on: interpreted calls
on small integers, mpmath arithmetic at a few hundred bits, and
polynomial arithmetic mod p.  It never imports cyclobound, so a change
to the program cannot change the kernel.
"""
from __future__ import annotations

import time

import mpmath

from workloads import POLYS, count_roots_mod_p

# the kernel's median time on the machine measured in NOTES.md
REFERENCE_S = 0.02
READINGS = 3

_PRIMES = (1009, 2003, 4001, 7001, 9001, 12007)


def _step(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def kernel() -> int:
    x = 0
    for i in range(35000):
        x = _step(x, i)
    with mpmath.workdps(120):
        s = mpmath.mpf(0)
        for i in range(1, 850):
            s += mpmath.mpf(1) / i * mpmath.mpf(i + 1)
    roots = sum(count_roots_mod_p(POLYS[15], p) for p in _PRIMES)
    return x + int(s) + roots


def calibrate() -> float:
    """Median wall seconds of READINGS kernel runs in a row.

    A burst of host noise that hits one run does not move the median.
    """
    times = []
    for _ in range(READINGS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[READINGS // 2]


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds`, measured between two readings, at reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
