"""
Host-speed calibration.

The benchmark shares its host with other work, and the speed of one core
drifts by half over minutes.  A fixed pure-Python kernel, which never
calls the library, is timed alongside the ops; every reported time is
scaled by ``REFERENCE_S / kernel time``, that is, expressed at the host
speed where the kernel takes ``REFERENCE_S``.  The kernel does the kind of
work the library does (Fraction arithmetic, tuple hashing, dict updates,
small-int loops), so a slow spell stretches both alike and cancels out of
the ratio, while a change to the library moves only the ops.

The raw times are printed on the line before the result.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# seconds the kernel takes at the reference speed: its typical time on a
# 2-core x86-64 container under CPython 3.11
REFERENCE_S = 0.005


def _work() -> int:
    acc = Fraction(0)
    table: dict[tuple, int] = {}
    for i in range(1, 1000):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = tuple(range(i % 9))
        table[key] = table.get(key, 0) + 1
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total + len(table) + acc.denominator


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scale(kernel_samples: list[float]) -> float:
    """Factor from raw seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(kernel_samples)
