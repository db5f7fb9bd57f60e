"""Machine speed probe: times at a fixed reference speed.

On a shared machine the CPU speed available to one process drifts by up to
~1.9x over seconds to tens of seconds (measured on a 2-vCPU x86_64 VM: raw
op medians of one 40 s run differ by 15-24% from the next).  The drift hits
interpreter-bound code in much the same way, so the benchmark times a
fixed pure-Python loop between consecutive operations and reports each
operation's time scaled to the speed at which that loop takes
``REFERENCE_LOOP_MS``:

    t_ref = t_raw * REFERENCE_LOOP_MS / loop_ms

where ``loop_ms`` is the mean of the probes just before and just after the
operation.  Over ten 40 s runs per workload the scaled times spread 2.5-8.6%
(quartile distance over median) where the raw ones spread 10-26%.  Raw times
are reported next to them.
"""

from __future__ import annotations

import time

LOOP_ITERATIONS = 10_000
# The loop's time on the development machine above (Python 3.11.7) ranges
# 0.57-1.3 ms with a median of ~0.77 ms; the constant only fixes the unit.
REFERENCE_LOOP_MS = 0.75


def _loop(n: int) -> float:
    x, y = 0.0, 1.0
    for _ in range(n):
        x = x * 0.999 + y * 1e-3
        y = y - x * 1e-4
    return x


def loop_ms() -> float:
    """Current time of the reference loop [ms]: best of three, so one interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _loop(LOOP_ITERATIONS)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def factor(before_ms: float, after_ms: float) -> float:
    """Scale from raw time to reference-speed time for an interval between two probes."""
    return REFERENCE_LOOP_MS / (0.5 * (before_ms + after_ms))
