"""Order statistics, interval arithmetic and the host-speed calibration
used for the reported metrics."""

from __future__ import annotations

import math
import statistics
import time

TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
CALIBRATION_LOOPS = 20000
# best calibration time on the 2-vCPU Xeon VM the bounds were set on;
# scaled timings read as seconds on that VM when it runs uncontended
CALIBRATION_REF_S = 1.07e-3


def calibration_seconds() -> float:
    """Best of three timings of a fixed pure-Python loop.

    It does not touch the program, so a change to pushfold cannot move
    it; it moves only with how fast the host runs the benchmark.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def tail(values) -> tuple:
    """Highest percentile with at least TAIL_BEYOND values beyond it.

    Returns ``(percentile, value)``. With n values, the value is the
    (n - TAIL_BEYOND)-th smallest, so exactly TAIL_BEYOND values lie
    beyond it, and the percentile is 100 * (n - TAIL_BEYOND) / n. A
    percentile below the median is no tail: with fewer than
    2 * TAIL_BEYOND values the median is returned as percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part the child intervals cover.

    Children may overlap one another, as spans from worker threads do;
    the parts of children outside [start, end] do not count.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children if s < end and e > start]
    return (end - start) - covered(clipped)
