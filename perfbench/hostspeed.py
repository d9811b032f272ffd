"""Host-speed probes, and times calibrated to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by 2x
and more over minutes as other tenants load it, and flips between a quiet
and a contended state within seconds; a pure-Python loop and the package's
work slow down together.  So a run takes a short fixed probe before every
set-up sample and op and after the last one, and scales each of its wall
times by REF_PROBE_S / (trimmed mean probe of the run): the time it would
take on a host where the probe reads REF_PROBE_S.  The mean follows the
share of time the host spent in each state; trimming drops the odd probe
that a page fault or a preemption slowed.  The probe does no work of the
package, so a faster program lowers the calibrated time exactly as it
lowers the raw one.  Raw wall times are printed and recorded beside the
calibrated ones.
"""

from __future__ import annotations

import math
import statistics
import time

# probe() on a quiet host of the kind the benchmark was defined on (2 vCPUs
# sharing one core, Python 3.11); only a scale, chosen so that calibrated
# seconds read close to wall seconds on a quiet host
REF_PROBE_S = 0.007


def _probe_once() -> float:
    """Seconds for a fixed mix of integer arithmetic and dict churn."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
    table = {}
    for i in range(15_000):
        table[(i * 7919) % 20011] = i
        table.get((i * 104729) % 20011)
    return time.perf_counter() - t0


def probe() -> float:
    """Median of three short probes: the host's speed at this moment."""
    return statistics.median(_probe_once() for _ in range(3))


def typical_probe(probes) -> float:
    """Mean of the run's probes without the highest and lowest tenth (at
    least one of each)."""
    s = sorted(probes)
    k = max(1, len(s) // 10)
    return statistics.fmean(s[k:len(s) - k])


def calibration(probes) -> float:
    """Factor that scales a run's wall times to the reference host speed."""
    return REF_PROBE_S / typical_probe(probes)


def long_probe() -> float:
    """Seconds for a fixed pure-Python loop (best of 3), recorded with the
    environment at the start and end of each run."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best
