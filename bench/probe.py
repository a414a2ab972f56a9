"""A fixed reference computation that gauges the host's current speed.

The benchmark shares a host whose speed drifts by up to twofold in phases of
tens of seconds: the same command's user CPU time moves with wall time, so the
drift is in how fast the core runs, not in scheduling.  A 60 s run cannot
average such phases away, so every op is timed against this probe, run in the
harness just before and just after it.  The probe does the kinds of work the
perigee commands do (decimal output of big integers, modular powers of
200-digit integers, exact rational sums, dict and list churn) and never calls
into perigee, so a change to perigee moves the ratio and a change of host speed
moves both sides.
"""

import time
from fractions import Fraction

MODULUS = 10**200 + 357


def reference_work():
    digits = 0
    for k in range(2000, 2500):
        digits += len(str(7**k))
    x = 2
    for _ in range(1000):
        x = pow(x, 65537, MODULUS) + 1
    harmonic = Fraction(0)
    for i in range(1, 1500):
        harmonic += Fraction(1, i)
    table = {}
    for i in range(60000):
        table[i] = i * i % 1000003
    return digits, x, harmonic, sorted(table.values())[-1]


def probe_s():
    """Wall seconds the reference computation takes right now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
