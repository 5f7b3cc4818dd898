"""Reference loop that tracks how fast this CPU runs Python right now.

Shared 2-vCPU machines drift between speed states for seconds to minutes
(the same pass of jobs took 4.6 s to 6.6 s within four minutes on an
Intel Xeon VM).  The benchmark times this loop just before every job and
reports the job's time scaled by REFERENCE_S / (loop time): seconds on a
CPU that runs the loop in REFERENCE_S.  The loop does the kinds of work
the program's hot paths do and shares no code with the program, so a
change to the program cannot change it (see README.md for the measured
effect on run-to-run spread).
"""

import math
import time
from collections import namedtuple
from fractions import Fraction

# About the loop's uncontended time on the machine the benchmark was
# defined on, so scaled figures stay close to wall-clock seconds.
REFERENCE_S = 0.0025

_Pt = namedtuple("_Pt", "x y vx vy")


def reference_seconds():
    """Time of a fixed mix of the program's kinds of work: small records
    with float arithmetic (the bounce code), rational arithmetic (dml)
    and dict and list traffic."""
    t0 = time.perf_counter()
    p = _Pt(0.3, 0.2, 0.6, 0.8)
    for _ in range(1500):
        d = p.x * p.vx + p.y * p.vy
        n = math.hypot(p.vx - d, p.vy + d)
        p = _Pt((p.y + 0.1) % 0.9, (p.x * 0.7) % 0.8, (p.vy - d) / n, (p.vx + d) / n)
    a, b = Fraction(3, 7), Fraction(5, 11)
    for i in range(70):
        a = (a * b + Fraction(i, 13)) / (b + 1)
        if a.denominator.bit_length() > 200:
            a = Fraction(3, 7)
    counts, rows = {}, []
    for i in range(1000):
        k = i * 7 % 257
        counts[k] = counts.get(k, 0) + 1
        rows.append([i, i * 0.5])
    return time.perf_counter() - t0


def scaled(seconds, reference):
    """A measured time in reference-CPU seconds."""
    return seconds * REFERENCE_S / reference
