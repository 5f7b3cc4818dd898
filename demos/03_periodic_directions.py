"""Counting the periodic trajectories through a fixed interior point.

For each period n the directions at p whose orbit closes after n bounces
form a finite set D(n).  Each level k/n of the Betti coordinate beta2 is
inverted once for its caustic, whose two tangent lines through p are
written down in closed form and certified by re-simulation.  The count
grows linearly with a slope set by the extreme caustics visible from p.
"""

import numpy as np

from caustica.conics import Ellipse
from caustica.orbits import (branch_intervals, caustic_extrema,
                             count_periodic, find_periodic_directions,
                             predicted_count)

e = Ellipse(0.6)
p = (0.2, 0.3)

ext = caustic_extrema(e, p)
print(f"caustics through p: s in [{ext.m:.6f}, {ext.M:.6f}]")
print(f"trace identity M + m - c^2 - |p|^2 = "
      f"{ext.M + ext.m - e.c2 - p[0] ** 2 - p[1] ** 2:.2e}")

print("\ndirection circle split by the focal lines:")
for lo, hi, kind in branch_intervals(e, p):
    print(f"  [{lo:7.4f}, {hi:7.4f}]  {kind.value}")

# Certified directions for a short period.
for d in find_periodic_directions(e, p, 3):
    print(f"\nperiod {d.period}: direction ({d.direction[0]:+.6f}, "
          f"{d.direction[1]:+.6f})")
    print(f"  caustic s = {d.caustic.s:.8f} ({d.caustic.kind.value}), "
          f"closure error {d.closure_error:.1e}")

# The counts against the predicted linear growth, odd periods only: even
# periods are counted once per orientation and grow twice as fast.
print("\n  n  D(n)  predicted")
odd_n, odd_D = [], []
for n in range(3, 32):
    D = count_periodic(e, p, n).total
    print(f"{n:3d}  {D:4d}  {predicted_count(e, p, n):9.3f}")
    if n % 2:
        odd_n.append(n)
        odd_D.append(D)
slope = np.polyfit(odd_n, odd_D, 1)[0]
print(f"\nodd-period LSQ slope {slope:.4f} vs "
      f"c_o = {predicted_count(e, p, 31) / 31.0:.4f}")
