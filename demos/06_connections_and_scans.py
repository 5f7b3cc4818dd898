"""Shooting between two interior points, and exhaustive direction scans.

A trajectory from p1 to p2 with a prescribed number of segments is found
by maximizing its length over the boundary contact points (quasi-Newton
on the analytic gradient, then polished by Newton) and certified by the
reflection law at every bounce.  Grid scans over the direction circle
then enumerate near-return shots, trajectories threading a second point
into a boundary hole, and angle-constrained pairs of periodic
directions; every reported hit re-simulates within its tolerance.
"""

import math

import numpy as np

from caustica.conics import Ellipse, Shot, advance, first_hit
from caustica.orbits import (angle_pair_scan, boomerang_scan,
                             connecting_trajectory, find_periodic_directions,
                             hole_scan, reflection_residual, segment_caustics)

e = Ellipse(0.6)
p1, p2 = (0.1, 0.2), (-0.3, 0.1)

traj = connecting_trajectory(e, p1, p2, 12, seed=0)
verts = [(pt.x, pt.y) for pt in traj.points]
full = [p1] + verts + [p2]
res = [reflection_residual(e, full[j], full[j + 1], full[j + 2])
       for j in range(len(verts))]
print(f"12-segment connection: {len(verts)} bounces, worst reflection "
      f"residual {max(res):.1e}")
print(f"segment caustic variance {np.var(segment_caustics(e, full)):.1e} "
      f"(s = {traj.caustic.s:.8f}, {traj.caustic.kind.value})")

# Boomerangs: directions whose later segment sweeps back through the
# start point, found on a 4096-point grid and sharpened per hit.
p = (0.2, 0.3)
hits = boomerang_scan(e, p, 6, 1e-7)
print(f"\nboomerang directions with at most 6 bounces: {len(hits)}")
h = hits[0]
x = first_hit(e, Shot(p[0], p[1], h.direction[0], h.direction[1]))
for _ in range(h.bounce):
    x = advance(e, x)
nxt = advance(e, x)
dx, dy = nxt.x - x.x, nxt.y - x.y
cross = abs(dx * (p[1] - x.y) - dy * (p[0] - x.x)) / math.hypot(dx, dy)
print(f"first hit: bounce {h.bounce}, kind {h.kind}, re-simulated miss "
      f"{cross:.1e}")

# Hole shots: through p1, then p2, ending within tol of a boundary hole.
hole = (1.0, 0.0)
hhits = hole_scan(e, p1, p2, hole, 8, 0.05)
print(f"\nhole shots (m-th segment through p2, bounce n near the hole): "
      f"{len(hhits)}")
for r in hhits[:3]:
    print(f"  m = {r.m}, n = {r.n}, misses {r.miss_p:.1e} / {r.miss_h:.2e}")

# Angle pairs: two periodic directions separated by a prescribed angle.
dirs = find_periodic_directions(e, p, 3)
angs = sorted(math.atan2(d.direction[1], d.direction[0]) % math.pi
              for d in dirs)
alpha = next(abs(a - b) for a in angs for b in angs
             if 0.2 < abs(a - b) < math.pi - 0.2)
pairs = angle_pair_scan(e, p, alpha, 6, 1e-6)
print(f"\nperiodic direction pairs at angle {alpha:.6f}: {len(pairs)}")
for pr in pairs:
    print(f"  periods ({pr.period1}, {pr.period2})")
