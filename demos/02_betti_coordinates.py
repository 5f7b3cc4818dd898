"""The rotation number of a caustic, computed three ways.

A caustic with parameter s corresponds to lambda = s/c^2 on a Legendre
curve, and the fraction of the boundary swept per bounce is the period
ratio beta2(lambda).  The script compares the direct quadrature, the
closed form in Carlson's R_F, and a long-run orbit average, then walks
lambda to its distinguished limits.
"""

import math

from caustica.conics import Ellipse
from caustica.periods import (BettiModel, betti_billiard, betti_scan,
                              omega2, rotation_number)

e = Ellipse(0.6)
s = 0.8
lam = s / e.c2

b_quad = betti_billiard(e, lam).beta2
b_model = BettiModel(e).beta2(lam)
b_orbit = rotation_number(e, s, 200000)
print(f"lambda = {lam:.6f}")
print(f"beta2 by quadrature   {b_quad:.10f}")
print(f"beta2 by closed form  {b_model:.10f}")
print(f"orbit average         {b_orbit:.10f}")
print(f"largest disagreement  {max(abs(b_quad - b_model), abs(b_quad - b_orbit)):.2e}")

# beta2 falls monotonically across the elliptic branch (1, 1/c^2).
lams = [1.0 + (1.0 / e.c2 - 1.0) * t / 10.0 for t in range(1, 10)]
scan = betti_scan(e, lams)
print("\nlambda -> beta2 on the elliptic branch:")
for lv, bc in zip(lams, scan):
    print(f"  {lv:8.4f}  {bc.beta2:.8f}")

# Distinguished limits at c = 1/sqrt(2): a quarter turn at lambda -> 0,
# a half turn at the focal degeneration, zero at the top of the branch.
e2 = Ellipse(1.0 / math.sqrt(2.0))
print(f"\nbeta2 near 0:          {betti_billiard(e2, 1e-9).beta2:.8f}")
print(f"beta2 near 1 (below):  {betti_billiard(e2, 1.0 - 1e-9).beta2:.8f}")
print(f"beta2 near 1 (above):  {betti_billiard(e2, 1.0 + 1e-9).beta2:.8f}")
print(f"beta2 near 1/c^2:      {betti_billiard(e2, 2.0 - 1e-9).beta2:.2e}")

# The real half period behind the denominators, in closed form (R_F).
print(f"\nomega2(1/2) = {omega2(0.5):.12f}")
