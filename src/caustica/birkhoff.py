"""Cosine Birkhoff sums along billiard orbits and their structure.

For an orbit with bounce points p_i let alpha_i be the angle between
the incoming and outgoing direction vectors at p_i (a retraced chord
gives alpha = pi, cos = -1).  On a caustic with rational rotation
number n beta2 in Z the sum of cos alpha_i over a period is the same
for every starting point; on a non-periodic caustic it is not, and the
symmetrized window sum

    H1(p) = sum_{i=-m}^{m} cos alpha_i,   n = 2m + 1,

centered at p = (x, y) depends on x only through x^2 and is a Moebius
function of t = x^2: H1 = (a t + b)/(c t + d).  Its extremes sit at
the vertices x in {0, +-1} and no interior value is attained more than
twice per semi-ellipse.  The weight h(p) = 1/(1 - c^2 x^2) is the
natural boundary density entering the same analysis.

The billiard map is reversible: the orbit through (p, -u), with u the
incoming direction at p, retraces the bounces before p backwards and
meets the same angle at each of them.  So the window is the centre
cosine u.v plus two forward walks of m bounces, one from (p, v) and one
from (p, -u); no inverse step is needed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .conics import (_REFLECT_TOL, _walk, caustic_of_line,
                     caustic_phase_point, reflect, slope_of)
from .periods import BettiModel

# Distance of n*beta2 from the integers below which a caustic is
# treated as periodic of order dividing n (the window sum degenerates
# to a constant there).
PERIOD_GUARD = 1e-6


@dataclass(frozen=True)
class MoebiusFit:
    a: float
    b: float
    c: float
    d: float
    residual: float

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def __call__(self, t):
        return (self.a * t + self.b) / (self.c * t + self.d)


def h_weight(e, p):
    """Boundary weight h(p) = 1/(1 - c^2 x^2)."""
    x, y = p
    if abs(e.boundary_residual(x, y)) > _REFLECT_TOL:
        raise ValueError("h_weight needs a boundary point")
    return 1.0 / (1.0 - e.c2 * x * x)


def _cos_sum(e, x, y, vx, vy, n):
    """Sum of v_{i-1}.v_i over the n bounces from (x, y) along (vx, vy),
    with v_0 = (vx, vy) and v_i the direction after bounce i."""
    total = 0.0
    for _, _, wx, wy in _walk(e, x, y, vx, vy, n):
        total += vx * wx + vy * wy
        vx, vy = wx, wy
    return total


def birkhoff_sum(e, start, n):
    """Sum of cos alpha_i over the first n bounces from the boundary
    phase point start; alpha_i is the angle between consecutive segment
    directions at bounce i."""
    if n < 1:
        raise ValueError("need at least one bounce")
    cp = caustic_of_line(e, start.p, slope_of(start.vx, start.vy))
    if cp.is_degenerate:
        raise ValueError("Birkhoff sum undefined on a degenerate caustic")
    return _cos_sum(e, start.x, start.y, start.vx, start.vy, n)


def symmetric_sum(e, center, m):
    """Window sum of cos alpha_i for i = -m..m centered at the bounce
    of the boundary phase point center (2m+1 cosines in total).

    With v the outgoing and u = reflect(v) the incoming direction at the
    centre, the sum is u.v plus the m cosines ahead, walked from
    (p, v), plus the m behind, walked forward from the reversed state
    (p, -u): reversal keeps the angle at every bounce."""
    if m < 0:
        raise ValueError("window half-width must be >= 0")
    cp = caustic_of_line(e, center.p, slope_of(center.vx, center.vy))
    if cp.is_degenerate:
        raise ValueError("window sum undefined on a degenerate caustic")
    x, y, vx, vy = center.x, center.y, center.vx, center.vy
    ux, uy = reflect(e, (x, y), (vx, vy))
    return (ux * vx + uy * vy + _cos_sum(e, x, y, vx, vy, m)
            + _cos_sum(e, x, y, -ux, -uy, m))


def _window_value(e, sv, theta, m):
    """H1 at the boundary point of angle theta on caustic sv."""
    return symmetric_sum(e, caustic_phase_point(e, sv, theta), m)


def _check_not_periodic(e, sv, n):
    beta = BettiModel(e).beta2(sv / e.c2)
    frac = abs(n * beta - round(n * beta))
    if frac < PERIOD_GUARD:
        raise ValueError("caustic is periodic of order dividing n; "
                         "the window sum degenerates to a constant")


def moebius_fit(e, s, n, samples=20):
    """Moebius model of the window sum on a non-periodic caustic.

    Samples (t, H1) with t = x^2 along the upper semi-ellipse, solves
    (a t + b)/(c t + d) = H1 from four spread samples (null vector of
    the homogeneous 4x4 system) and reports the maximum deviation over
    the remaining samples; coefficients are normalized to unit norm.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("window length n must be odd and >= 3")
    if samples < 5:
        raise ValueError("need at least 5 samples")
    _check_not_periodic(e, s, n)
    m = (n - 1) // 2
    thetas = [math.pi * (j + 0.5) / samples for j in range(samples)]
    ts, hs = [], []
    for th in thetas:
        ts.append(math.cos(th) ** 2)
        hs.append(_window_value(e, s, th, m))
    if max(hs) - min(hs) < 1e-12:
        raise ValueError("window sum is constant; degenerate fit")
    pick = [0, samples // 4, samples // 2, (3 * samples) // 4]
    rows = [[ts[j], 1.0, -hs[j] * ts[j], -hs[j]] for j in pick]
    _, _, vt = np.linalg.svd(np.array(rows))
    a, b, c, d = vt[-1]
    rest = [j for j in range(samples) if j not in pick]
    res = max(abs((a * ts[j] + b) / (c * ts[j] + d) - hs[j]) for j in rest)
    return MoebiusFit(float(a), float(b), float(c), float(d), float(res))


def value_multiplicity(e, s, n, value):
    """Number of boundary points per semi-ellipse where the window sum
    attains the given value, by counting sign changes (and exact zeros)
    of the window sum on a grid of 1024 theta cells over the upper
    semi-ellipse."""
    if n < 1 or n % 2 == 0:
        raise ValueError("window length n must be odd")
    _check_not_periodic(e, s, n)
    m = (n - 1) // 2
    grid = 1024
    thetas = np.linspace(0.0, math.pi, grid + 1)
    # Open the interval slightly: the vertices are extremal points.
    thetas[0] = 1e-9
    thetas[-1] = math.pi - 1e-9
    vals = [_window_value(e, s, th, m) - value for th in thetas]
    count = 0
    for j in range(grid):
        v0, v1 = vals[j], vals[j + 1]
        if v0 == 0.0:
            count += 1
        elif v0 * v1 < 0.0:
            count += 1
    if vals[-1] == 0.0:
        count += 1
    return count
