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

The sums at many phase points of one caustic (birkhoff_sums,
window_sums) are walked at once: the points come from
caustic_phase_points, every walk (both halves of each window) is a row
of advance_batch, and each row adds its cosines in bounce order, so
every sum is bit for bit the scalar walk's.  birkhoff_sum and
symmetric_sum are their one-row cases.

A batch is refused by its caustic, not by the angles sampled on it, and
before any row is walked: an s outside [0, 1] first; then, if the first
row is reachable, a bad size and a degenerate s (classify_caustic(e, s));
then the first row from which the caustic is not reachable.  A single
phase point is refused by the caustic of its chord (caustic_of_line),
a window centre also off the boundary, and then a point from which the
walk never moves: one pointing out of the table or along its tangent.
"""

import math
from typing import NamedTuple

import numpy as np

from .conics import (_BAND_ROWS, _require_boundary, _require_entry,
                     _tangent_rows, advance_batch, caustic_of_line,
                     classify_caustic, slope_of)
from .periods import BettiModel

# Distance of n*beta2 from the integers below which a caustic is
# treated as periodic of order dividing n (the window sum degenerates
# to a constant there).
PERIOD_GUARD = 1e-6


class MoebiusFit(NamedTuple):
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
    _require_boundary(e, p, "h_weight needs a boundary point")
    return 1.0 / (1.0 - e.c2 * p[0] * p[0])


def birkhoff_sum(e, start, n):
    """Sum of cos alpha_i over the first n bounces from the boundary
    phase point start; alpha_i is the angle between consecutive segment
    directions at bounce i.  The one-row case of birkhoff_sums, refused
    by the caustic of the start's chord, then by a start whose first
    step leaves it in place (_require_entry)."""
    _check_plain(n, lambda: _chord_caustic(e, start))
    _require_entry(e, start)
    return float(_cos_sums(e, *_one_row(start), n)[0])


def symmetric_sum(e, center, m):
    """Window sum of cos alpha_i for i = -m..m centered at the bounce
    of the boundary phase point center (2m+1 cosines in total).

    With v the outgoing and u = reflect(v) the incoming direction at the
    centre, the sum is u.v plus the m cosines ahead, walked from
    (p, v), plus the m behind, walked forward from the reversed state
    (p, -u): reversal keeps the angle at every bounce.  The one-row
    case of window_sums, refused by the caustic of the centre's chord,
    then by a centre off the boundary, then by one whose first step
    leaves it in place (_require_entry)."""
    _check_window(m, lambda: _chord_caustic(e, center))
    _require_boundary(e, center.p, "reflection point off the boundary")
    _require_entry(e, center)
    return float(_window_sums(e, *_one_row(center), m)[0])


def birkhoff_sums(e, s, thetas, n):
    """birkhoff_sum at caustic_phase_point(e, s, theta) for every theta
    of thetas, as a list of floats, all rows walked at once.  A batch is
    refused by s, as _on_caustic sets out."""
    return _on_caustic(e, s, thetas, _check_plain, _cos_sums, n)


def window_sums(e, s, thetas, m):
    """symmetric_sum at caustic_phase_point(e, s, theta) for every theta
    of thetas, as birkhoff_sums gives birkhoff_sum."""
    return _on_caustic(e, s, thetas, _check_window, _window_sums, m)


def _on_caustic(e, s, thetas, check, sums, n):
    # The refusals, before any row is walked: s outside [0, 1]; then,
    # if the leading row is reachable, a bad size and a degenerate s;
    # then the first unreachable row.
    caustic = classify_caustic(e, s)
    rows = _tangent_rows(e, s, thetas)
    k = rows[0].size
    if k:
        check(n, lambda: caustic)
    if k < len(thetas):
        raise ValueError("caustic not reachable from this boundary point")
    return sums(e, *rows, n).tolist()


def _check_plain(n, caustic):
    # caustic makes the CausticParam, so a bad size comes first.
    if n < 1:
        raise ValueError("need at least one bounce")
    if caustic().is_degenerate:
        raise ValueError("Birkhoff sum undefined on a degenerate caustic")


def _check_window(m, caustic):
    if m < 0:
        raise ValueError("window half-width must be >= 0")
    if caustic().is_degenerate:
        raise ValueError("window sum undefined on a degenerate caustic")


def _chord_caustic(e, x):
    return caustic_of_line(e, x.p, slope_of(*x.v))


def _one_row(x):
    return [np.array([v], dtype=float) for v in x]


def _window_sums(e, x, y, vx, vy, m):
    # reflect on every row: v - (2d) n with d = v.n / n.n, n = (x, y/b2).
    ny = y / e.b2
    d = vx * x + vy * ny
    d /= x * x + ny * ny
    d *= 2.0
    ux = vx - d * x
    uy = vy - d * ny
    k = x.size
    sums = _cos_sums(e, np.concatenate((x, x)), np.concatenate((y, y)),
                     np.concatenate((vx, -ux)), np.concatenate((vy, -uy)), m)
    return ux * vx + uy * vy + sums[:k] + sums[k:]


def _cos_sums(e, x, y, vx, vy, n):
    """Sum of v_{i-1}.v_i over the n bounces from each row (x, y, vx,
    vy), with v_0 = (vx, vy) and v_i the direction after bounce i,
    added in bounce order.  The rows step together through
    advance_batch, at most _BAND_ROWS at a time, so each sum is bit for
    bit the one of the scalar walk _walk."""
    out = np.zeros(x.size)
    for lo in range(0, x.size, _BAND_ROWS):
        hi = lo + _BAND_ROWS
        bx, by, bvx, bvy = x[lo:hi], y[lo:hi], vx[lo:hi], vy[lo:hi]
        total = out[lo:hi]
        for _ in range(n):
            bx, by, wx, wy = advance_batch(e, bx, by, bvx, bvy)
            cos = bvx * wx
            cos += bvy * wy
            total += cos
            bvx, bvy = wx, wy
    return out


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
    ts = [math.cos(th) ** 2 for th in thetas]
    hs = window_sums(e, s, thetas, m)
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
    semi-ellipse.

    The count is defined for values strictly between the extreme window
    sums.  An extreme value, attained at a vertex, has no sign change
    around it, so its count follows rounding: at c = 0.6, s = 0.62,
    n = 7, the window sum at the first node (x ~ +1) counts 1, and its
    value at the last node (x ~ -1), 3.6e-15 away, counts 2.  A NaN or
    infinite value is refused."""
    if n < 1 or n % 2 == 0:
        raise ValueError("window length n must be odd")
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    _check_not_periodic(e, s, n)
    m = (n - 1) // 2
    grid = 1024
    thetas = np.linspace(0.0, math.pi, grid + 1)
    # Open the interval slightly: the vertices are extremal points.
    thetas[0] = 1e-9
    thetas[-1] = math.pi - 1e-9
    vals = np.array(window_sums(e, s, thetas, m)) - value
    # An overflowing product is inf, with no warning; a zero's product
    # is 0.0, not negative, so no node counts twice.
    with np.errstate(over="ignore"):
        changes = vals[:-1] * vals[1:] < 0.0
    return int(np.count_nonzero(vals == 0.0) + np.count_nonzero(changes))
