"""Geometry of the elliptical billiard with confocal caustics.

The table is the ellipse C: x^2 + y^2/(1 - c^2) = 1 with foci (+-c, 0),
where 0 < c < 1.  Every chord of a billiard trajectory is tangent to one
fixed member of the confocal family

    C_s:  x^2/s + y^2/(s - c^2) = 1,

a hyperbola for 0 < s < c^2 and an ellipse for c^2 < s < 1.  A line of
slope xi through (a, b) is tangent to C_s for

    s = (c^2 + (xi*a - b)^2) / (xi^2 + 1),

and a line written t*x + u*y = 1 is tangent to C_s exactly when
s*t^2 + (s - c^2)*u^2 = 1 (the dual conic).  This module implements the
reflection law, the billiard map, trajectory simulation, the tangency
invariant (1 - c^2)*x*v1 + y*v2, and the invariant boundary density in
the rational parameter z = y/(x - 1), normalized in closed form through
Carlson's R_F.

There are two bounce kernels, equal bit for bit: the scalar _step on
floats, and advance_batch, one step for k shots held in numpy arrays.
advance_batch returns every row exactly as _step would, grazing and
missing rows unchanged, lets no numpy warning escape and raises
ValueError when a moving row lands off the boundary.  Its cost is
numpy's fixed per-call overhead, so it is written as a lean sequence of
augmented operations with its masks only on batches that need them.
"""

import enum
import itertools
import math
from typing import NamedTuple

import numpy as np

# Below this squared-distance threshold the two intersection roots are
# considered equal and the chord is treated as tangent to the boundary.
TANGENCY_EPS = 1e-12

# Relative tolerance used to classify nearly degenerate caustics.
DEGENERACY_RTOL = 1e-9

# Largest boundary residual of a point taken to lie on the boundary.
_REFLECT_TOL = 1e-9

# Rows walked through advance_batch at once (a few MB of state); a
# larger batch is walked block by block.
_BAND_ROWS = 1 << 16


class CausticKind(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"
    DEGENERATE_FOCAL = "focal"
    DEGENERATE_BOUNDARY = "boundary"
    DEGENERATE_CENTER = "center"


class _Focal(NamedTuple):
    c: float


class Ellipse(_Focal):
    """Billiard table x^2 + y^2/(1-c^2) = 1 with focal parameter c."""

    __slots__ = ()  # no instance __dict__: no attribute can be set

    def __new__(cls, c):
        if not 0.0 < c < 1.0:
            raise ValueError("focal parameter must satisfy 0 < c < 1")
        # A Python float, so that a numpy float32 c does not make the
        # library compute in float32.
        return super().__new__(cls, float(c))

    @property
    def c2(self):
        return self.c * self.c

    @property
    def b2(self):
        """Square of the semi-minor axis, 1 - c^2."""
        return 1.0 - self.c * self.c

    @property
    def foci(self):
        return (self.c, 0.0), (-self.c, 0.0)

    def boundary_residual(self, x, y):
        return x * x + y * y / self.b2 - 1.0

    def boundary_point(self, theta):
        """Point (cos theta, sqrt(1-c^2) sin theta) on the boundary."""
        return math.cos(theta), math.sqrt(self.b2) * math.sin(theta)


def _require_boundary(e, p, message):
    """ValueError(message) unless the point p lies within _REFLECT_TOL
    (1e-9) of the boundary; a NaN coordinate lies off it."""
    if not abs(e.boundary_residual(p[0], p[1])) <= _REFLECT_TOL:
        raise ValueError(message)


class CausticParam(NamedTuple):
    s: float
    kind: CausticKind

    @property
    def is_degenerate(self):
        return self.kind not in (CausticKind.HYPERBOLIC, CausticKind.ELLIPTIC)


def classify_caustic(e, s):
    """CausticParam for a confocal parameter s; s within the relative
    tolerance DEGENERACY_RTOL (1e-9) of c^2, 1 or 0 is degenerate."""
    c2 = e.c2
    if abs(s - c2) < DEGENERACY_RTOL * c2:
        return CausticParam(s, CausticKind.DEGENERATE_FOCAL)
    if abs(s - 1.0) < DEGENERACY_RTOL:
        return CausticParam(s, CausticKind.DEGENERATE_BOUNDARY)
    if abs(s) < DEGENERACY_RTOL:
        return CausticParam(s, CausticKind.DEGENERATE_CENTER)
    if 0.0 < s < c2:
        return CausticParam(s, CausticKind.HYPERBOLIC)
    if c2 < s < 1.0:
        return CausticParam(s, CausticKind.ELLIPTIC)
    raise ValueError(f"confocal parameter s={s} outside [0, 1]")


class PhasePoint(NamedTuple):
    """Point of the closed table plus unit direction: a bounce state on
    the boundary, or a Shot, a start anywhere in the table."""

    x: float
    y: float
    vx: float
    vy: float

    @property
    def p(self):
        return self.x, self.y

    @property
    def v(self):
        return self.vx, self.vy

    def reversed(self):
        return PhasePoint(self.x, self.y, -self.vx, -self.vy)


Shot = PhasePoint


class Trajectory:
    """The points of an orbit and the caustic of its first chord; len,
    iteration and indexing read the points."""

    __slots__ = ("points", "caustic")

    def __init__(self, points, caustic):
        self.points = points
        self.caustic = caustic

    def __repr__(self):
        return f"Trajectory(points={self.points!r}, caustic={self.caustic!r})"

    def __eq__(self, other):  # with no __hash__: unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.caustic) == (other.points, other.caustic)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


def slope_of(vx, vy):
    """Slope of a direction, with math.inf for vertical."""
    if vx == 0.0:
        return math.inf
    return vy / vx


def unit(vx, vy):
    n = math.hypot(vx, vy)
    return vx / n, vy / n


def caustic_of_line(e, p, slope):
    """Caustic parameter of the line of given slope through p.

    s = (c^2 + (xi*a - b)^2)/(xi^2 + 1); vertical lines are the
    projective limit s = a^2.
    """
    a, b = p
    if math.isinf(slope):
        s = a * a
    else:
        d = slope * a - b
        s = (e.c2 + d * d) / (slope * slope + 1.0)
    return classify_caustic(e, s)


def reflect(e, q, v_in):
    """Specular reflection of v_in at boundary point q, which must lie
    within _REFLECT_TOL (1e-9) of the boundary."""
    _require_boundary(e, q, "reflection point off the boundary")
    x, y = q
    nx, ny = x, y / e.b2
    nn = nx * nx + ny * ny
    d = (v_in[0] * nx + v_in[1] * ny) / nn
    return v_in[0] - 2.0 * d * nx, v_in[1] - 2.0 * d * ny


def _step(b2, x, y, vx, vy):
    """One bounce from (x, y) along the unit direction (vx, vy) on the
    table with squared semi-minor axis b2: the next boundary point and
    the reflected direction, as floats.

    The exit parameter t > 0 is the root of the chord quadratic ahead of
    the current point: a point on the boundary has one root near 0,
    excluded by the tangency threshold, an interior one has a root of
    each sign.  A tangent (grazing) shot, or one with no root ahead,
    returns its state unchanged.  advance_batch computes these same
    floats for a whole batch (its reorderings are exact), so both agree
    bit for bit.
    """
    A = vx * vx + vy * vy / b2
    B = 2.0 * (x * vx + y * vy / b2)
    C = x * x + y * y / b2 - 1.0
    disc = B * B - 4.0 * A * C
    if disc <= 0.0:
        return x, y, vx, vy
    sq = math.sqrt(disc)
    # Stable pair of roots: the subtraction-free one first, its partner
    # from the product of roots; |t1| >= sq / (2A) > 0.
    if B >= 0.0:
        t1 = (-B - sq) / (2.0 * A)
    else:
        t1 = (-B + sq) / (2.0 * A)
    t2 = C / (A * t1)
    if t1 > TANGENCY_EPS:
        t = min(t1, t2) if t2 > TANGENCY_EPS else t1
    elif t2 > TANGENCY_EPS:
        t = t2
    else:
        return x, y, vx, vy
    # Radial projection controls drift off the boundary.
    px = x + t * vx
    py = y + t * vy
    r = math.sqrt(px * px + py * py / b2)
    qx = px / r
    qy = py / r
    if abs(qx * qx + qy * qy / b2 - 1.0) > _REFLECT_TOL:
        raise ValueError("reflection point off the boundary")
    ny = qy / b2
    d = (vx * qx + vy * ny) / (qx * qx + ny * ny)
    wx = vx - 2.0 * d * qx
    wy = vy - 2.0 * d * ny
    # sqrt of the sum of squares, not hypot: np.hypot and math.hypot
    # differ in the last bit, and the batched step must match this one.
    n = math.sqrt(wx * wx + wy * wy)
    return qx, qy, wx / n, wy / n


def advance_batch(e, x, y, vx, vy):
    """_step on float arrays of k shots at once.

    Row i of the result is bit for bit _step from (x[i], y[i], vx[i],
    vy[i]); grazing and missing rows come back unchanged, no numpy
    warning escapes, and ValueError is raised if any moving row lands
    off the boundary.

    A step costs about one numpy call per operation of _step whatever
    k is, so the kernel keeps the calls few: augmented operators in
    place of temporaries, no np.errstate (the arithmetic is kept finite
    instead), three reductions that check that every row is an ordinary
    one, and the np.where masks only for a batch holding a grazing,
    missing or outside row.  Each float is the one _step computes: the
    reorderings below are exact (a + b = b + a, -(a + b) = -a - b and
    (-a) / b = a / (-b) in IEEE arithmetic).
    """
    if not x.size:
        return x, y, vx, vy
    b2 = e.b2
    A = vx * vx
    A += vy * vy / b2
    B = x * vx
    B += y * vy / b2
    B *= 2.0
    C = x * x
    C += y * y / b2
    C -= 1.0
    disc = B * B
    disc -= 4.0 * A * C
    real = None
    if not disc.min() > 0.0:
        # Rows without two real roots stay put; a stand-in discriminant
        # keeps their arithmetic finite and quiet.
        real = disc > 0.0
        disc = np.where(real, disc, 1.0)
    # t1 = (-B -+ sq) / (2A), the root without cancellation, written
    # (B +- sq) / (-2A); sq takes the sign of B, with B = -0.0 counted
    # as positive (B + 0.0 is +0.0) as in _step's B >= 0.0.  |t1| >= sq /
    # (2A) > 0, so t2 needs no zero guard.
    t1 = np.copysign(np.sqrt(disc), B + 0.0)
    t1 += B
    t1 /= -2.0 * A
    t2 = C / (A * t1)
    # _step's choice of root: the smaller if both lie ahead, else the
    # one ahead, else none (the row stays put).
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    t = np.where(lo > TANGENCY_EPS, lo, hi) if lo.max() > TANGENCY_EPS else hi
    moving = None  # every row moves
    if real is not None or not hi.min() > TANGENCY_EPS:
        moving = hi > TANGENCY_EPS
        if real is not None:
            moving &= real
        t *= moving
    # Radial projection controls drift off the boundary.
    qx = t * vx
    qx += x
    qy = t * vy
    qy += y
    r = qx * qx
    r += qy * qy / b2
    r = np.sqrt(r)
    qx /= r
    qy /= r
    qx2 = qx * qx
    res = qy * qy / b2
    res += qx2
    res -= 1.0
    if moving is None:
        off = np.abs(res).max() > _REFLECT_TOL
    else:
        off = (moving & (np.abs(res) > _REFLECT_TOL)).any()
    if off:
        raise ValueError("reflection point off the boundary")
    ny = qy / b2
    d = vx * qx
    d += vy * ny
    qx2 += ny * ny
    d /= qx2
    d += d
    wx = vx - d * qx
    wy = vy - d * ny
    n = wx * wx
    n += wy * wy
    n = np.sqrt(n)
    wx /= n
    wy /= n
    if moving is None:
        return qx, qy, wx, wy
    return (np.where(moving, qx, x), np.where(moving, qy, y),
            np.where(moving, wx, vx), np.where(moving, wy, vy))


def _require_entry(e, x):
    """ValueError unless the first step from the state x moves it: _step
    leaves a state in place only when no root of its chord quadratic
    lies ahead, as for a boundary start pointing out of the table or
    along its tangent."""
    if _step(e.b2, *x) == x:
        raise ValueError("shot never enters the table")


def _walk(e, x, y, vx, vy, n):
    """The n states (x, y, vx, vy) that n billiard steps from (x, y)
    along the unit (vx, vy) pass through, as float tuples: the one
    scalar multi-bounce loop for callers that read the states."""
    b2 = e.b2
    out = []
    for _ in range(n):
        x, y, vx, vy = _step(b2, x, y, vx, vy)
        out.append((x, y, vx, vy))
    return out


def advance(e, x):
    """One step of the billiard map: the PhasePoint at the next bounce
    of a boundary PhasePoint, or at the first boundary hit of a Shot
    (the same record) from an interior point (first_hit is this same
    function).

    The next point is the root of the chord quadratic distinct from the
    current one; a tangent shot returns the same point unchanged.
    """
    return PhasePoint(*_step(e.b2, *x))


first_hit = advance


def simulate(e, sh, n):
    """Trajectory of n bounces from a start in the closed table (its
    boundary residual at most _REFLECT_TOL) that enters it
    (_require_entry); focal shots are tagged, not rejected."""
    if n < 1:
        raise ValueError("need at least one bounce")
    if not e.boundary_residual(*sh.p) <= _REFLECT_TOL:  # NaN included
        raise ValueError("shot starts outside the table")
    # Rejects a zero, an infinite or a NaN direction, and one too short
    # to square: each would leave every bounce at the start.
    if not 0.0 < sh.vx * sh.vx + sh.vy * sh.vy < math.inf:
        raise ValueError("shot direction must be nonzero and finite")
    _require_entry(e, sh)
    caustic = caustic_of_line(e, sh.p, slope_of(*sh.v))
    pts = [PhasePoint(*st) for st in _walk(e, *sh, n)]
    return Trajectory(pts, caustic)


def phase_invariant(e, x):
    """(1 - c^2) x v1 + y v2; its square equals (1-c^2)(1-s)."""
    return e.b2 * x.x * x.vx + x.y * x.vy


def tangential(e, x, y, vx, vy):
    """Tangential component tau = (1 - c^2) x vy - y vx of the direction
    (vx, vy) at the boundary point (x, y); floats or arrays alike."""
    return e.b2 * x * vy - y * vx


def z_of_point(x, y):
    """Rational boundary parameter z = y/(x - 1); (1,0) maps to inf."""
    if x == 1.0:
        return math.inf
    return y / (x - 1.0)


def _density_roots(e, s):
    """The two squared zeros A < B of the measure radicand, y0^2/(x0 +- 1)^2,
    from the points (+-x0, +-y0) where C meets C_s: x0^2 = s/c^2 and
    y0^2 = (1-c^2)(c^2-s)/c^2 (negative for an elliptic caustic)."""
    c2 = e.c2
    x0 = math.sqrt(s) / e.c
    y0sq = e.b2 * (c2 - s) / c2
    A = y0sq / ((x0 + 1.0) ** 2)
    B = y0sq / ((x0 - 1.0) ** 2)
    return A, B


def invariant_density(e, s, z):
    """Invariant boundary density in the parameter z, arc-normalized.

    rho(z) = |(z^2 - y0^2/(x0+1)^2)(z^2 - y0^2/(x0-1)^2)|^(-1/2) / Z with
    Z chosen so the admissible arc(s) carry total measure 1: z^2 in
    (A, B) for a hyperbolic caustic (A > 0, two arcs), all of R for an
    elliptic one (A, B < 0), and Z = 2 R_F(0, |A|, |B|) on both.
    """
    A, B = _density_roots(e, float(s))
    r = (z * z - A) * (z * z - B)
    if abs(r) < 1e-30:
        raise ValueError("z at a singular endpoint of the invariant measure")
    from scipy.special.cython_special import elliprf

    return 1.0 / (math.sqrt(abs(r)) * 2.0 * elliprf(0.0, abs(A), abs(B)))


def inward(e, p, slope):
    """Unit direction of given slope at boundary point p, oriented inward."""
    if math.isinf(slope):
        vx, vy = 0.0, 1.0
    else:
        vx, vy = unit(1.0, slope)
    g = p[0] * vx + p[1] * vy / e.b2
    if g > 0.0:
        vx, vy = -vx, -vy
    return vx, vy


def caustic_phase_points(e, s, thetas):
    """caustic_phase_point at every boundary angle of thetas, as four
    float arrays (x, y, vx, vy); ValueError if the caustic is not
    reachable from some of the points.  Row i is bit for bit
    caustic_phase_point(e, s, thetas[i]) (_tangent_rows)."""
    x, y, vx, vy = rows = _tangent_rows(e, s, thetas)
    if x.size < len(thetas):
        raise ValueError("caustic not reachable from this boundary point")
    return rows


def caustic_phase_point(e, s, theta):
    """PhasePoint at boundary angle theta tangent to the caustic s: the
    one-row case of caustic_phase_points.

    The two tangents at p are mirror images in the normal, so their
    tangential components tau = (1-c^2) x v2 - y v1 are opposite; the
    one returned has tau < 0, moving clockwise along the boundary.  On
    an elliptic caustic this puts the caustic to the right of the motion
    (p x v < 0), so the induced circle map rotates clockwise (the other
    tangent generates the inverse map).  tau vanishes only where the two
    tangents merge, at the ends of a reachable arc of a hyperbolic
    caustic, so the rule holds on both kinds of caustic and never flips
    inside a reachable arc.
    """
    x, y, vx, vy = caustic_phase_points(e, s, [theta])
    return PhasePoint(float(x[0]), float(y[0]), float(vx[0]), float(vy[0]))


def _tangent_rows(e, s, thetas):
    """(x, y, vx, vy) of caustic_phase_points for the leading rows of
    thetas from which the caustic s is reachable: the arrays stop
    before the first row that is not.

    Each row computes the floats of boundary_point, the slopes xi of the
    tangency quadratic qa xi^2 + qb xi + qc = (s - a^2) xi^2 + 2 a b xi
    + (s - b^2 - c^2) = 0 at the point (a, b), inward and the choice of
    tau < 0, in that order: the point and unit(1, slope) through
    math.cos, math.sin and math.hypot (np.hypot differs in the last
    bit), the vertical tangent where |qa| < 1e-14, and the second
    tangent only where its tau is strictly smaller (the first one wins a
    tie, as in min).  Both tangents of a row are made at once, the first
    ones in rows 0..k-1 and the second ones in rows k..2k-1; masked rows
    get stand-in values that keep the arithmetic finite and quiet.
    """
    thetas = [float(th) for th in thetas]
    k = len(thetas)
    x = np.fromiter(map(math.cos, thetas), float, k)
    y = np.fromiter(map(math.sin, thetas), float, k)
    y *= math.sqrt(e.b2)
    qa = s - x * x
    qb = 2.0 * x * y
    qc = s - y * y - e.c2
    vertical = np.abs(qa) < 1e-14
    disc = qb * qb - 4.0 * qa * qc
    unreachable = np.flatnonzero(~vertical & (disc < 0.0))
    if unreachable.size:
        k = unreachable[0]
        x, y, qa, qb, qc, vertical, disc = (
            a[:k] for a in (x, y, qa, qb, qc, vertical, disc))
    # Slopes (-qb +- sq) / (2 qa); on a vertical row the first tangent
    # is vertical and the second, if |qb| > 1e-14, has slope -qc / qb.
    sq = np.sqrt(np.where(vertical, 0.0, disc))
    den = np.where(vertical, 1.0, 2.0 * qa)
    second = np.abs(qb) > 1e-14
    slopes = np.concatenate((
        (-qb + sq) / den,
        np.where(vertical, -qc / np.where(vertical & second, qb, 1.0),
                 (-qb - sq) / den)))
    second |= ~vertical
    up = np.concatenate((vertical, np.zeros(k, dtype=bool)))
    h = np.fromiter(map(math.hypot, itertools.repeat(1.0), slopes.tolist()),
                    float, 2 * k)
    vx = np.where(up, 0.0, 1.0 / h)
    vy = np.where(up, 1.0, slopes / h)
    x2, y2 = np.concatenate((x, x)), np.concatenate((y, y))
    flip = x2 * vx + y2 * vy / e.b2 > 0.0
    vx = np.where(flip, -vx, vx)
    vy = np.where(flip, -vy, vy)
    tau = tangential(e, x2, y2, vx, vy)
    take2 = second & (tau[k:] < tau[:k])
    return (x, y, np.where(take2, vx[k:], vx[:k]),
            np.where(take2, vy[k:], vy[:k]))
