"""Legendre model of the caustic phase curve and its sections.

A caustic with parameter s turns the set of (boundary point, tangent
line) pairs into a genus-1 curve; choosing the intersection point
P4 = (-x0, -y0) of C and C_s as origin identifies it with the Legendre
curve

    L_lambda:  Y^2 = X(X - 1)(X - lambda),      lambda = s/c^2,

via the homography zeta(z) = x0 ((x0+1) z + y0) / ((x0+1) z - y0) in the
rational boundary parameter z = y/(x-1).  Under this identification one
billiard bounce is translation by the section

    B(lambda) = (h, k),  h = (1-c^2) lambda / (1 - c^2 lambda),

which differs from the constant-abscissa section (1/c^2, ...) by the
2-torsion point (lambda, 0).  This module implements the group law, the
two sections, the explicit phase-space isomorphism, and the numerical
check that the billiard map is conjugate to translation by B (the
executable form of Poncelet's theorem).
"""

import cmath
import json
import math
from dataclasses import dataclass

from .conics import (CausticParam, advance, inward, slope_of, tangent_slopes,
                     z_of_point)

# Separation below which a pair (P, Q) with P ~ -Q is treated as
# summing to the identity.
NEAR_EPS = 1e-8

# Global sign of the ordinate eta of the phase-space isomorphism, fixed
# once so that one bounce with the caustic to the right of the motion is
# translation by +B.
ETA_SIGN = -1.0


class LegendrePoint:
    """Affine point (X, Y), or the point at infinity, on a Legendre curve."""

    __slots__ = ("X", "Y", "inf")

    def __init__(self, X=None, Y=None, inf=False):
        self.inf = bool(inf)
        self.X = None if self.inf else X
        self.Y = None if self.inf else Y

    def __repr__(self):
        if self.inf:
            return "LegendrePoint(inf)"
        return f"LegendrePoint({self.X!r}, {self.Y!r})"

    def __eq__(self, other):
        if not isinstance(other, LegendrePoint):
            return NotImplemented
        if self.inf or other.inf:
            return self.inf and other.inf
        return self.X == other.X and self.Y == other.Y

    def __hash__(self):
        return hash((self.inf, self.X, self.Y))


Infinity = LegendrePoint(inf=True)


@dataclass(frozen=True)
class LegendreCurve:
    lam: complex

    def __post_init__(self):
        if self.lam == 0 or self.lam == 1:
            raise ValueError("Legendre parameter must avoid 0 and 1")

    def residual(self, P):
        """Relative failure of the curve equation at P."""
        if P.inf:
            return 0.0
        X, Y = P.X, P.Y
        rhs = X * (X - 1.0) * (X - self.lam)
        scale = max(1.0, abs(Y) ** 2, abs(X) ** 3)
        return abs(Y * Y - rhs) / scale

    def contains(self, P, tol=1e-6):
        return self.residual(P) <= tol


def lambda_of(e, s):
    """Legendre parameter lambda = s/c^2 of a nondegenerate caustic."""
    if isinstance(s, CausticParam):
        if s.kind.value in ("focal", "center"):
            raise ValueError(f"degenerate caustic ({s.kind.value}) has no Legendre model")
        sv = s.s
    else:
        sv = s
    return LegendreCurve(sv / e.c2)


def neg(P):
    if P.inf:
        return Infinity
    return LegendrePoint(P.X, -P.Y)


def _chord_third(L, P, Q, m):
    """Third intersection of the line through P, Q of slope m, negated."""
    X3 = m * m + 1.0 + L.lam - P.X - Q.X
    Y3 = m * (X3 - P.X) + P.Y
    return LegendrePoint(X3, -Y3)


def _add_raw(L, P, Q):
    if P.inf:
        return Q
    if Q.inf:
        return P
    dx = Q.X - P.X
    sy = P.Y + Q.Y
    xscale = max(1.0, abs(P.X), abs(Q.X))
    yscale = max(1.0, abs(P.Y), abs(Q.Y))
    if abs(dx) < NEAR_EPS * xscale and abs(sy) < NEAR_EPS * yscale:
        return Infinity
    # Two algebraically equal slope formulas with complementary
    # cancellation: (Y2-Y1)/(X2-X1) degrades as X2 -> X1, while the
    # conjugate form (f(X2)-f(X1))/((X2-X1)(Y1+Y2)) with the difference
    # quotient of f(X) = X(X-1)(X-lambda) taken symbolically degrades
    # only as Q -> -P.  Pick by the relatively larger denominator; at
    # P = Q the second is exactly the tangent slope.
    if abs(sy) * xscale >= abs(dx) * yscale:
        m = (P.X * P.X + P.X * Q.X + Q.X * Q.X
             - (1.0 + L.lam) * (P.X + Q.X) + L.lam) / sy
    else:
        m = (Q.Y - P.Y) / dx
    return _chord_third(L, P, Q, m)


def add(L, P, Q):
    """Chord-tangent group law with Infinity as identity."""
    for R in (P, Q):
        if not L.contains(R):
            raise ValueError(f"point off the curve (residual {L.residual(R):.3e})")
    return _add_raw(L, P, Q)


def mul(L, n, P):
    """n-fold sum of P by double-and-add; negative n through inversion."""
    if not L.contains(P):
        raise ValueError(f"point off the curve (residual {L.residual(P):.3e})")
    if n < 0:
        n, P = -n, neg(P)
    R = Infinity
    A = P
    while n:
        if n & 1:
            R = _add_raw(L, R, A)
        A = _add_raw(L, A, A)
        n >>= 1
    return R


def j_invariant(L):
    """j = 256 (lambda^2 - lambda + 1)^3 / (lambda^2 (1 - lambda)^2)."""
    lam = L.lam
    num = (lam * lam - lam + 1.0) ** 3
    return 256.0 * num / (lam * lam * (1.0 - lam) ** 2)


def billiard_section(e, L):
    """The section B(lambda) whose translation realizes one bounce."""
    lam = L.lam
    if not (isinstance(lam, (int, float)) and 0.0 < lam < 1.0 / e.c2 and lam != 1.0):
        raise ValueError("billiard section needs real lambda in (0, 1/c^2) minus {1}")
    s = e.c2 * lam
    h = e.b2 * lam / (1.0 - e.c2 * lam)
    k = e.c * math.sqrt(e.b2) * lam * (1.0 - lam) / ((1.0 - s) * math.sqrt(1.0 - s))
    return LegendrePoint(h, k)


def masser_point(e, L):
    """The constant-abscissa section (1/c^2, sqrt(1-c^2)/c^3 sqrt(1-c^2 lambda))."""
    lam = L.lam
    if not (isinstance(lam, (int, float)) and 0.0 < lam < 1.0 / e.c2 and lam != 1.0):
        raise ValueError("Masser section needs real lambda in (0, 1/c^2) minus {1}")
    h = 1.0 / e.c2
    k = math.sqrt(e.b2) / e.c ** 3 * math.sqrt(1.0 - e.c2 * lam)
    return LegendrePoint(h, k)


def _w_from_line(e, sv, x, y0, z):
    """Sheet coordinate w of the phase point x via its dual line.

    The linear relations between w and the dual coordinates (t, u) of
    the chord are

        A_t t - (s - c^2) x =  c y0 y w / (sqrt(1-c^2) (z^2 + 1 - c^2)),
        A_u u - s y         = -c y0 x w / (sqrt(1-c^2) (z^2 + 1 - c^2)),

    with A_t = c^2 (s-1) x^2 + (1-c^2) s and A_u = s y^2 + (s-c^2) x^2.
    The first degenerates on y = 0 and the second on x = 0, so the one
    with the larger coordinate is used.  For chords through the origin
    (where t and u are both infinite) the sibling tangent line from the
    same boundary point supplies -w.
    """
    c2, b2 = e.c2, e.b2
    rb2 = math.sqrt(b2)
    d = x.vx * x.y - x.vy * x.x
    scale = max(abs(x.vx) + abs(x.vy), 1e-30)
    if abs(d) < 1e-9 * scale:
        slopes = tangent_slopes(e, (x.x, x.y), sv)
        cur = slope_of(x.vx, x.vy)
        others = [xi for xi in slopes if abs_slope_diff(xi, cur) > 1e-6]
        if not others:
            return 0.0
        vx, vy = inward(e, (x.x, x.y), others[0])
        sib = type(x)(x.x, x.y, vx, vy)
        return -_w_from_line(e, sv, sib, y0, z)
    if abs(x.y) >= abs(x.x):
        t = -x.vy / d
        A_t = c2 * (sv - 1.0) * x.x * x.x + b2 * sv
        return (A_t * t - (sv - c2) * x.x) * rb2 * (z * z + b2) / (e.c * y0 * x.y)
    u = x.vx / d
    A_u = sv * x.y * x.y + (sv - c2) * x.x * x.x
    return -(A_u * u - sv * x.y) * rb2 * (z * z + b2) / (e.c * y0 * x.x)


def abs_slope_diff(xi1, xi2):
    """Distance between slopes on the projective slope circle."""
    if math.isinf(xi1) and math.isinf(xi2):
        return 0.0
    if math.isinf(xi1) or math.isinf(xi2):
        return math.inf
    return abs(xi1 - xi2)


def phase_to_legendre(e, s, x):
    """Phase point (p, v) as a point of the Legendre curve of its caustic.

    X = zeta(z(p)); Y is the fixed-sign ordinate eta built from the sheet
    coordinate w.  Ramification points land on 2-torsion, with
    P4 = (-x0, -y0) at Infinity; elliptic caustics give complex output of
    constant |X| = sqrt(lambda).
    """
    sv = s.s if isinstance(s, CausticParam) else s
    c2, b2 = e.c2, e.b2
    x0 = math.sqrt(sv) / e.c
    y0 = cmath.sqrt(b2 * (c2 - sv) / c2)
    z4 = y0 / (x0 + 1.0)
    rt1ms = math.sqrt(1.0 - sv)
    z = z_of_point(x.x, x.y)
    if math.isinf(z):
        # p = (1, 0): finite limit of all formulas as z -> inf, where
        # w grows like z^2 and (z - z4)^2 cancels the growth.
        u_dual = x.vx / (x.vx * x.y - x.vy * x.x)
        w_scaled = -(sv - c2) * u_dual * math.sqrt(b2) / (e.c * y0)
        X = complex(x0)
        Y = ETA_SIGN * x0 * (x0 - 1.0) * w_scaled / rt1ms
        return LegendrePoint(X, Y)
    w = _w_from_line(e, sv, x, y0, z)
    den = (x0 + 1.0) * z - y0
    if abs(den) < 1e-13 * max(1.0, abs(z)):
        return Infinity
    X = x0 * ((x0 + 1.0) * z + y0) / den
    Y = ETA_SIGN * x0 * (x0 - 1.0) * w / ((z - z4) ** 2 * rt1ms)
    return LegendrePoint(X, Y)


def point_distance(P, Q):
    """Chordal (Fubini-Study) distance between projective points.

    Computed as |a /\\ b| / (|a| |b|), the sine of the angle between the
    homogeneous vectors; the wedge form stays accurate for nearly equal
    points where 1 - cos^2 would lose everything below sqrt(eps).
    """
    a = (0.0, 1.0, 0.0) if P.inf else (P.X, P.Y, 1.0)
    b = (0.0, 1.0, 0.0) if Q.inf else (Q.X, Q.Y, 1.0)
    a = [complex(t) for t in a]
    b = [complex(t) for t in b]
    na = math.sqrt(sum(abs(t) ** 2 for t in a))
    nb = math.sqrt(sum(abs(t) ** 2 for t in b))
    wedge = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            wedge += abs(a[i] * b[j] - a[j] * b[i]) ** 2
    return math.sqrt(wedge) / (na * nb)


class ConjugationChecker:
    """Certifies that one bounce equals translation by sigma*B(lambda).

    The sign sigma is chosen on the first defect evaluation for the
    caustic and pinned afterwards, so a batch of phase points on one
    caustic must agree on a single sigma.
    """

    def __init__(self, e, s):
        self.e = e
        self.s = s
        self.curve = lambda_of(e, s)
        self.section = billiard_section(e, self.curve)
        self.sigma = None

    def defect(self, x):
        P = phase_to_legendre(self.e, self.s, x)
        Q = phase_to_legendre(self.e, self.s, advance(self.e, x))
        if self.sigma is None:
            dplus = point_distance(Q, _add_raw(self.curve, P, self.section))
            dminus = point_distance(Q, _add_raw(self.curve, P, neg(self.section)))
            self.sigma = 1 if dplus <= dminus else -1
            return min(dplus, dminus)
        target = self.section if self.sigma == 1 else neg(self.section)
        return point_distance(Q, _add_raw(self.curve, P, target))


def conjugation_defect(e, s, x, checker=None):
    """Distance between the advanced phase point and P + sigma*B on the
    Legendre curve; a fresh call minimizes over sigma, a shared
    ConjugationChecker pins it."""
    if checker is None:
        checker = ConjugationChecker(e, s)
    return checker.defect(x)


def point_to_json(P):
    if P.inf:
        return json.dumps({"inf": True})
    def _num(v):
        if isinstance(v, complex):
            return {"re": v.real, "im": v.imag} if v.imag else v.real
        return v
    return json.dumps({"x": _num(P.X), "y": _num(P.Y)})


def point_from_json(text):
    obj = json.loads(text)
    if obj.get("inf"):
        return Infinity
    def _num(v):
        if isinstance(v, dict):
            return complex(v["re"], v["im"])
        return v
    return LegendrePoint(_num(obj["x"]), _num(obj["y"]))
