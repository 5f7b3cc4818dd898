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
import math
from dataclasses import dataclass

from .conics import advance, classify_caustic, tangential, z_of_point

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

    def contains(self, P):
        """Whether P lies on the curve: residual at most 1e-6."""
        return self.residual(P) <= 1e-6


def lambda_of(e, s):
    """Legendre parameter lambda = s/c^2 of a nondegenerate caustic; a
    focal or centre caustic (by classify_caustic) has no Legendre model."""
    kind = classify_caustic(e, s).kind.value
    if kind in ("focal", "center"):
        raise ValueError(f"degenerate caustic ({kind}) has no Legendre model")
    return LegendreCurve(s / e.c2)


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


def phase_to_legendre(e, s, x):
    """Phase point (p, v) as a point of the Legendre curve of its caustic.

    X = zeta(z) with z = z(p).  The ordinate is the fixed-sign eta of
    the sheet coordinate w, in closed form in the tangential component
    tau = (1-c^2) x v2 - y v1 of v:

        Y = -ETA_SIGN x0 (x0 - 1) tau (z^2 + 1 - c^2) / (c y0 (z - z4)^2),

    with z4 = y0/(x0 + 1); at z = inf, Y = -ETA_SIGN x0 (x0 - 1) tau / (c y0).

    Derivation: w is linear in the dual coordinate t of the chord
    t x + u y = 1,

        A_t t - (s - c^2) x = c y0 y w / (sqrt(1-c^2) (z^2 + 1 - c^2)),

    with A_t = c^2 (s-1) x^2 + (1-c^2) s.  On the boundary, with
    d = v1 y - v2 x and t = -v2/d, the left side is
    -y (s y v2 + (s - c^2) x v1)/d, and

        (s y v2 + (s - c^2) x v1)/d = sqrt(1-s) tau / sqrt(1-c^2)

    modulo tangency s v2^2 + (s - c^2) v1^2 = d^2, |v| = 1 and the
    ellipse (the square by a Groebner reduction, the sign numerically).
    The quotient by d is 0/0 on a chord through the centre, where t and
    u are infinite; tau is not.  The two tangents at p are mirror images
    in the normal, so their tau are opposite and they map to P and -P.

    Ramification points land on 2-torsion, with P4 = (-x0, -y0) at
    Infinity; elliptic caustics give complex output of constant
    |X| = sqrt(lambda).
    """
    x0 = math.sqrt(s) / e.c
    y0 = cmath.sqrt(e.b2 * (e.c2 - s) / e.c2)
    tau = tangential(e, x.x, x.y, x.vx, x.vy)
    Y_inf = -ETA_SIGN * x0 * (x0 - 1.0) * tau / (e.c * y0)
    z = z_of_point(x.x, x.y)
    if math.isinf(z):
        return LegendrePoint(complex(x0), Y_inf)
    den = (x0 + 1.0) * z - y0
    if abs(den) < 1e-13 * max(1.0, abs(z)):
        return Infinity
    X = x0 * ((x0 + 1.0) * z + y0) / den
    z4 = y0 / (x0 + 1.0)
    return LegendrePoint(X, Y_inf * (z * z + e.b2) / (z - z4) ** 2)


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
    """Certifies that one bounce equals translation by B(lambda).

    Both tangents to the caustic at a boundary point translate by +B:
    the other tangent is the time reversal of the orbit, so no sign is
    chosen (measured on all 25,760 phase points of c in {0.25, 0.3,
    0.45, 0.6, 0.75, 0.85, 0.9}, with s/c^2 in {0.2, 0.35, 0.6, 0.9}
    and s = c^2 + f (1 - c^2), f in {0.1, 0.35, 0.6, 0.9}, theta =
    2 pi k/304 where tangent_slopes gives two tangents, and both
    tangents: worst defect 5.4e-12).
    """

    def __init__(self, e, s):
        self.e = e
        self.s = s
        self.curve = lambda_of(e, s)
        self.section = billiard_section(e, self.curve)

    def defect(self, x):
        P = phase_to_legendre(self.e, self.s, x)
        Q = phase_to_legendre(self.e, self.s, advance(self.e, x))
        return point_distance(Q, _add_raw(self.curve, P, self.section))


def conjugation_defect(e, s, x):
    """Distance between the advanced phase point and P + B on the
    Legendre curve, by a fresh ConjugationChecker; one checker reused
    across calls builds the curve and B once."""
    return ConjugationChecker(e, s).defect(x)
