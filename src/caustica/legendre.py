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

Points are homogeneous triples (X : Y : Z), so the identity is the
point with Z = 0 and a sum near it has a small Z rather than huge
affine coordinates.  The group law is the chord construction with the
slope taken from one of two forms (see _add_raw), after the complete
systems of addition laws of Bosma and Lenstra (J. Number Theory 53
(1995) 229-240): at every pair of points other than the identity one
of the two is not 0/0.
"""

import cmath
import math
from typing import NamedTuple

from .conics import advance, classify_caustic, tangential, z_of_point

# Global sign of the ordinate eta of the phase-space isomorphism, fixed
# once so that one bounce with the caustic to the right of the motion is
# translation by +B.
ETA_SIGN = -1.0


class LegendrePoint:
    """Point (X : Y : Z) of a Legendre curve in homogeneous coordinates,
    real or complex.  LegendrePoint(X, Y) is the affine point (Z = 1);
    .X and .Y read X/Z and Y/Z, None at the identity (Z = 0), and ==
    and hash compare that affine view."""

    __slots__ = ("xyz",)

    def __init__(self, X, Y, Z=1.0):
        self.xyz = (X, Y, Z)

    @property
    def inf(self):
        return self.xyz[2] == 0

    @property
    def X(self):
        return None if self.inf else self.xyz[0] / self.xyz[2]

    @property
    def Y(self):
        return None if self.inf else self.xyz[1] / self.xyz[2]

    def __repr__(self):
        return "LegendrePoint({!r}, {!r}, {!r})".format(*self.xyz)

    def __eq__(self, other):
        if not isinstance(other, LegendrePoint):
            return NotImplemented
        return (self.X, self.Y) == (other.X, other.Y)

    def __hash__(self):
        return hash((self.X, self.Y))


Infinity = LegendrePoint(0.0, 1.0, 0.0)


class _Lambda(NamedTuple):
    lam: complex


class LegendreCurve(_Lambda):
    """Legendre curve Y^2 = X(X - 1)(X - lambda), lambda real or complex."""

    __slots__ = ()  # no instance __dict__: no attribute can be set

    def __new__(cls, lam):
        if lam == 0 or lam == 1:
            raise ValueError("Legendre parameter must avoid 0 and 1")
        return super().__new__(cls, lam)

    def residual(self, P):
        """Relative failure of the curve equation Y^2 Z = X(X-Z)(X-lambda Z)
        at P; 0 at the identity."""
        X, Y, Z = P.xyz
        lhs = Y * Y * Z
        scale = max(abs(Z) ** 3, abs(lhs), abs(X) ** 3)
        if scale == 0:
            return 0.0
        return abs(lhs - X * (X - Z) * (X - self.lam * Z)) / scale

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
    X, Y, Z = P.xyz
    return LegendrePoint(X, -Y, Z)


def _add_raw(L, P, Q):
    if P.inf:
        return Q
    if Q.inf:
        return P
    X1, Y1, Z1 = P.xyz
    X2, Y2, Z2 = Q.xyz
    a, b, zz = X1 * Z2, X2 * Z1, Z1 * Z2
    dx = b - a
    sy = Y1 * Z2 + Y2 * Z1
    xscale = max(abs(a), abs(b), abs(zz))
    yscale = max(abs(Y1 * Z2), abs(Y2 * Z1), abs(zz))
    # The slope u/v of the line through P and Q, in one of two forms that
    # agree in exact arithmetic and cancel in complementary places: the
    # chord form (Y2 Z1 - Y1 Z2)/(X2 Z1 - X1 Z2), 0/0 only at P = Q, and
    # the conjugate form, the difference quotient of f(X) = X(X-Z)(X-lam Z)
    # taken symbolically over (Y1 Z2 + Y2 Z1) Z1 Z2, 0/0 only where
    # Y1/Z1 = -Y2/Z2 and either X1/Z1 != X2/Z2 or f'(X1/Z1) = 0.  The form
    # with the relatively larger denominator is taken, the conjugate one
    # on a tie unless it is 0/0.  A vertical line (v = 0) gives Z3 = 0
    # exactly: P + (-P), and T + T for a 2-torsion point T.
    conj = (a * a + a * b + b * b - (1.0 + L.lam) * (a + b) * zz
            + L.lam * zz * zz, sy * zz)
    if abs(sy) * xscale >= abs(dx) * yscale and any(conj):
        u, v = conj
    else:
        u, v = Y2 * Z1 - Y1 * Z2, dx
    # X3/Z3 = m^2 + 1 + lambda - X1/Z1 - X2/Z2 and
    # Y3/Z3 = m (X1/Z1 - X3/Z3) - Y1/Z1 with m = u/v, over v^3 Z1 Z2.
    w = u * u * zz + ((1.0 + L.lam) * zz - a - b) * v * v
    X3, Y3, Z3 = v * w, u * (a * v * v - w) - v ** 3 * Y1 * Z2, v ** 3 * zz
    # An exact power of two keeps chains of sums in range without rounding.
    f = 2.0 ** -math.frexp(max(abs(X3), abs(Y3), abs(Z3)))[1]
    return LegendrePoint(X3 * f, Y3 * f, Z3 * f)


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

    with z4 = y0/(x0 + 1); at z = inf, Y = -ETA_SIGN x0 (x0 - 1) tau / (c y0)
    = Y_inf.  Over den^2 with den = (x0 + 1) z - y0 = (x0 + 1)(z - z4),
    the point is

        (x0 ((x0 + 1) z + y0) den : Y_inf (z^2 + 1 - c^2)(x0 + 1)^2 : den^2),

    the identity exactly where den = 0.

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

    Ramification points land on 2-torsion, with P4 = (-x0, -y0), where
    z = z4, at Infinity; elliptic caustics give complex output of constant
    |X| = sqrt(lambda).
    """
    x0 = math.sqrt(s) / e.c
    y0 = cmath.sqrt(e.b2 * (e.c2 - s) / e.c2)
    tau = tangential(e, *x)
    Y_inf = -ETA_SIGN * x0 * (x0 - 1.0) * tau / (e.c * y0)
    z = z_of_point(x.x, x.y)
    if math.isinf(z):
        return LegendrePoint(complex(x0), Y_inf)
    den = (x0 + 1.0) * z - y0
    return LegendrePoint(x0 * ((x0 + 1.0) * z + y0) * den,
                         Y_inf * (z * z + e.b2) * (x0 + 1.0) ** 2, den * den)


def point_distance(P, Q):
    """Chordal (Fubini-Study) distance between projective points.

    Computed as |a /\\ b| / (|a| |b|), the sine of the angle between the
    homogeneous vectors; the wedge form stays accurate for nearly equal
    points where 1 - cos^2 would lose everything below sqrt(eps).
    """
    a = [complex(t) for t in P.xyz]
    b = [complex(t) for t in Q.xyz]
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
    2 pi k/304 where the tangency quadratic has two roots, and both
    tangents: worst defect 2.6e-12).
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
