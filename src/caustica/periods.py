"""Periods of caustic curves, the Betti map, and rotation numbers.

The real and imaginary periods of Y^2 = X(X-1)(X-lambda) are
hypergeometric,

    omega2 = pi F(1/2,1/2;1;lambda) = integral over [1,inf) of dx/y,
    omega1 = i pi F(1/2,1/2;1;1-lambda),

and are evaluated here in closed form through Carlson's R_F, with
quadrature as an independent cross-check.  The billiard section B(lambda)
has Betti coordinates (beta1, beta2); beta2 is the ratio of an incomplete
period integral to omega2 and coincides with the rotation number of the
billiard circle map on elliptic caustics.  BettiModel evaluates beta2 in
closed form through Carlson's R_F (B. C. Carlson, Numer. Algorithms 10
(1995)); betti_billiard evaluates the same integrals by adaptive
quadrature and is the independent reference.  scipy.special is imported on
first use, so importing this module loads no scipy: omega1, omega2 and
omega2_above_one import elliprf inside the call, and BettiModel binds it once
when a model is built.  Both Gauss-Legendre operator
residuals (on omega2 itself and on the elliptic logarithm of B) are
provided as finite-difference checks; the second has the closed value
2c sqrt(1-c^2) (1-c^2 lambda)^(-3/2), which is nonzero and so certifies
that the section is non-torsion.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np

from ._roots import brentq
from .conics import CausticParam, CausticKind, _step, caustic_phase_point, classify_caustic

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def _quad(f, a, b):
    """quad at tight tolerances with the roundoff warning silenced; the
    integrands have square-root endpoint behavior where the warning
    fires even though the achieved accuracy is ample."""
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(f, a, b, **_QUAD_OPTS)
    return val


class BettiCoords(NamedTuple):
    beta1: float
    beta2: float


class PeriodPair(NamedTuple):
    omega1: complex
    omega2: float


def omega2(lam):
    """Real period pi F(1/2,1/2;1;lambda) = 2 R_F(1, 0, 1-lambda) for
    0 < lambda < 1."""
    if not 0.0 < lam < 1.0:
        raise ValueError("omega2 needs lambda in (0, 1)")
    from scipy.special import elliprf

    return 2.0 * float(elliprf(1.0, 0.0, 1.0 - lam))


def omega1(lam):
    """Imaginary period i pi F(1/2,1/2;1;1-lambda) = 2i R_F(1, 0, lambda)
    for 0 < lambda < 1."""
    if not 0.0 < lam < 1.0:
        raise ValueError("omega1 needs lambda in (0, 1)")
    from scipy.special import elliprf

    return 2j * float(elliprf(1.0, 0.0, lam))


def period_pair(lam):
    return PeriodPair(omega1(lam), omega2(lam))


def omega2_quadrature(lam):
    """omega2 as the integral over [1, inf) of dx/y, by x = 1 + t^2.

    Independent of the R_F route; the two must agree to 1e-10.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("omega2 needs lambda in (0, 1)")

    def f(t):
        x = 1.0 + t * t
        return 2.0 * t / math.sqrt(x * (t * t) * (x - lam))

    val = _quad(f, 0.0, np.inf)
    return val


def omega1_quadrature(lam):
    """|omega1| as the integral over (-inf, 0] of dx/|y|, by x = -t^2."""
    if not 0.0 < lam < 1.0:
        raise ValueError("omega1 needs lambda in (0, 1)")

    def f(t):
        x = -t * t
        return 2.0 * t / math.sqrt(-x * (x - 1.0) * (x - lam))

    val = _quad(f, 0.0, np.inf)
    return val


def omega2_above_one(lam):
    """Real period for lambda > 1 through the 1/lambda isomorphism.

    omega2(lambda) = omega2(1/lambda)/sqrt(lambda) = 2 R_F(lambda,
    lambda-1, 0); equals the integral over [0,1] of dx/y, which
    omega2_above_one_quadrature evaluates independently.
    """
    if lam <= 1.0:
        raise ValueError("omega2_above_one needs lambda > 1")
    from scipy.special import elliprf

    return 2.0 * float(elliprf(lam, lam - 1.0, 0.0))


def omega2_above_one_quadrature(lam):
    """The equal-component integral over [0,1] of dx/y, by x = sin^2."""
    if lam <= 1.0:
        raise ValueError("omega2_above_one needs lambda > 1")

    def f(th):
        si = math.sin(th)
        return 2.0 / math.sqrt(lam - si * si)

    val = _quad(f, 0.0, 0.5 * math.pi)
    return val


def integral_I(u, lam):
    """I_u(lambda): integral over [u, inf) of dx/sqrt(x(x-1)(x-lambda)).

    The substitution x = u + t^2 removes the square-root endpoint
    singularity (in particular at u = 1, where the factor x - 1 supplies
    it); the infinite tail is left to adaptive quadrature.
    """
    if u < 1.0:
        raise ValueError("integral_I needs u >= 1")
    if lam >= u:
        raise ValueError("integral_I needs lambda < u")

    def f(t):
        x = u + t * t
        return 2.0 * t / math.sqrt(x * (x - 1.0) * (x - lam))

    val = _quad(f, 0.0, np.inf)
    return val


def elliptic_numerator(e, lam):
    """Integral over [lambda, 1/c^2] of dx/y, by x = lambda + t^2.

    Both the integrand and the upper limit are smooth in lambda on
    (1, 1/c^2), so this is the smooth branch used for the elliptic
    logarithm of the billiard section.
    """
    U = 1.0 / e.c2
    if not 1.0 < lam < U:
        raise ValueError("elliptic numerator needs lambda in (1, 1/c^2)")
    T = math.sqrt(U - lam)

    def f(t):
        x = lam + t * t
        return 2.0 / math.sqrt(x * (x - 1.0))

    val = _quad(f, 0.0, T)
    return val


def _check_section(U, lam):
    """The domain of the billiard section: 0 < lambda < U = 1/c^2, with
    the focal degeneration lambda = 1 excluded."""
    if not 0.0 < lam < U:
        raise ValueError("Betti coordinates need lambda in (0, 1/c^2)")
    if lam == 1.0:
        raise ValueError("lambda = 1 is the focal degeneration")


def betti_billiard(e, lam):
    """Betti coordinates of the billiard section at parameter lambda.

    Hyperbolic branch (0 < lambda < 1): (1/2, 1/2 - I_{1/c^2}/(2 I_1));
    elliptic branch (1 < lambda < 1/c^2): (0, N/(2 omega2)) with N the
    incomplete integral from lambda to 1/c^2.  Both branches extend to
    the logarithmic regime near lambda = 1 (beta2 -> 1/2 from either
    side); lambda = 1 itself is degenerate and rejected.
    """
    U = 1.0 / e.c2
    _check_section(U, lam)
    if lam < 1.0:
        b2 = 0.5 - integral_I(U, lam) / (2.0 * omega2(lam))
        return BettiCoords(0.5, b2)
    b2 = elliptic_numerator(e, lam) / (2.0 * omega2_above_one_quadrature(lam))
    return BettiCoords(0.0, b2)


class BettiModel:
    """Closed-form beta2 across both branches, in Carlson's symmetric
    elliptic integral R_F.

    beta2 = 1/2 - I_U(lambda)/(2 omega2(lambda)) with U = 1/c^2 and

        I_U(lambda) = 2 R_F(U, U-1, U-lambda),
        omega2 = 2 R_F(1, 0, 1-lambda) (lambda < 1),
                 2 R_F(lambda, lambda-1, 0) (lambda > 1),

    valid on both branches since the incomplete elliptic numerator
    equals omega2 - I_U above lambda = 1.  Grid scans and the inverse
    in lambda of the periodic-direction search go through this model;
    betti_billiard remains the direct-quadrature reference.  R_F is
    scipy.special.elliprf, imported and bound here when the model is
    built, so beta2 pays no import per call.
    """

    def __init__(self, e):
        from scipy.special import elliprf

        self.U = 1.0 / e.c2
        self._rf = elliprf

    def beta2(self, lam):
        if lam == 1.0:
            # Continuous limit from both sides (the period diverges).
            return 0.5
        if lam <= 0.0:
            raise ValueError("lambda must be positive")
        U = self.U
        if lam - U > 1e-12:
            raise ValueError("lambda must not exceed 1/c^2")
        if lam < 1.0:
            half_w2 = self._rf(1.0, 0.0, 1.0 - lam)
        else:
            half_w2 = self._rf(lam, lam - 1.0, 0.0)
        return self._ratio(half_w2, U - lam)

    def _beta2_gap(self, g):
        """beta2 at lambda = 1 + g from the signed gap g itself, which
        keeps a gap below one ulp of 1 that lambda would round away:
        omega2/2 is R_F(1+g, g, 0) above 1 and R_F(1, 0, -g) below."""
        if g == 0.0:
            return 0.5
        if g > 0.0:
            half_w2 = self._rf(1.0 + g, g, 0.0)
        else:
            half_w2 = self._rf(1.0, 0.0, -g)
        return self._ratio(half_w2, (self.U - 1.0) - g)

    def _ratio(self, half_w2, u_gap):
        """1/2 - I_U/(2 omega2) from omega2/2 and U - lambda."""
        U = self.U
        return float(0.5 - self._rf(U, U - 1.0, max(0.0, u_gap)) / (2.0 * half_w2))


def betti_scan(e, lambdas):
    """Betti coordinates over an iterable of lambdas, in input order, on
    betti_billiard's domain: beta1 is 1/2 on the hyperbolic branch and 0
    on the elliptic one, and beta2 is BettiModel's closed form (within
    ~2e-16 of the quadrature of betti_billiard).

    Cells are independent; the reduction order is the input order, so
    output is deterministic under any evaluation schedule.
    """
    model = BettiModel(e)
    out = []
    for lam in lambdas:
        _check_section(model.U, lam)
        out.append(BettiCoords(0.5 if lam < 1.0 else 0.0, model.beta2(lam)))
    return out


def _beta2_inverse(model, target, lo, hi):
    """lambda in [lo, hi] with model.beta2(lambda) = target.

    The bracket lies on one side of lambda = 1, where beta2 is strictly
    monotone (increasing below 1, decreasing above), and target lies
    between the end values; one bracketed solve on the closed form.
    """
    return brentq(lambda lam: model.beta2(lam) - target, lo, hi, xtol=1e-15)


def lambda_for_beta2(e, target):
    """Elliptic-caustic parameter lambda* with beta2(lambda*) = target.

    beta2 decreases from 1/2 to 0 as lambda runs over (1, 1/c^2), so any
    target in (0, 1/2) has a unique preimage.
    """
    if not 0.0 < target < 0.5:
        raise ValueError("target beta2 must lie in (0, 1/2)")
    model = BettiModel(e)
    return _beta2_inverse(model, target, 1.0 + 1e-12, model.U - 1e-12)


def rotation_number(e, s, n_iter):
    """Empirical winding number of the billiard circle map on an
    elliptic caustic, clockwise-tangent convention; converges to
    beta2(s/c^2) at rate O(1/n_iter)."""
    if n_iter < 1000:
        raise ValueError("rotation_number needs n_iter >= 1000")
    cp = s if isinstance(s, CausticParam) else classify_caustic(e, s)
    if cp.kind is not CausticKind.ELLIPTIC:
        raise ValueError("rotation number needs an elliptic caustic")
    x = caustic_phase_point(e, cp.s, 0.3)
    qx, qy, vx, vy = x.x, x.y, x.vx, x.vy
    b2 = e.b2
    rb2 = math.sqrt(b2)
    th_prev = math.atan2(qy / rb2, qx)
    total = 0.0
    two_pi = 2.0 * math.pi
    for _ in range(n_iter):
        qx, qy, vx, vy = _step(b2, qx, qy, vx, vy)
        th = math.atan2(qy / rb2, qx)
        d = math.fmod(th - th_prev, two_pi)
        if d > 0.0:
            d -= two_pi
        total += d
        th_prev = th
    return -total / (two_pi * n_iter)


def _gamma_operator(f, lam, h):
    """Signed Gauss-Legendre residual of f at lambda by central differences."""
    fp, fm, f0 = f(lam + h), f(lam - h), f(lam)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = (fp - fm) / (2.0 * h)
    return lam * (1.0 - lam) * d2 + (1.0 - 2.0 * lam) * d1 - 0.25 * f0


def picard_fuchs_residual(lam):
    """|Gamma omega2| at lambda by central differences with the fixed
    step h = 1e-4; one Richardson level (steps h and h/2) cancels the
    O(h^2) term.
    """
    h = 1e-4
    if not (0.0 < lam - 2.0 * h and lam + 2.0 * h < 1.0):
        raise ValueError("lambda +- 2h (h = 1e-4) must stay inside (0, 1)")
    r1 = _gamma_operator(omega2, lam, h)
    r2 = _gamma_operator(omega2, lam, 0.5 * h)
    return abs((4.0 * r2 - r1) / 3.0)


def manin_residual(e, lam):
    """Distance of the Manin map of the billiard section from its closed
    value 2c sqrt(1-c^2) (1-c^2 lambda)^(-3/2).

    The logarithm branch is ell = (1/2) integral from lambda to 1/c^2 of
    dx/y, smooth across the elliptic range, and the Manin map in the
    normalization of the closed form equals 8 Gamma(ell): the factor 8
    between the bare Gauss-Legendre image and the corrected Manin map is
    constant in (c, lambda) and was pinned at 40-digit precision.  A
    nonzero value certifies the section is non-torsion.  Gamma(ell) is
    taken by central differences with the fixed step h = 1e-3 and one
    Richardson level (steps h and h/2).
    """
    h = 1e-3
    U = 1.0 / e.c2
    if not (1.0 < lam - 2.0 * h and lam + 2.0 * h < U):
        raise ValueError("lambda +- 2h (h = 1e-3) must stay inside (1, 1/c^2)")

    def ell(t):
        v = 0.5 * elliptic_numerator(e, t)
        if not math.isfinite(v):
            raise ValueError("branch discontinuity in the elliptic logarithm")
        return v

    r1 = _gamma_operator(ell, lam, h)
    r2 = _gamma_operator(ell, lam, 0.5 * h)
    gamma = (4.0 * r2 - r1) / 3.0
    expected = 2.0 * e.c * math.sqrt(e.b2) * (1.0 - e.c2 * lam) ** -1.5
    return abs(8.0 * gamma - expected)
