"""High-precision oracles for the numerical contracts of periods.

Every reference value here is computed by mpmath at 30-40 digits from
the defining integrals or the hypergeometric/AGM closed forms; nothing
is shared with the code under test.  The table parameter U = 1/c^2 is
read from the float the library uses (1.0 / e.c2): near lambda = U a
one-ulp change in U moves beta2 by about 1e-11.
"""

import math

import mpmath as mp
import pytest

from caustica import Ellipse
from caustica.orbits import LAYER_BAND
from caustica.periods import (BettiModel, _beta2_inverse, betti_billiard,
                              lambda_for_beta2, omega1, omega2,
                              omega2_above_one)

CS = (0.3, 0.6, 0.9)


def _omega2_mp(lam):
    """Integral over [1, inf) (lambda < 1) or [0, 1] (lambda > 1) of dx/|y|,
    with y^2 = x(x-1)(x-lambda); the square-root endpoint at x = 1 is
    removed by x = 1 -+ t^2."""
    if lam < 1:
        # x = 1 + t^2.
        f = lambda t: 2 / mp.sqrt((1 + t * t) * (1 + t * t - lam))
        return mp.quad(f, [0, mp.mpf("1e-4"), mp.mpf("1e-2"), 1, mp.inf])
    # x = 1 - t^2.
    f = lambda t: 2 / mp.sqrt((1 - t * t) * (lam - 1 + t * t))
    return mp.quad(f, [0, mp.mpf("1e-4"), mp.mpf("1e-2"), mp.mpf("0.5"), 1])


def _beta2_mp(U, lam):
    """beta2 from its defining integrals: 1/2 - I_U/(2 omega2) below
    lambda = 1, N/(2 omega2) above, with I_U over [U, inf) and N over
    [lambda, U] of dx/y."""
    w2 = _omega2_mp(lam)
    if lam < 1:
        f = lambda x: 1 / mp.sqrt(x * (x - 1) * (x - lam))
        return mp.mpf("0.5") - mp.quad(f, [U, 2 * U, mp.inf]) / (2 * w2)
    # x = lambda + t^2.
    T = mp.sqrt(U - lam)
    f = lambda t: 2 / mp.sqrt((lam + t * t) * (lam - 1 + t * t))
    pts = sorted({mp.mpf(0), min(T, mp.mpf("1e-4")), min(T, mp.mpf("1e-2")), T})
    return mp.quad(f, pts) / (2 * w2)


def test_periods_against_agm_and_hypergeometric():
    with mp.workdps(30):
        for lam in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
            lm = mp.mpf(lam)
            w2 = mp.pi * mp.hyp2f1(0.5, 0.5, 1, lm)
            w1 = mp.pi * mp.hyp2f1(0.5, 0.5, 1, 1 - lm)
            assert abs(omega2(lam) - w2) <= 1e-14 * w2
            assert omega1(lam).real == 0.0
            assert abs(omega1(lam).imag - w1) <= 1e-14 * w1
        for lam in (1.0 + 1e-6, 1.5, 4.0):
            lm = mp.mpf(lam)
            w2 = mp.pi / mp.agm(mp.sqrt(lm), mp.sqrt(lm - 1))
            assert abs(omega2_above_one(lam) - w2) <= 1e-14 * w2


@pytest.mark.parametrize("c", CS)
def test_beta2_against_defining_integrals(c):
    e = Ellipse(c)
    U_float = 1.0 / e.c2
    model = BettiModel(e)
    lams = (1e-6, 0.3, 0.9, 1.0 - 1e-6, 1.0 + 1e-6, 1.5,
            0.5 * (1.0 + U_float), U_float - 1e-9)
    with mp.workdps(30):
        U = mp.mpf(U_float)
        for lam in lams:
            if lam >= U_float:
                continue  # 1.5 lies beyond 1/c^2 at c = 0.9
            want = _beta2_mp(U, mp.mpf(lam))
            assert abs(model.beta2(lam) - want) < 1e-11, lam
            assert abs(betti_billiard(e, lam).beta2 - want) < 1e-11, lam


@pytest.mark.parametrize("c", CS)
def test_beta2_inverse_against_defining_integrals(c):
    # The levels k/100 the periodic-direction search would invert on each
    # branch outside the focal layer: the lowest, a middle one and the
    # highest, next to the layer edge.  49/100 is a layer level at every
    # tested c (beta2 at the edge stays below it), so it is never
    # inverted; the check on its side is that it lies above both edges.
    # Next to the edge one ulp of lambda moves beta2 by up to ~1e-12
    # (c = 0.9), so the bound asks for the nearest double.
    e = Ellipse(c)
    model = BettiModel(e)
    U_float = model.U
    solved = []
    for lo, hi in ((math.ulp(0.0), 1.0 - LAYER_BAND), (1.0 + LAYER_BAND, U_float)):
        b_lo, b_hi = sorted((model.beta2(lo), model.beta2(hi)))
        assert b_hi < 0.49
        ks = [k for k in range(1, 50) if b_lo < k / 100 < b_hi]
        for k in (ks[0], ks[len(ks) // 2], ks[-1]):
            solved.append((k / 100, _beta2_inverse(model, k / 100, lo, hi)))
    solved += [(t, lambda_for_beta2(e, t)) for t in (1 / 7, 1 / 3)]
    with mp.workdps(30):
        U = mp.mpf(U_float)
        for t, lam in solved:
            assert abs(_beta2_mp(U, mp.mpf(lam)) - mp.mpf(t)) <= 1e-12, (t, lam)


def test_manin_closed_form_and_its_factor_eight():
    # ell(lambda) = 1/2 integral over [lambda, 1/c^2] of dx/y, and the
    # Manin map 8 Gamma(ell) equals 2c sqrt(1-c^2) (1-c^2 lambda)^(-3/2)
    # with Gamma = lambda(1-lambda) d^2 + (1-2 lambda) d - 1/4.
    with mp.workdps(40):
        c = mp.mpf("0.6")
        U = 1 / c ** 2

        def ell(lam):
            T = mp.sqrt(U - lam)
            f = lambda t: 1 / mp.sqrt((lam + t * t) * (lam - 1 + t * t))
            return mp.quad(f, [0, T])

        for lam in (1.2, 1.5, 2.0, 2.4):
            lm = mp.mpf(lam)
            d0, d1, d2 = (mp.diff(ell, lm, k) for k in (0, 1, 2))
            gamma = lm * (1 - lm) * d2 + (1 - 2 * lm) * d1 - d0 / 4
            closed = 2 * c * mp.sqrt(1 - c ** 2) * (1 - c ** 2 * lm) ** mp.mpf(-1.5)
            assert abs(8 * gamma - closed) < mp.mpf("1e-30")
