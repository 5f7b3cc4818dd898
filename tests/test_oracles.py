"""High-precision oracles for the numerical contracts of periods, of
the cosine sums along orbits and of the derivatives of path length.

Every reference value here is computed by mpmath at 30-40 digits from
the defining integrals, the hypergeometric/AGM closed forms or a bounce
formula of its own; nothing is shared with the code under test.  The table parameter U = 1/c^2 is
read from the float the library uses (1.0 / e.c2): near lambda = U a
one-ulp change in U moves beta2 by about 1e-11.
"""

import math
import random

import mpmath as mp
import pytest

from caustica import Ellipse, PhasePoint
from caustica.birkhoff import birkhoff_sum, symmetric_sum
from caustica.orbits import LAYER_BAND, _derivatives, _segments
from caustica.periods import (BettiModel, _beta2_inverse, betti_billiard,
                              lambda_for_beta2, omega2)

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
            for w2 in (mp.pi * mp.hyp2f1(0.5, 0.5, 1, lm),
                       mp.pi / mp.agm(1, mp.sqrt(1 - lm))):
                assert abs(omega2(lam) - w2) <= 1e-14 * w2


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


# ---------------------------------------------------------------------------
# window sums


def _center_mp(c, s, theta):
    """An inward unit direction at the boundary point of angle theta
    tangent to the confocal conic x^2/s + y^2/(s - c^2) = 1, in mpmath:
    the line y - b = xi (x - a) touches it where
    (b - xi a)^2 = s xi^2 + s - c^2."""
    b2 = 1 - c * c
    a, b = mp.cos(theta), mp.sqrt(b2) * mp.sin(theta)
    qa, qb, qc = s - a * a, 2 * a * b, s - b * b - c * c
    xi = (-qb + mp.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
    n = mp.sqrt(1 + xi * xi)
    vx, vy = 1 / n, xi / n
    if a * vx + b * vy / b2 > 0:  # point inward
        vx, vy = -vx, -vy
    return a, b, vx, vy


def _bounce_mp(b2, x, y, vx, vy):
    """The next bounce from boundary point (x, y) along the unit (vx, vy):
    the far root of the chord quadratic, then the reflected unit
    direction."""
    A = vx * vx + vy * vy / b2
    B = 2 * (x * vx + y * vy / b2)
    C = x * x + y * y / b2 - 1
    t = (-B + mp.sqrt(B * B - 4 * A * C)) / (2 * A)
    x, y = x + t * vx, y + t * vy
    nx, ny = x, y / b2
    d = 2 * (vx * nx + vy * ny) / (nx * nx + ny * ny)
    wx, wy = vx - d * nx, vy - d * ny
    n = mp.sqrt(wx * wx + wy * wy)
    return x, y, wx / n, wy / n


def _cos_walk_mp(b2, x, y, vx, vy, n):
    total = mp.mpf(0)
    for _ in range(n):
        x, y, wx, wy = _bounce_mp(b2, x, y, vx, vy)
        total += vx * wx + vy * wy
        vx, vy = wx, wy
    return total


def _window_mp(c, x, y, vx, vy, m):
    """sum_{i=-m..m} cos alpha_i, by walking 2m+1 bounces forward from
    the boundary point m+1 bounces behind (x, y).  That point is found
    by bouncing the reversed state (x, y, -u) m+1 times, with u the
    incoming direction at (x, y); its last direction, reversed, starts
    the forward walk."""
    b2 = 1 - c * c
    nx, ny = x, y / b2
    d = 2 * (vx * nx + vy * ny) / (nx * nx + ny * ny)
    ux, uy = vx - d * nx, vy - d * ny
    px, py, wx, wy = x, y, -ux, -uy
    for _ in range(m + 1):
        sx, sy = wx, wy
        px, py, wx, wy = _bounce_mp(b2, px, py, wx, wy)
    # The forward orbit leaves (px, py) along the reverse of the last
    # reversed segment.
    return _cos_walk_mp(b2, px, py, -sx, -sy, 2 * m + 1)


# s = frac c^2: hyperbolic (frac < 1) or elliptic.  Orbits on the
# hyperbolic caustic meet the boundary only where |x| < sqrt(frac), so
# every theta has |cos theta| < 0.46.
WINDOW_CASES = [(c, frac, theta) for c in CS for frac in (0.35, 1.1)
                for theta in (1.1, 1.4, 1.9, 4.3, 5.0)]


@pytest.mark.parametrize("c,frac,theta", WINDOW_CASES)
def test_window_and_birkhoff_sums_against_mpmath_walk(c, frac, theta):
    # A 40-digit walk with its own bounce formula.  The window oracle
    # steps back along the reversed orbit and re-walks forward, so it
    # does not lean on the reversal identity symmetric_sum uses.
    e = Ellipse(c)
    with mp.workdps(40):
        cm = mp.mpf(c)
        a, b, vx, vy = _center_mp(cm, mp.mpf(frac) * cm * cm, mp.mpf(theta))
        center = PhasePoint(float(a), float(b), float(vx), float(vy))
        x, y, vx, vy = (mp.mpf(v) for v in (center.x, center.y, center.vx,
                                            center.vy))
        n = mp.sqrt(vx * vx + vy * vy)
        vx, vy = vx / n, vy / n
        for m in (0, 1, 3, 6):
            want = _window_mp(cm, x, y, vx, vy, m)
            assert abs(symmetric_sum(e, center, m) - want) <= 1e-13, m
            want = _cos_walk_mp(1 - cm * cm, x, y, vx, vy, 2 * m + 1)
            assert abs(birkhoff_sum(e, center, 2 * m + 1) - want) <= 1e-13, m


def _path_length_mp(b, p1, p2, th):
    """Length of the path p1 -> (cos t, b sin t) for t in th -> p2."""
    chain = [p1] + [(mp.cos(t), b * mp.sin(t)) for t in th] + [p2]
    return mp.fsum(mp.hypot(r[0] - q[0], r[1] - q[1])
                   for q, r in zip(chain, chain[1:]))


@pytest.mark.parametrize("n", [2, 3, 4, 12])
def test_path_length_derivatives_against_mpmath(n):
    # The closed-form gradient and tridiagonal Hessian that the
    # connecting-trajectory climb steps on, against mpmath.diff of the
    # length at 30 digits, at random bounce angles of an n-segment path;
    # every Hessian entry off the three diagonals must vanish.
    e = Ellipse(0.6)
    p1, p2 = (0.1, 0.2), (-0.3, 0.1)
    rng = random.Random(n)
    for _ in range(3):
        th = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n - 1)]
        chain = [p1] + [e.boundary_point(t) for t in th] + [p2]
        g, diag, off = _derivatives(math.sqrt(e.b2), th, chain, _segments(chain))
        with mp.workdps(30):
            b = mp.sqrt(mp.mpf(e.b2))
            x = [mp.mpf(t) for t in th]

            def partial(*orders):
                order = [0] * (n - 1)
                for j in orders:
                    order[j] += 1
                return mp.diff(lambda *t: _path_length_mp(b, p1, p2, t), x, order)

            for j in range(n - 1):
                assert abs(g[j] - partial(j)) <= 1e-12, j
                for k in range(j, n - 1):
                    want = partial(j, k)
                    got = diag[j] if k == j else off[j] if k == j + 1 else 0.0
                    assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), (j, k)
