"""Group law on Legendre curves and the bounce-to-translation conjugation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caustica import Ellipse, add, mul, neg, point_distance
from caustica.legendre import (ConjugationChecker, Infinity, LegendreCurve,
                               LegendrePoint, billiard_section,
                               conjugation_defect, j_invariant, lambda_of,
                               masser_point, phase_to_legendre)
from caustica.conics import (PhasePoint, caustic_of_line, caustic_phase_point, inward,
                             slope_of)

E = Ellipse(0.6)


def tangent_slopes(e, p, s):
    """Slopes of both lines through the boundary point p = (a, b) tangent
    to the caustic s: the roots xi of the tangency quadratic
    (s - a^2) xi^2 + 2 a b xi + (s - b^2 - c^2) = 0, with the vertical
    line (slope inf) where the leading coefficient vanishes."""
    a, b = p
    qa, qb, qc = s - a * a, 2.0 * a * b, s - b * b - e.c2
    if abs(qa) < 1e-14:
        return [math.inf] + ([-qc / qb] if abs(qb) > 1e-14 else [])
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return [(-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa)]


def random_point(L, rng):
    """Random real affine point of Y^2 = X(X-1)(X-lam)."""
    lam = L.lam
    lo, hi = (0.0, min(1.0, lam)) if lam > 0 else (lam, 0.0)
    while True:
        if rng.uniform() < 0.5:
            X = rng.uniform(lo, hi)
        else:
            X = max(1.0, lam) + rng.exponential(1.0)
        rhs = X * (X - 1.0) * (X - lam)
        if rhs > 1e-12:
            Y = math.sqrt(rhs) * (1.0 if rng.uniform() < 0.5 else -1.0)
            return LegendrePoint(X, Y)


def test_curve_validation():
    with pytest.raises(ValueError):
        LegendreCurve(0.0)
    with pytest.raises(ValueError):
        LegendreCurve(1.0)
    L = LegendreCurve(0.5)
    assert L.contains(Infinity)
    assert L.contains(LegendrePoint(0.0, 0.0))
    assert not L.contains(LegendrePoint(0.3, 5.0))


def test_lambda_of():
    L = lambda_of(E, 0.9)
    assert L.lam == pytest.approx(0.9 / 0.36)


@pytest.mark.parametrize("s, kind", [(E.c2, "focal"), (E.c2 * (1.0 + 1e-10), "focal"),
                                     (0.0, "center"), (1e-12, "center")])
def test_lambda_of_refuses_focal_and_centre_caustics(s, kind):
    with pytest.raises(ValueError, match=f"degenerate caustic \\({kind}\\)"):
        lambda_of(E, s)


def test_identity_and_inverse():
    rng = np.random.default_rng(0)
    for lam in (0.3, 0.7, 1.8):
        L = LegendreCurve(lam)
        for _ in range(20):
            P = random_point(L, rng)
            assert add(L, P, Infinity) == P
            assert add(L, Infinity, P) == P
            assert add(L, P, neg(P)).inf
    assert neg(Infinity).inf


def test_add_commutative_and_on_curve():
    rng = np.random.default_rng(1)
    for lam in (0.3, 0.7, 1.8):
        L = LegendreCurve(lam)
        for _ in range(50):
            P, Q = random_point(L, rng), random_point(L, rng)
            R1 = add(L, P, Q)
            R2 = add(L, Q, P)
            assert point_distance(R1, R2) < 1e-12
            assert L.residual(R1) < 1e-10


def test_add_associative():
    # Near-inverse pairs send the intermediate sum far out on the curve
    # and its float coordinates lose |X| * eps absolute accuracy, which
    # no later step can recover; the bound scales with that condition
    # number and tightens to 1e-9 for well-conditioned triples.
    rng = np.random.default_rng(2)
    for lam in (0.3, 0.7, 1.8):
        L = LegendreCurve(lam)
        for _ in range(60):
            P, Q, R = (random_point(L, rng) for _ in range(3))
            PQ = add(L, P, Q)
            QR = add(L, Q, R)
            A = add(L, PQ, R)
            B = add(L, P, QR)
            d = point_distance(A, B)
            cond = max([1.0] + [abs(T.X) for T in (PQ, QR) if not T.inf])
            assert d < 1e-11 * cond
            if cond < 1e3:
                assert d < 1e-9


def _curve_point(lam, bounded, u, sign):
    """Affine point of Y^2 = X(X-1)(X-lam) at fraction u of the bounded
    oval, or at X = max(1, lam) + 4u on the unbounded branch; None when
    Y^2 is too small to carry a direction reliably."""
    if bounded:
        X = u * min(1.0, lam)
    else:
        X = max(1.0, lam) + 4.0 * u
    rhs = X * (X - 1.0) * (X - lam)
    if rhs < 1e-6:
        return None
    return LegendrePoint(X, sign * math.sqrt(rhs))


_points = st.tuples(st.booleans(), st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0]))


@settings(max_examples=200, deadline=None)
@given(lam=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0)),
       specs=st.lists(_points, min_size=3, max_size=3))
def test_group_law_properties(lam, specs):
    # Commutative and associative up to point_distance, within the
    # condition bound of test_add_associative: a sum far out on the
    # curve carries |X| * eps absolute error into every later step.
    L = LegendreCurve(lam)
    pts = [_curve_point(lam, *s) for s in specs]
    assume(all(pts))
    P, Q, R = pts
    PQ, QP = add(L, P, Q), add(L, Q, P)
    QR = add(L, Q, R)
    cond = max([1.0] + [abs(T.X) for T in (PQ, QR) if not T.inf])
    assert point_distance(PQ, QP) < 1e-11 * cond
    assert point_distance(add(L, PQ, R), add(L, P, QR)) < 1e-11 * cond


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="P ~ -Q: rounding puts P + Q off the curve near the "
                          "identity, and adding R amplifies it")
def test_group_law_near_inverse_draw():
    # A draw of test_group_law_properties with P and Q nearly opposite.
    # The float P and Q are off the curve by rounding, and so the sum of
    # these two inputs is defined only to ~2e-11 relative: exact
    # arithmetic on them gives X = 63629317644.63 by the chord slope and
    # 63629317643.60 by the conjugate one, which add takes here.  The
    # float P + Q then sits off the curve by 2e-16 relative, near the
    # identity, and the chord to R turns that into Y = 3.36 (2.29 in
    # exact arithmetic on the float P + Q) where P + (Q + R) and
    # 50-digit arithmetic give (0.0468746, 0.0457632): the two routes
    # differ by 0.944 against the bound 0.64.
    lam = 0.09375
    specs = [(False, 0.19962459945589212, 1.0),
             (False, 0.19962770092025212, -1.0),
             (True, 0.5, 1.0)]
    L = LegendreCurve(lam)
    P, Q, R = (_curve_point(lam, *s) for s in specs)
    PQ, QR = add(L, P, Q), add(L, Q, R)
    cond = max([1.0] + [abs(T.X) for T in (PQ, QR) if not T.inf])
    assert point_distance(add(L, PQ, R), add(L, P, QR)) < 1e-11 * cond


def test_two_torsion():
    for lam in (0.3, 1.8):
        L = LegendreCurve(lam)
        T0, T1, TL = (LegendrePoint(x, 0.0) for x in (0.0, 1.0, lam))
        for T in (T0, T1, TL):
            assert add(L, T, T).inf
        # The three nontrivial 2-torsion points sum in pairs to the third.
        assert point_distance(add(L, T0, T1), TL) < 1e-12
        assert point_distance(add(L, T1, TL), T0) < 1e-12


def test_doubling_uses_tangent():
    # P + P must agree with the exact tangent construction: slope
    # m = (3X^2 - 2(1+lam)X + lam) / (2Y), abscissa from the root sum
    # 2X + X3 = 1 + lam + m^2, reflected ordinate on the tangent line.
    rng = np.random.default_rng(3)
    L = LegendreCurve(0.7)
    for _ in range(30):
        P = random_point(L, rng)
        D = add(L, P, P)
        m = (3.0 * P.X ** 2 - 2.0 * (1.0 + L.lam) * P.X + L.lam) / (2.0 * P.Y)
        X3 = 1.0 + L.lam + m * m - 2.0 * P.X
        Y3 = -(P.Y + m * (X3 - P.X))
        scale = max(1.0, abs(X3), abs(Y3))
        assert abs(D.X - X3) < 1e-8 * scale
        assert abs(D.Y - Y3) < 1e-8 * scale
        assert L.residual(D) < 1e-10


def test_near_inverse_pairs_are_stable():
    # Adding P and a slight perturbation of -P lands far out on the
    # curve but must stay exactly on it.
    L = LegendreCurve(0.7)
    rng = np.random.default_rng(4)
    for k in range(6, 12):
        eps = 10.0 ** -k
        P = random_point(L, rng)
        X2 = P.X + eps
        rhs = X2 * (X2 - 1.0) * (X2 - L.lam)
        if rhs <= 0.0:
            continue
        Q = LegendrePoint(X2, -math.sqrt(rhs) * math.copysign(1.0, P.Y))
        R = add(L, P, Q)
        if not R.inf:
            assert L.residual(R) < 1e-8


@pytest.mark.parametrize("lam", [0.3, 0.7, 1.8])
def test_near_inverse_sum_is_not_the_identity(lam):
    # Q sits at X (1 + 10^-k) with the opposite sign of Y, so P + Q is a
    # point far out on the curve, never the identity: there is no
    # threshold below which a nearly inverse pair is rounded to it.
    L = LegendreCurve(lam)
    for X in (0.5 * min(1.0, lam), max(1.0, lam) + 0.7, max(1.0, lam) + 3.0):
        for sign in (1.0, -1.0):
            P = LegendrePoint(X, sign * math.sqrt(X * (X - 1.0) * (X - lam)))
            for k in range(9, 15):
                X2 = X * (1.0 + 10.0 ** -k)
                Q = LegendrePoint(X2, -sign * math.sqrt(X2 * (X2 - 1.0) * (X2 - lam)))
                R = add(L, P, Q)
                assert not R.inf, (X, sign, k)
                assert L.residual(R) < 1e-8, (X, sign, k)


def test_mul_matches_repeated_add():
    rng = np.random.default_rng(5)
    L = LegendreCurve(1.8)
    for _ in range(10):
        P = random_point(L, rng)
        acc = Infinity
        for n in range(0, 6):
            M = mul(L, n, P)
            assert point_distance(M, acc) < 1e-9
            acc = add(L, acc, P)
        assert point_distance(mul(L, -3, P), neg(mul(L, 3, P))) < 1e-12
    assert mul(L, 0, random_point(L, rng)).inf


def test_j_invariant_s3_orbit():
    for lam in (0.3, 0.7, 2.5):
        j = j_invariant(LegendreCurve(lam))
        assert j_invariant(LegendreCurve(1.0 - lam)) == pytest.approx(j, rel=1e-12)
        assert j_invariant(LegendreCurve(1.0 / lam)) == pytest.approx(j, rel=1e-12)
    assert j_invariant(LegendreCurve(0.5)) == pytest.approx(1728.0)
    assert j_invariant(LegendreCurve(-1.0)) == pytest.approx(1728.0)


def test_sections_lie_on_curve():
    for s in (0.5, 0.8):
        L = lambda_of(E, s)
        B = billiard_section(E, L)
        M = masser_point(E, L)
        assert L.residual(B) < 1e-12
        assert L.residual(M) < 1e-12
        assert M.X == pytest.approx(1.0 / E.c2)


def test_masser_decomposition():
    # The constant-abscissa section differs from the bounce section by
    # the 2-torsion point (lambda, 0).
    for s in (0.45, 0.62, 0.85):
        L = lambda_of(E, s)
        B = billiard_section(E, L)
        M = masser_point(E, L)
        T = LegendrePoint(L.lam, 0.0)
        assert point_distance(add(L, B, T), M) < 1e-10


def test_phase_to_legendre_lands_on_curve():
    rng = np.random.default_rng(6)
    for s in (0.2, 0.8):
        L = lambda_of(E, s)
        for _ in range(25):
            if s < E.c2:
                th0 = math.acos(math.sqrt(s) / E.c)
                theta = rng.uniform(th0 + 0.05, math.pi - th0 - 0.05)
                if rng.uniform() < 0.5:
                    theta += math.pi
            else:
                theta = rng.uniform(0.0, 2.0 * math.pi)
            x = caustic_phase_point(E, s, theta)
            P = phase_to_legendre(E, s, x)
            assert L.residual(P) < 1e-8


def test_phase_to_legendre_at_the_vertex():
    # z = inf at (1, 0): the point is (x0 : Y_inf : 1), on the curve, and
    # the bounce from it is translation by the section.
    s = 0.62
    x = caustic_phase_point(E, s, 0.0)
    assert x.p == (1.0, 0.0)
    P = phase_to_legendre(E, s, x)
    assert P.xyz[2] == 1.0 and P.X == complex(math.sqrt(s) / E.c)
    assert lambda_of(E, s).residual(P) < 1e-15
    assert ConjugationChecker(E, s).defect(x) < 1e-13


def test_bounce_is_translation_by_section():
    # One billiard bounce corresponds to adding B(lambda); the defect
    # is the distance between the two routes around the square.
    rng = np.random.default_rng(7)
    worst = 0.0
    for s in (0.45, 0.7, 0.9):
        checker = ConjugationChecker(E, s)
        for _ in range(15):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            x = caustic_phase_point(E, s, theta)
            worst = max(worst, checker.defect(x))
    assert worst < 1e-9


@pytest.mark.parametrize("s", [0.8, 0.2])
def test_both_tangents_translate_by_the_section(s):
    # The two tangents to the caustic at one boundary point are the two
    # time directions of one orbit, so both bounces are translation by
    # +B, on an elliptic (s > c^2) and a hyperbolic (s < c^2) caustic.
    checker = ConjugationChecker(E, s)
    for theta in (1.2, 1.4, 1.9):
        p = E.boundary_point(theta)
        slopes = tangent_slopes(E, p, s)
        assert len(slopes) == 2
        for xi in slopes:
            x = PhasePoint(p[0], p[1], *inward(E, p, xi))
            assert checker.defect(x) < 1e-9


@pytest.mark.parametrize("c", [0.6, 0.85])
def test_conjugation_near_chords_through_the_centre(c):
    # A chord through the centre has no dual coordinates t x + u y = 1;
    # the ordinate in tau carries no 0/0 form there, so chords that miss
    # the centre by 1e-8 or 1e-6 rad conjugate to full accuracy, and the
    # two tangents at the point, mirror images in the normal, map to
    # X equal and Y opposite.
    e = Ellipse(c)
    for theta in (0.3, 1.1, 2.0):
        p = e.boundary_point(theta)
        r = math.hypot(*p)
        for delta in (1e-8, -1e-8, 1e-6, -1e-6):
            ux, uy = -p[0] / r, -p[1] / r
            vx = math.cos(delta) * ux - math.sin(delta) * uy
            vy = math.sin(delta) * ux + math.cos(delta) * uy
            s = caustic_of_line(e, p, slope_of(vx, vy)).s
            checker = ConjugationChecker(e, s)
            assert checker.defect(PhasePoint(p[0], p[1], vx, vy)) < 1e-13
            a, b = (PhasePoint(p[0], p[1], *inward(e, p, xi))
                    for xi in tangent_slopes(e, p, s))
            assert checker.defect(a) < 1e-13
            assert checker.defect(b) < 1e-13
            Pa, Pb = phase_to_legendre(e, s, a), phase_to_legendre(e, s, b)
            assert Pa.X == Pb.X
            assert point_distance(Pb, neg(Pa)) < 1e-13


def test_conjugation_defect_free_function():
    x = caustic_phase_point(E, 0.8, 1.0)
    assert conjugation_defect(E, 0.8, x) < 1e-9


def test_point_distance_properties():
    L = LegendreCurve(0.7)
    rng = np.random.default_rng(8)
    for _ in range(30):
        P, Q = random_point(L, rng), random_point(L, rng)
        assert point_distance(P, P) == 0.0
        assert point_distance(P, Q) == point_distance(Q, P)
        assert point_distance(P, Infinity) > 0.0
    assert point_distance(Infinity, Infinity) == 0.0
    # Resolution well below the square root of machine epsilon.
    P = LegendrePoint(2.0, math.sqrt(2.0 * 1.0 * (2.0 - 0.7)))
    Q = LegendrePoint(P.X * (1.0 + 1e-12), P.Y)
    d = point_distance(P, Q)
    assert 1e-14 < d < 1e-11


def test_add_rejects_off_curve_points():
    L = LegendreCurve(0.5)
    with pytest.raises(ValueError):
        add(L, LegendrePoint(0.3, 9.0), Infinity)
    with pytest.raises(ValueError):
        mul(L, 2, LegendrePoint(0.3, 9.0))
