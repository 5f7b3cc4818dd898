"""Periods of Legendre curves, Betti coordinates, rotation numbers."""

import math

import numpy as np
import pytest

from caustica import Ellipse, betti_billiard, lambda_for_beta2, omega2, rotation_number
from caustica.conics import advance, caustic_phase_point
from caustica.periods import (BettiModel, betti_scan, manin_residual, omega1,
                              omega1_quadrature, omega2_above_one,
                              omega2_above_one_quadrature, omega2_quadrature,
                              period_pair, picard_fuchs_residual)

E = Ellipse(0.6)


def agm(a, b):
    for _ in range(60):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) < 1e-17 * a:
            break
    return a


def test_omega2_two_routes_agree():
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert omega2(lam) == pytest.approx(omega2_quadrature(lam), rel=1e-11)


def test_omega1_two_routes_agree():
    # The series route gives the purely imaginary period, the
    # quadrature route its magnitude.
    for lam in (0.1, 0.5, 0.9):
        a = omega1(lam)
        q = omega1_quadrature(lam)
        assert a.real == pytest.approx(0.0, abs=1e-12)
        assert a.imag == pytest.approx(q, rel=1e-11)


def test_omega2_agm_closed_form():
    # omega2(lam) = pi / AGM(1, sqrt(1 - lam)) at the symmetric point.
    assert omega2(0.5) == pytest.approx(math.pi / agm(1.0, math.sqrt(0.5)), rel=1e-13)
    for lam in (0.2, 0.8):
        assert omega2(lam) == pytest.approx(math.pi / agm(1.0, math.sqrt(1.0 - lam)), rel=1e-13)


def test_omega2_above_one_routes_agree():
    for lam in (1.2, 1.8, 2.4):
        assert omega2_above_one(lam) == pytest.approx(
            omega2_above_one_quadrature(lam), rel=1e-10)


def test_period_pair_components():
    lam = 0.4
    w1, w2 = period_pair(lam)
    assert w2 == pytest.approx(omega2(lam), rel=1e-13)
    assert w1 == pytest.approx(omega1(lam), rel=1e-13)
    # Real period real, imaginary period purely imaginary.
    assert w1.real == pytest.approx(0.0, abs=1e-12)
    assert w2.imag == 0.0 or abs(w2.imag) < 1e-12


def test_legendre_symmetry_of_periods():
    # lam -> 1 - lam swaps the period magnitudes.
    lam = 0.3
    assert omega2(lam) == pytest.approx(abs(omega1(1.0 - lam)), rel=1e-11)


def test_picard_fuchs_annihilates_periods():
    for lam in (0.2, 0.3, 0.5, 0.7, 0.85):
        assert picard_fuchs_residual(lam) < 1e-5


def test_betti_coordinates_basic_range():
    model = BettiModel(E)
    for lam in (1.1, 1.5, 2.0, 2.6):
        b = betti_billiard(E, lam)
        assert 0.0 < b.beta2 < 0.5
        assert b.beta2 == pytest.approx(model.beta2(lam), abs=1e-12)


def test_beta2_monotone_on_elliptic_range():
    lams = np.linspace(1.0 + 1e-6, 1.0 / E.c2 - 1e-6, 60)
    vals = [betti_billiard(E, lam).beta2 for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_beta2_limits():
    e = Ellipse(1.0 / math.sqrt(2.0))
    assert betti_billiard(e, 1e-9).beta2 == pytest.approx(0.25, abs=1e-6)
    assert betti_billiard(e, 1.0 / e.c2 - 1e-9).beta2 < 1e-3
    assert abs(betti_billiard(e, 1.0 - 1e-9).beta2 - 0.5) < 0.1
    assert abs(betti_billiard(e, 1.0 + 1e-9).beta2 - 0.5) < 0.1


def test_rotation_number_matches_beta2():
    s = 0.8
    rot = rotation_number(E, s, 200000)
    b2 = betti_billiard(E, s / E.c2).beta2
    assert rot == pytest.approx(b2, abs=1e-4)


def test_rotation_number_is_the_advance_loop():
    # The lean float loop must reproduce the PhasePoint loop bit for bit.
    s, n_iter = 0.8, 5000
    x = caustic_phase_point(E, s, 0.3)
    rb2 = math.sqrt(E.b2)
    th_prev = math.atan2(x.y / rb2, x.x)
    total = 0.0
    for _ in range(n_iter):
        x = advance(E, x)
        th = math.atan2(x.y / rb2, x.x)
        d = math.fmod(th - th_prev, 2.0 * math.pi)
        if d > 0.0:
            d -= 2.0 * math.pi
        total += d
        th_prev = th
    assert rotation_number(E, s, n_iter) == -total / (2.0 * math.pi * n_iter)


def test_rotation_number_needs_elliptic_caustic():
    with pytest.raises(ValueError):
        rotation_number(E, 0.2, 1000)


def test_lambda_for_beta2_inverts():
    for target in (1.0 / 7.0, 0.2, 0.3, 0.45):
        lam = lambda_for_beta2(E, target)
        assert 1.0 < lam < 1.0 / E.c2
        assert betti_billiard(E, lam).beta2 == pytest.approx(target, abs=1e-11)
    with pytest.raises(ValueError):
        lambda_for_beta2(E, 0.6)
    with pytest.raises(ValueError):
        lambda_for_beta2(E, 0.0)


def test_lambda_for_one_seventh_value():
    assert lambda_for_beta2(E, 1.0 / 7.0) == pytest.approx(2.3638182486588675, abs=1e-9)


def test_betti_scan_preserves_input_order():
    lams = [1.4, 1.1, 2.0]
    rows = betti_scan(E, lams)
    assert len(rows) == 3
    for lam, row in zip(lams, rows):
        b = betti_billiard(E, lam)
        assert row.beta1 == pytest.approx(b.beta1, abs=1e-12)
        assert row.beta2 == pytest.approx(b.beta2, abs=1e-12)


def test_manin_residual_matches_closed_form():
    # The Manin map of the bounce section equals
    # 2c sqrt(1-c^2) (1 - c^2 lam)^(-3/2); the residual is the distance
    # from that closed value.
    assert manin_residual(E, 1.5) < 1e-6
    for lam in (1.2, 1.8, 2.4):
        assert manin_residual(E, lam) < 1e-5
