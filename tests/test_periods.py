"""Periods of Legendre curves, Betti coordinates, rotation numbers."""

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import caustica
from caustica import Ellipse, betti_billiard, lambda_for_beta2, omega2, rotation_number
from caustica.conics import advance, caustic_phase_point
from caustica.periods import (BettiModel, betti_scan, manin_residual, omega2_quadrature,
                              picard_fuchs_residual)

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


def test_omega2_agm_closed_form():
    # omega2(lam) = pi / AGM(1, sqrt(1 - lam)) at the symmetric point.
    assert omega2(0.5) == pytest.approx(math.pi / agm(1.0, math.sqrt(0.5)), rel=1e-13)
    for lam in (0.2, 0.8):
        assert omega2(lam) == pytest.approx(math.pi / agm(1.0, math.sqrt(1.0 - lam)), rel=1e-13)


def test_legendre_symmetry_of_periods():
    # lam -> 1 - lam swaps the period magnitudes: the real period at lam
    # is |omega1| at 1 - lam, the integral over (-inf, 0] of dx/|y|, here
    # by x = -t^2.
    lam = 0.3
    mu = 1.0 - lam
    w1 = mp.quad(lambda t: 2 / mp.sqrt((t * t + 1) * (t * t + mu)), [0, 1, mp.inf])
    assert omega2(lam) == pytest.approx(float(w1), rel=1e-11)


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


# One library call in a fresh interpreter, then the scipy modules loaded.
_GUARD = """
import json, sys
from caustica import (Ellipse, betti_billiard, invariant_density, lambda_for_beta2,
                      manin_residual, picard_fuchs_residual)
e = Ellipse(0.6)
{"manin_residual": lambda: manin_residual(e, 1.5),
 "picard_fuchs_residual": lambda: picard_fuchs_residual(0.5),
 "invariant_density": lambda: invariant_density(e, 0.8, 0.1),
 "lambda_for_beta2": lambda: lambda_for_beta2(e, 0.2),
 "betti_billiard": lambda: betti_billiard(e, 1.5)}[sys.argv[1]]()
print(json.dumps([m for m in ("scipy.special", "scipy.integrate") if m in sys.modules]))
"""


def test_only_the_quadrature_reference_loads_scipy_integrate():
    # Every period of the library goes through Carlson's R_F
    # (scipy.special); scipy.integrate is for the quadrature reference.
    src = Path(caustica.__file__).resolve().parents[1]

    def loaded(name):
        proc = subprocess.run([sys.executable, "-c", _GUARD, name],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        return json.loads(proc.stdout.splitlines()[-1])

    r_f_users = ["manin_residual", "picard_fuchs_residual", "invariant_density",
                 "lambda_for_beta2"]
    # Two interpreters at a time.
    with ThreadPoolExecutor(max_workers=2) as pool:
        report = list(pool.map(loaded, r_f_users + ["betti_billiard"]))
    for name, mods in zip(r_f_users, report):
        assert mods == ["scipy.special"], name
    assert "scipy.integrate" in report[-1]
