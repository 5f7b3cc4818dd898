"""Periods of Legendre curves, Betti coordinates, rotation numbers."""

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from scipy.special import cython_special

import caustica
from caustica import Ellipse, betti_billiard, lambda_for_beta2, omega2, rotation_number
from caustica.conics import _density_roots, advance, caustic_phase_point, invariant_density
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


# References for the scalar R_F binding (scipy.special.cython_special):
# the same closed forms on the scipy.special.elliprf ufunc.
def _ufunc_ratio(U, half_w2, u_gap):
    return float(0.5 - sp.elliprf(U, U - 1.0, max(0.0, u_gap)) / (2.0 * half_w2))


def _ufunc_beta2(U, lam):
    if lam < 1.0:
        return _ufunc_ratio(U, sp.elliprf(1.0, 0.0, 1.0 - lam), U - lam)
    return _ufunc_ratio(U, sp.elliprf(lam, lam - 1.0, 0.0), U - lam)


def _ufunc_beta2_gap(U, g):
    if g > 0.0:
        return _ufunc_ratio(U, sp.elliprf(1.0 + g, g, 0.0), (U - 1.0) - g)
    return _ufunc_ratio(U, sp.elliprf(1.0, 0.0, -g), (U - 1.0) - g)


_GAPS = [sign * 10.0 ** -k for k in range(3, 16) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("c", [0.3, 0.6, 0.9])
def test_scalar_rf_is_the_ufunc_bit_for_bit(c, monkeypatch):
    e = Ellipse(c)
    model = BettiModel(e)
    U = model.U
    # Both branches, the focal gaps, and lambda within 1e-12 of 1/c^2.
    lams = (np.linspace(0.01, U - 0.01, 60).tolist() + [1.0 + g for g in _GAPS]
            + [U + k * 1e-13 for k in range(-10, 10)])
    for lam in lams:
        assert model.beta2(lam).hex() == _ufunc_beta2(U, lam).hex(), lam
    for g in _GAPS + np.linspace(-0.9, U - 1.0, 60).tolist():
        assert model._beta2_gap(g).hex() == _ufunc_beta2_gap(U, g).hex(), g
    for lam in np.linspace(0.001, 0.999, 60).tolist() + [1.0 - 10.0 ** -k for k in range(3, 16)]:
        assert omega2(lam).hex() == (2.0 * float(sp.elliprf(1.0, 0.0, 1.0 - lam))).hex()
    for s in np.linspace(0.02, 0.98, 25).tolist():
        A, B = _density_roots(e, s)
        for z in np.linspace(-3.0, 3.0, 25).tolist():
            r = (z * z - A) * (z * z - B)
            if abs(r) < 1e-30:
                continue
            ref = 1.0 / (math.sqrt(abs(r)) * 2.0 * float(sp.elliprf(0.0, abs(A), abs(B))))
            assert invariant_density(e, s, z).hex() == ref.hex(), (s, z)
    # manin_residual with the ufunc put in place of the scalar binding.
    manin_lams = np.linspace(1.0 + 0.003, U - 0.003, 30).tolist()
    scalar = [manin_residual(e, lam) for lam in manin_lams]
    monkeypatch.setattr(cython_special, "elliprf", sp.elliprf)
    ufunc = [float(manin_residual(e, lam)) for lam in manin_lams]
    assert [v.hex() for v in scalar] == [v.hex() for v in ufunc]


def test_scalar_rf_entries_take_any_real_number():
    # The scalar binding matches no signature for an int or a numpy
    # float32 among floats; every entry hands it Python floats.
    model = BettiModel(E)
    e = Ellipse(0.5)  # 2 lies inside manin_residual's domain (1, 4)
    pairs = [(model.beta2(2), model.beta2(2.0)),
             (model.beta2(np.float32(2.5)), model.beta2(2.5)),
             (model._beta2_gap(1), model._beta2_gap(1.0)),
             (model._beta2_gap(np.float32(-0.5)), model._beta2_gap(-0.5)),
             # No int lies in omega2's domain (0, 1).
             (omega2(np.float32(0.5)), omega2(0.5)),
             (omega2(Fraction(1, 2)), omega2(0.5)),
             (manin_residual(e, 2), manin_residual(e, 2.0)),
             (manin_residual(e, np.float32(2.5)), manin_residual(e, 2.5)),
             (invariant_density(E, np.float32(0.25), 1), invariant_density(E, 0.25, 1.0)),
             (invariant_density(E, 0.75, 0), invariant_density(E, 0.75, 0.0))]
    for got, want in pairs:
        assert type(got) is float and type(want) is float
        assert got.hex() == want.hex()
    # A table whose c is a numpy float32 still reaches R_F with floats.
    e32 = Ellipse(np.float32(0.6))
    assert type(BettiModel(e32).beta2(2.0)) is float
    assert type(lambda_for_beta2(e32, 0.2)) is float
    assert manin_residual(e32, 1.5) >= 0.0


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
