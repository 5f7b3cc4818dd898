"""Cosine sums along orbits: constancy, window symmetrization, Moebius model."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caustica import Ellipse, lambda_for_beta2
from caustica.birkhoff import (birkhoff_sum, birkhoff_sums, h_weight,
                               moebius_fit, symmetric_sum, value_multiplicity,
                               window_sums)
from caustica.conics import (Shot, advance, caustic_phase_point,
                             classify_caustic, first_hit)

E = Ellipse(0.6)
S_PERIODIC = lambda_for_beta2(E, 1.0 / 7.0) * E.c2  # 7-periodic caustic
S_GENERIC = 0.62
S_HYPERBOLIC = 0.126  # orbits meet the boundary where |x| < 0.59


def test_birkhoff_sum_matches_direct_cosines():
    x = caustic_phase_point(E, S_GENERIC, 0.7)
    total = birkhoff_sum(E, x, 5)
    acc = 0.0
    y = x
    for _ in range(5):
        z = advance(E, y)
        acc += y.vx * z.vx + y.vy * z.vy
        y = z
    assert total == pytest.approx(acc, abs=1e-14)


def test_birkhoff_sum_constant_on_periodic_caustic():
    rng = np.random.default_rng(0)
    sums = [birkhoff_sum(E, caustic_phase_point(E, S_PERIODIC, rng.uniform(0.0, 2.0 * math.pi)), 7)
            for _ in range(20)]
    assert max(sums) - min(sums) < 1e-10


def test_birkhoff_sum_varies_on_generic_caustic():
    rng = np.random.default_rng(1)
    sums = [birkhoff_sum(E, caustic_phase_point(E, S_GENERIC, rng.uniform(0.0, 2.0 * math.pi)), 7)
            for _ in range(20)]
    assert max(sums) - min(sums) > 1e-3


def test_birkhoff_sum_rejects_degenerate_caustic():
    # A chord through a focus has no nondegenerate caustic.
    x = first_hit(E, Shot(E.c, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        birkhoff_sum(E, x, 3)
    with pytest.raises(ValueError):
        birkhoff_sum(E, caustic_phase_point(E, S_GENERIC, 0.3), 0)


@pytest.mark.parametrize("theta", [1.1, 1.9, 4.3])
def test_symmetric_sum_recenters_forward_sum(theta):
    # The window of half-width m centered at the (m+1)-th bounce of an
    # orbit equals the plain sum of 2m+1 cosines from the orbit start,
    # on an elliptic and a hyperbolic caustic.
    for s in (S_GENERIC, S_HYPERBOLIC):
        for m in (0, 3):
            z = caustic_phase_point(E, s, theta)
            plain = birkhoff_sum(E, z, 2 * m + 1)
            center = z
            for _ in range(m + 1):
                center = advance(E, center)
            assert symmetric_sum(E, center, m) == pytest.approx(plain, abs=1e-9)


def test_symmetric_sum_even_in_x():
    # The window sum is a function of x^2: reflecting the center across
    # the minor axis leaves it unchanged.
    for th in (0.4, 1.0, 2.2):
        a = symmetric_sum(E, caustic_phase_point(E, S_GENERIC, th), 3)
        b = symmetric_sum(E, caustic_phase_point(E, S_GENERIC, math.pi - th), 3)
        assert a == pytest.approx(b, abs=1e-9)


def test_moebius_fit_quality():
    fit = moebius_fit(E, S_GENERIC, 7)
    assert fit.residual < 1e-9
    assert abs(fit.det) > 1e-6
    # The fitted function reproduces fresh window values.
    for th in (0.33, 0.91, 1.77):
        x = caustic_phase_point(E, S_GENERIC, th)
        t = x.x ** 2
        w = symmetric_sum(E, x, 3)
        assert fit(t) == pytest.approx(w, abs=1e-8)


def test_moebius_fit_extrema_at_vertices():
    fit = moebius_fit(E, S_GENERIC, 7)
    # (a t + b)/(c t + d) is monotone in t, so the range over t in [0,1]
    # is spanned by the vertex values.
    v0, v1 = fit(0.0), fit(1.0)
    lo, hi = min(v0, v1), max(v0, v1)
    for th in np.linspace(0.01, math.pi - 0.01, 40):
        w = symmetric_sum(E, caustic_phase_point(E, S_GENERIC, th), 3)
        assert lo - 1e-8 <= w <= hi + 1e-8


def test_moebius_fit_rejects_periodic_caustic():
    with pytest.raises(ValueError):
        moebius_fit(E, S_PERIODIC, 7)
    with pytest.raises(ValueError):
        moebius_fit(E, S_GENERIC, 4)  # even window
    with pytest.raises(ValueError):
        moebius_fit(E, S_GENERIC, 7, samples=3)


def test_value_multiplicity_two_per_semi_ellipse():
    fit = moebius_fit(E, S_GENERIC, 7)
    for t in (0.15, 0.5, 0.85):
        assert value_multiplicity(E, S_GENERIC, 7, fit(t)) == 2
    # Values outside the attained range are never hit.
    v0, v1 = fit(0.0), fit(1.0)
    outside = max(v0, v1) + 0.5
    assert value_multiplicity(E, S_GENERIC, 7, outside) == 0


def test_value_multiplicity_at_a_grid_value():
    # A value equal to the window sum at a grid node makes that node an
    # exact zero, counted once; the mirror point x -> -x is a sign
    # change.  At the last node, the vertex x = -1, the other vertex
    # x = 1 attains the value up to rounding in the first cell.
    m = 3
    thetas = np.linspace(0.0, math.pi, 1025)
    thetas[0], thetas[-1] = 1e-9, math.pi - 1e-9
    hs = window_sums(E, S_GENERIC, thetas, m)
    assert value_multiplicity(E, S_GENERIC, 2 * m + 1, hs[100]) == 2
    assert value_multiplicity(E, S_GENERIC, 2 * m + 1, hs[-1]) == 2


README_THETAS = [math.pi * (j + 0.5) / 64 for j in range(64)]


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.05, 0.95), edge=st.sampled_from(["below focal",
       "above focal", "below boundary"]), ulps=st.integers(-4, 4),
       thetas=st.lists(st.floats(0.0, 2.0 * math.pi), max_size=4))
@example(c=0.6, edge="above focal", ulps=0, thetas=[])
@example(c=0.6, edge="above focal", ulps=1, thetas=[])
def test_degenerate_refusal_is_a_property_of_the_caustic(c, edge, ulps, thetas):
    # Within a few ulps of the edges of the 1e-9 degeneracy band a batch
    # is refused as degenerate exactly when classify_caustic calls s
    # degenerate, whichever reachable angles it samples.
    e = Ellipse(c)
    s = {"below focal": e.c2 * (1.0 - 1e-9), "above focal": e.c2 * (1.0 + 1e-9),
         "below boundary": 1.0 - 1e-9}[edge]
    for _ in range(abs(ulps)):
        s = math.nextafter(s, math.copysign(math.inf, ulps))
    degenerate = classify_caustic(e, s).is_degenerate
    batches = [[th] for th in README_THETAS + thetas] + [thetas]
    for batch in batches:
        for sums, what in ((birkhoff_sums, "Birkhoff sum"),
                           (window_sums, "window sum")):
            try:
                sums(e, s, batch, 1)
            except ValueError as exc:
                if "not reachable" in str(exc):
                    continue
                assert str(exc) == f"{what} undefined on a degenerate caustic"
                assert degenerate
            else:
                assert not degenerate or not batch


def test_batch_refuses_s_outside_the_unit_interval():
    # The range of s is checked before any row is walked.
    with pytest.raises(ValueError, match=r"confocal parameter s=1\.5 outside"):
        birkhoff_sums(Ellipse(0.6), 1.5, [0.3], 3)
    with pytest.raises(ValueError, match=r"confocal parameter s=-0\.1 outside"):
        window_sums(Ellipse(0.6), -0.1, [], 1)


def test_h_weight():
    q = E.boundary_point(0.9)
    assert h_weight(E, q) == pytest.approx(1.0 / (1.0 - E.c2 * q[0] ** 2))
    for p in ((0.2, 0.2), (1.0, math.nan)):  # a NaN residual is off too
        with pytest.raises(ValueError, match="h_weight needs a boundary point"):
            h_weight(E, p)
