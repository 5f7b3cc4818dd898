"""Periodic directions, counting law, connecting trajectories, scans."""

import functools
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caustica import (ConvergenceError, Ellipse, closure_error,
                      connecting_trajectory, count_periodic,
                      count_periodic_range, find_periodic_directions,
                      reflection_residual, segment_caustics)
from caustica import orbits
from caustica.cli import main
from caustica.conics import (Shot, _walk, advance, advance_batch,
                             caustic_of_line, caustic_phase_point, first_hit,
                             simulate)
from caustica.orbits import (CERT_TOL, LAYER_BAND, AnglePair, PeriodicDirection,
                             _certify, _defect, _grid_passages, _line_roots,
                             _pair_angles, angle_pair_scan, boomerang_scan,
                             caustic_extrema, hole_scan, parallelogram_angle_pairs,
                             predicted_count)
from caustica.periods import BettiModel, lambda_for_beta2

E = Ellipse(0.6)
P = (0.2, 0.3)

# Counts of period-dividing-n directions from P, frozen from a
# 4096-cell scan with bisection refinement.
COUNTS = {3: 4, 4: 0, 5: 4, 6: 8, 7: 4, 8: 8, 9: 8, 10: 12, 11: 8, 12: 16}


def test_caustic_extrema_on_confocal_conics():
    ex = caustic_extrema(E, P)
    assert ex.M == pytest.approx(0.45860009363293824, abs=1e-12)
    assert ex.m == pytest.approx(0.03139990636706175, abs=1e-12)
    # p lies on both confocal conics.
    for s in (ex.M, ex.m):
        assert P[0] ** 2 / s + P[1] ** 2 / (s - E.c2) == pytest.approx(1.0, abs=1e-10)
    assert ex.m < E.c2 < ex.M
    # The two parameters sum to c^2 + |p|^2 (trace of the quadratic).
    assert ex.M + ex.m == pytest.approx(E.c2 + P[0] ** 2 + P[1] ** 2, abs=1e-12)


def test_find_periodic_directions_certified():
    for n in (3, 4, 5, 6):
        dirs = find_periodic_directions(E, P, n)
        for d in dirs:
            assert d.closure_error < 1e-8
            assert closure_error(E, P, d.direction, d.period) < 1e-8
            assert not d.caustic.is_degenerate


def test_batched_certification_matches_scalar_closure_error():
    # Certification runs every candidate in lockstep; its errors are the
    # scalar closure_error bit for bit, axis orbits included.
    for p, n in ((P, 7), (P, 12), (P, 31), ((0.0, 0.3), 12)):
        dirs = find_periodic_directions(E, p, n)
        assert dirs
        for d in dirs:
            assert d.closure_error == closure_error(E, p, d.direction, n)


# A generic point, off the axes and the foci.
GENERIC = (0.614500423, -0.339779057)


@pytest.mark.parametrize("p", [P, GENERIC])
def test_range_counts_equal_one_n_calls(p, monkeypatch):
    ns = range(2, 61)
    one = [count_periodic(E, p, n) for n in ns]
    assert count_periodic_range(E, p, ns) == one
    # Small bands split the range into many lockstep walks.
    monkeypatch.setattr(orbits, "_BAND_ROWS", 40)
    assert count_periodic_range(E, p, ns) == one
    # Any order, repeats allowed; the result follows ns.
    assert count_periodic_range(E, p, [9, 3, 9, 4]) == [one[7], one[1], one[7], one[2]]
    with pytest.raises(ValueError, match="n >= 2"):
        count_periodic_range(E, p, [3, 1])


@pytest.mark.parametrize("p", [P, GENERIC])
def test_range_directions_equal_one_n_calls(p):
    def key(d):
        return d.direction, d.period, d.caustic, d.closure_error.hex()

    walked = list(_certify(E, p, range(2, 61)))
    assert [n for n, _, _ in walked] == list(range(2, 61))
    for n, dirs, _ in walked:
        assert list(map(key, dirs)) == list(map(key, find_periodic_directions(E, p, n)))


def test_range_ending_in_an_n_without_candidates():
    # n = 2 and 4 have no candidate at P; the walk has retired every row
    # before it reaches n = 4, which must read no state.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert count_periodic_range(E, P, [2, 3, 4]) == [
            (0, 0, 0, 0), (4, 4, 0, 0), (0, 0, 0, 0)]


def test_range_warns_per_n_like_one_n_calls(monkeypatch):
    # With a tolerance nothing meets, every n with candidates reports
    # them: n, the number rejected and the worst closure error.
    monkeypatch.setattr(orbits, "CERT_TOL", 1e-17)
    ns = range(3, 13)
    with warnings.catch_warnings(record=True) as one:
        warnings.simplefilter("always")
        for n in ns:
            count_periodic(E, P, n)
    with warnings.catch_warnings(record=True) as walked:
        warnings.simplefilter("always")
        count_periodic_range(E, P, ns)
    assert len(one) == 9  # n = 4 has no candidate
    assert [(w.category, str(w.message)) for w in walked] == \
        [(w.category, str(w.message)) for w in one]
    assert all(w.category is RuntimeWarning for w in one)


def test_count_periodic_frozen_values():
    for n, expect in COUNTS.items():
        bd = count_periodic(E, P, n)
        assert bd.total == expect
        assert bd.total == bd.certified + bd.layer


def test_counts_match_direction_lists():
    for n in (3, 5, 6, 8):
        bd = count_periodic(E, P, n)
        assert bd.certified == len(find_periodic_directions(E, P, n))


def _scan_periodic(e, p, n, cells=1 << 13):
    """Periodic directions from p found without the level structure:
    sign changes of the signed distance of p from the n-th outgoing line
    (the last row of _grid_passages) over a dense direction grid (uniform, plus geometric clusters at the
    four focal directions, where the return map steepens), each refined
    by bisection and kept if its closure error is below CERT_TOL.
    Returns the counts outside and inside the focal layer."""

    def defect(phis):
        return _grid_passages(e, p, p, phis, n)[-1]

    offsets = np.logspace(-9.0, -1.0, 400)
    focal = [math.atan2(p[1], p[0] - sg * e.c) + turn
             for sg in (1.0, -1.0) for turn in (0.0, math.pi)]
    grid = np.unique(np.concatenate(
        [np.linspace(0.0, 2.0 * math.pi, cells, endpoint=False)]
        + [f + sg * offsets for f in focal for sg in (1.0, -1.0)]) % (2.0 * math.pi))
    vals = defect(grid)
    j = np.flatnonzero(vals * np.roll(vals, -1) < 0.0)
    lo, f_lo = grid[j], vals[j]
    hi = np.roll(grid, -1)[j]
    hi = np.where(hi < lo, hi + 2.0 * math.pi, hi)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        f_mid = defect(mid)
        left = np.sign(f_mid) == np.sign(f_lo)
        lo, f_lo, hi = (np.where(left, mid, lo), np.where(left, f_mid, f_lo),
                        np.where(left, hi, mid))
    outside = inside = 0
    for phi in (0.5 * (lo + hi)).tolist():
        if closure_error(e, p, (math.cos(phi), math.sin(phi)), n) < CERT_TOL:
            lam = caustic_of_line(e, p, math.tan(phi)).s / e.c2
            if abs(lam - 1.0) < LAYER_BAND:
                inside += 1
            else:
                outside += 1
    return outside, inside


@pytest.mark.parametrize("c, p", [(0.6, P), (0.660376, (0.614500423, -0.339779057))])
def test_certified_counts_match_a_direct_scan(c, p):
    # The second point is generic, off the axes and foci.  Layer
    # directions that still close within CERT_TOL for these small n are
    # counted in the layer term, never as certified.
    e = Ellipse(c)
    for n in range(3, 21):
        bd = count_periodic(e, p, n)
        outside, inside = _scan_periodic(e, p, n)
        assert outside == bd.certified, n
        assert inside <= bd.layer, n


def test_focal_layer_counts_every_level_above_the_extreme():
    # Next to the focal segment the whole elliptic range (1, M/c^2)
    # lies in the layer band, so every elliptic level k/n in
    # (beta2(M/c^2), 1/2) is a layer level with two lines.  25/53 sits
    # just above beta2(M/c^2) = 0.4716957.
    e = Ellipse(0.6)
    p = (0.3, 1e-5)
    lam_M = caustic_extrema(e, p).M / e.c2
    assert 1.0 < lam_M < 1.0 + LAYER_BAND
    b_M = BettiModel(e).beta2(lam_M)
    assert b_M < 25 / 53 < b_M + 1e-5
    assert count_periodic(e, p, 53) == (8, 0, 8, 0)
    for n in range(3, 302, 2):
        levels = sum(b_M < k / n < 0.5 for k in range(1, n))
        assert count_periodic(e, p, n) == (4 * levels, 0, 4 * levels, 0), n


@pytest.mark.parametrize("b", [1e-8, 3e-9, 1e-9])
def test_focal_layer_kept_when_the_extreme_rounds_to_one(b):
    # At b <= ~5e-9, M/c^2 rounds to exactly 1 and beta2 there to 1/2;
    # beta2 from the gap lambda_M - 1 = b^2/(c^2 - m) keeps the layer.
    # The 40-digit count is 20 at all three points.
    e = Ellipse(0.6)
    p = (0.3, b)
    assert count_periodic(e, p, 301) == (20, 0, 20, 0)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        c2, a2, b2 = mp.mpf("0.36"), mp.mpf(p[0]) ** 2, mp.mpf(b) ** 2
        tr = a2 + b2 + c2
        lam = (tr + mp.sqrt(tr * tr - 4 * a2 * c2)) / (2 * c2)
        U = 1 / c2
        beta = 0.5 - mp.elliprf(U, U - 1, U - lam) / (2 * mp.elliprf(lam, lam - 1, 0))
        levels = sum(beta < mp.mpf(k) / 301 < 0.5 for k in range(1, 301))
    assert 4 * levels == 20


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.2, 0.9), r=st.floats(0.05, 0.95),
       t=st.floats(0.0, 2.0 * math.pi), n=st.integers(3, 40))
def test_root_lines_touch_their_level_caustic(c, r, t, n):
    # Every returned line through p is tangent to s_k = c^2 lambda_k,
    # beta2(lambda_k) is a level k/n (up to the ulp that s/c^2 may move
    # lambda_k by, next to the layer edge) and each level has two lines.
    e = Ellipse(c)
    p = (r * math.cos(t), r * math.sqrt(e.b2) * math.sin(t))
    model = BettiModel(e)
    roots, _ = _line_roots(e, p, n)
    per_level = {}
    for phi, s in roots:
        assert abs(caustic_of_line(e, p, math.tan(phi)).s - s) <= 1e-12
        level = model.beta2(s / e.c2) * n
        assert abs(level - round(level)) <= 1e-9
        per_level.setdefault(s, set()).add(phi)
    assert all(len(phis) == 2 for phis in per_level.values())


def test_predicted_count_linear_law():
    # Odd periods follow c_o n with c_o = 2 - 4 beta2(M/c^2).
    assert predicted_count(E, P, 3) == pytest.approx(3 * 0.721649293498, abs=1e-8)
    assert predicted_count(E, P, 5) == pytest.approx(5 * 0.721649293498, abs=1e-8)
    for n in range(3, 31, 2):
        assert abs(COUNTS.get(n, count_periodic(E, P, n).total)
                   - predicted_count(E, P, n)) <= 4.0
    with pytest.raises(ValueError):
        predicted_count(E, (E.c, 0.0), 3)


# Points on the axes: one confocal conic through each is degenerate,
# so one kind of caustic has no lines through it.
AXIS_POINTS = [(0.8, 0.0), (0.3, 0.0), (0.0, 0.4), (0.0, 0.7)]


@functools.lru_cache(maxsize=None)
def _counts_to_301(p):
    """count_periodic_range(E, p, range(2, 302)), computed once per p."""
    return count_periodic_range(E, p, range(2, 302))


def test_predicted_count_on_the_axes():
    # The same closed form as off the axes; the kind with no lines takes
    # beta2 = 1/2 and adds nothing.  Odd counts stay within criterion
    # 4's bound, |count - c_o n| <= 4.
    for p in AXIS_POINTS:
        for n, bd in zip(range(2, 302), _counts_to_301(p)):
            if n % 2:
                assert abs(bd.total - predicted_count(E, p, n)) <= 4.0, (p, n)


@pytest.mark.parametrize("p", [P, GENERIC, (0.8, 0.0), (0.0, 0.4)])
def test_counts_are_level_arithmetic_at_the_extremes(p):
    # A kind whose extreme has beta2 = b sees the levels k/n in (b, 1/2),
    # ceil(n/2) - 1 - floor(n b) of them, four directions each (the
    # hyperbolic kind for even n only); each axis through p adds its two
    # two-bounce directions for even n.  Certification finds exactly
    # these.
    ell, hyp = orbits._extremes(E, p, BettiModel(E))
    axes = (p[0] == 0.0) + (p[1] == 0.0)
    for n, bd in zip(range(2, 302), _counts_to_301(p)):
        kinds = [ell] if n % 2 else [ell, hyp]
        levels = sum((n + 1) // 2 - 1 - math.floor(n * k[2]) for k in kinds if k)
        assert bd.rejected == 0, n
        assert bd.total == 4 * levels + (0 if n % 2 else 2 * axes), n


def test_closure_error_separates_periodic_from_generic():
    d = find_periodic_directions(E, P, 3)[0]
    assert closure_error(E, P, d.direction, 3) < 1e-8
    assert closure_error(E, P, (1.0, 0.5), 3) > 1e-3


def test_connecting_trajectory_contract():
    p1, p2 = (0.1, 0.2), (-0.3, 0.1)
    n = 12
    traj = connecting_trajectory(E, p1, p2, n)
    assert len(traj) == n - 1
    chain = [p1] + [q.p for q in traj] + [p2]
    worst = max(reflection_residual(E, chain[j], chain[j + 1], chain[j + 2])
                for j in range(len(chain) - 2))
    assert worst < 1e-10
    caus = segment_caustics(E, chain)
    assert len(caus) == n
    assert float(np.var(caus)) < 1e-12


def test_connecting_trajectory_keeps_polish_that_passes_the_gate():
    # The longest quasi-Newton candidate has a worst residual of 6.5e-10,
    # inside the 1e-8 gate but not the 1e-12 asserted here; the Newton
    # polish reaches ~1e-16 while fsolve reports no progress.
    e = Ellipse(0.581618)
    p1, p2 = (0.142828747, -0.2331292), (0.214014181, -0.111429673)
    traj = connecting_trajectory(e, p1, p2, 3, seed=46)
    chain = [p1] + [q.p for q in traj] + [p2]
    assert max(reflection_residual(e, *chain[j:j + 3]) for j in range(2)) < 1e-12


def test_connecting_trajectory_needs_interior_points():
    for p1, p2 in [((1.5, 0.0), (-0.3, 0.1)), ((0.1, 0.9), (-0.3, 0.1)),
                   ((0.1, 0.2), (1.0, 0.0))]:
        with pytest.raises(ValueError, match="interior"):
            connecting_trajectory(E, p1, p2, 3)


def _chain_length(p1, verts, p2):
    chain = [p1] + list(verts) + [p2]
    return sum(math.hypot(r[0] - q[0], r[1] - q[1])
               for q, r in zip(chain, chain[1:]))


@pytest.mark.parametrize("c, p1, p2, seed", [
    # A root finder alone lands on saddles of length 3.91273 and 3.54474
    # here; the maximum is 4.13436 and 4.38124.
    (0.815135, (-0.067479425, -0.052246186), (0.044662965, 0.188644339), 38),
    (0.808388, (-0.681231142, -0.015602881), (-0.384348948, 0.280108129), 8),
])
def test_connecting_trajectory_is_the_longest_two_bounce_path(c, p1, p2, seed):
    # Independent oracle: the largest length over a 1440 x 1440 grid of
    # the two bounce angles, which lies below the true maximum by
    # O(grid step^2).
    e = Ellipse(c)
    traj = connecting_trajectory(e, p1, p2, 3, seed=seed)
    t = np.linspace(0.0, 2.0 * math.pi, 1440, endpoint=False)
    qx, qy = np.cos(t), math.sqrt(e.b2) * np.sin(t)
    first = np.hypot(qx - p1[0], qy - p1[1])
    last = np.hypot(qx - p2[0], qy - p2[1])
    middle = np.hypot(qx[:, None] - qx[None, :], qy[:, None] - qy[None, :])
    grid_max = float((first[:, None] + middle + last[None, :]).max())
    gap = _chain_length(p1, [q.p for q in traj], p2) - grid_max
    assert 0.0 <= gap <= 1e-3


def test_connecting_trajectory_frozen_length():
    e = Ellipse(0.801176)
    p1, p2 = (0.362809759, 0.160596913), (-0.051461487, -0.102263001)
    traj = connecting_trajectory(e, p1, p2, 4, seed=41)
    assert _chain_length(p1, [q.p for q in traj], p2) == pytest.approx(
        6.32927713477717, rel=1e-12)


def test_connecting_trajectory_deterministic_in_seed():
    t1 = connecting_trajectory(E, (0.1, 0.2), (-0.3, 0.1), 5, seed=3)
    t2 = connecting_trajectory(E, (0.1, 0.2), (-0.3, 0.1), 5, seed=3)
    assert [q.p for q in t1] == [q.p for q in t2]


def test_segment_caustics_constant_along_orbit():
    traj = simulate(E, Shot(0.0, 0.0, 0.8, 0.6), 15)
    caus = segment_caustics(E, [q.p for q in traj])
    assert max(caus) - min(caus) < 1e-10


def test_boomerang_scan_certifies_and_shrinks():
    tol = 1e-7
    hits = boomerang_scan(E, P, 6, tol)
    assert hits
    for h in hits:
        assert h.kind in (2, 3)
        assert 1 <= h.bounce < 6
        assert h.miss <= tol
        # Re-simulate: the segment leaving the bounce-th boundary point
        # passes within tol of P (bounce counts from the first hit).
        x = first_hit(E, Shot(P[0], P[1], h.direction[0], h.direction[1]))
        for _ in range(h.bounce):
            x = advance(E, x)
        nxt = advance(E, x)
        dx, dy = nxt.x - x.x, nxt.y - x.y
        L = math.hypot(dx, dy)
        cross = abs(dx * (P[1] - x.y) - dy * (P[0] - x.x)) / L
        assert cross <= tol
    tight = boomerang_scan(E, P, 6, tol / 10.0)
    key = lambda h: (round(math.atan2(h.direction[1], h.direction[0]), 8), h.bounce)
    assert set(map(key, tight)) <= set(map(key, hits))


def test_boomerang_scan_reports_a_root_on_a_grid_node():
    # From (0.2, 0) the shots along the major axis retrace themselves
    # through p at bounce 2.  theta = 0 is a node of the direction grid
    # where the passage distance is exactly 0.0; theta = pi, the mirror
    # shot, is found by a sign change.  Both are reported, once each.
    hits = boomerang_scan(Ellipse(0.6), (0.2, 0.0), 3, 1e-9, 1024)
    axial = [h for h in hits if abs(h.direction[1]) < 1e-12]
    assert sorted((h.direction[0], h.bounce, h.kind) for h in axial) == [
        (-1.0, 2, 2), (1.0, 2, 2)]


def test_boomerang_scan_rejects_boundary_point():
    with pytest.raises(ValueError):
        boomerang_scan(E, (1.0, 0.0), 4, 1e-7)


def test_hole_scan_certifies_and_shrinks():
    p1, p2, h = (0.1, 0.2), (-0.3, 0.1), (1.0, 0.0)
    tol = 0.05
    hits = hole_scan(E, p1, p2, h, 8, tol)
    assert hits
    for r in hits:
        assert 1 <= r.m < r.n <= 8
        assert r.miss_p <= tol
        assert r.miss_h <= tol
        # Re-simulate: bounce n lands within tol of the hole.
        x = first_hit(E, Shot(p1[0], p1[1], r.direction[0], r.direction[1]))
        for _ in range(r.n - 1):
            x = advance(E, x)
        assert math.hypot(x.x - h[0], x.y - h[1]) <= tol + 1e-12
    tight = hole_scan(E, p1, p2, h, 8, tol / 10.0)
    key = lambda r: (round(math.atan2(r.direction[1], r.direction[0]), 8), r.m, r.n)
    assert set(map(key, tight)) <= set(map(key, hits))


def test_hole_scan_rejects_focal_pair():
    with pytest.raises(ValueError):
        hole_scan(E, (E.c, 0.0), (-E.c, 0.0), (1.0, 0.0), 4, 1e-3)
    with pytest.raises(ValueError):
        hole_scan(E, (0.1, 0.2), (-0.3, 0.1), (0.5, 0.5), 4, 1e-3)


def test_angle_pair_scan_finds_realized_separation():
    # Take two certified periodic directions and ask for their angle.
    dirs = []
    for n in (3, 4, 5, 6):
        dirs.extend(find_periodic_directions(E, P, n))
    angs = sorted(math.atan2(d.direction[1], d.direction[0]) % (2 * math.pi)
                  for d in dirs)
    alpha = None
    for a1 in angs:
        for a2 in angs:
            sep = (a2 - a1) % (2.0 * math.pi)
            if 0.2 < sep < math.pi - 0.2:
                alpha = sep
                break
        if alpha:
            break
    assert alpha is not None
    pairs = angle_pair_scan(E, P, alpha, 6, 1e-6)
    assert pairs
    for pr in pairs:
        a1 = math.atan2(pr.dir1[1], pr.dir1[0])
        a2 = math.atan2(pr.dir2[1], pr.dir2[0])
        sep = (a2 - a1) % (2.0 * math.pi)
        assert min(abs(sep - alpha), abs(sep - (2 * math.pi - alpha))) < 1e-6
        assert closure_error(E, P, pr.dir1, pr.period1) < 1e-6
        assert closure_error(E, P, pr.dir2, pr.period2) < 1e-6
    with pytest.raises(ValueError):
        angle_pair_scan(E, P, 0.0, 4, 1e-6)


def test_parallelogram_angle_pairs():
    # Pairs are deduplicated up to real scaling, so assert on the
    # ratio classes: for the square lattice the right angle is realized
    # by ratio +-i.
    pairs, cm = parallelogram_angle_pairs(1j, math.pi / 2.0, 1)
    assert cm
    ratios = []
    for (a, b), (d, e) in pairs:
        rho = (a * 1j + b) / (d * 1j + e)
        ratios.append(rho)
        arg = np.angle(rho) % math.pi
        assert arg == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert any(abs(r - 1j) < 1e-9 or abs(r + 1j) < 1e-9 for r in ratios)
    # A transcendental-looking lattice admits no right-angle pairs
    # beyond those forced by complex multiplication; cm is reported.
    pairs2, cm2 = parallelogram_angle_pairs(0.123 + 1.456j, 1.0, 1)
    assert not cm2
    with pytest.raises(ValueError):
        parallelogram_angle_pairs(1j, 1.0, 0)
    with pytest.raises(ValueError):
        parallelogram_angle_pairs(1.0 - 1j, 1.0, 2)


def test_convergence_error_carries_best_candidate():
    assert issubclass(ConvergenceError, RuntimeError)
    err = ConvergenceError("no", [1, 2, 3])
    assert err.best == [1, 2, 3]


def test_certification_rejects_are_reported(monkeypatch):
    # At n = 2001 every candidate certifies; a full 2001-bounce walk
    # rejected five of them, which closed only to ~1.6e-6.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert count_periodic(E, P, 2001) == (1444, 1108, 336, 0)
        assert count_periodic(E, P, 1001) == (724, 556, 168, 0)
        assert main(["count-periodic", "--c", "0.6", "--px", "0.2", "--py", "0.3",
                     "--nmax", "30", "--out", os.devnull]) == 0
    # A candidate that misses CERT_TOL stays out of the total, is counted
    # in `rejected` and is reported in a RuntimeWarning.
    errs = sorted(d.closure_error for d in find_periodic_directions(E, P, 31))
    monkeypatch.setattr(orbits, "CERT_TOL", errs[len(errs) // 2])
    kept = sum(err < orbits.CERT_TOL for err in errs)
    with pytest.warns(RuntimeWarning,
                      match=rf"n = 31: {len(errs) - kept} of {len(errs)} candidate"):
        bd = count_periodic(E, P, 31)
    assert (bd.certified, bd.rejected) == (kept, len(errs) - kept)
    assert bd.total == bd.certified + bd.layer


@pytest.mark.parametrize("p", [P, GENERIC])
def test_odd_counts_follow_the_linear_law_at_large_n(p):
    # Criterion 4's bound, |count - c_o n| <= 4, where a full n-bounce
    # walk rejected true directions (1439 against 1444.02 at n = 2001).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = count_periodic_range(E, p, [1001, 2001, 4001])
    for n, bd in zip([1001, 2001, 4001], counts):
        assert bd.rejected == 0, n
        assert abs(bd.total - predicted_count(E, p, n)) <= 4.0, n


def test_counts_equal_at_mirror_images():
    # The table is symmetric in both axes, so the four mirror images of
    # a point see mirrored direction sets.
    ns = range(2, 202)
    a, b = P
    counts = count_periodic_range(E, P, ns)
    for q in ((-a, b), (a, -b), (-a, -b)):
        assert count_periodic_range(E, q, ns) == counts, q


def test_mid_chord_defect_rejects_mutated_candidates():
    # Both tangent lines of a level are periodic on one caustic, so only
    # a defect that compares chords tells them apart: the forward half of
    # one line against the backward half of the other is rejected, and
    # so is every root line turned by 1e-7 rad.
    n = 301
    k, j = n - n // 2, n // 2
    roots, _ = _line_roots(E, P, n)
    for (phi1, s1), (phi2, s2) in zip(roots[::2], roots[1::2]):
        assert s1 == s2
        for turn in (0.0, math.pi):
            u = (math.cos(phi1 + turn), math.sin(phi1 + turn))
            w = (math.cos(phi2 + turn), math.sin(phi2 + turn))
            assert closure_error(E, P, u, n) < CERT_TOL
            assert closure_error(E, P, w, n) < CERT_TOL
            fwd = _walk(E, *P, *u, k)[-1]
            for sg in (1.0, -1.0):
                back = _walk(E, *P, -sg * w[0], -sg * w[1], j)[-1]
                assert _defect(*fwd, *back) > 1e3 * CERT_TOL
            for phi in (phi1, phi2):
                shot = (math.cos(phi + turn + 1e-7), math.sin(phi + turn + 1e-7))
                assert closure_error(E, P, shot, n) > 10.0 * CERT_TOL


def _full_walk_errors(e, p, dirs_by_n):
    """Reference closure errors of a full n-bounce walk: the distance of
    p from the outgoing line after n bounces plus the mismatch of the
    outgoing direction with the start one, for every (n, direction) of
    dirs_by_n, in that order.  All shots are stepped together; the rows
    are stacked by n in descending order and stop moving at their n."""
    rows = [(n, v) for n, dirs in dirs_by_n for v in dirs]
    order = sorted(range(len(rows)), key=lambda i: -rows[i][0])
    ns = np.array([rows[i][0] for i in order])
    v = np.array([rows[i][1] for i in order], dtype=float).reshape(-1, 2)
    v /= np.sqrt((v * v).sum(axis=1))[:, None]
    x, y = np.full(len(rows), p[0]), np.full(len(rows), p[1])
    wx, wy = v[:, 0].copy(), v[:, 1].copy()
    err = np.empty(len(rows))
    for step in range(1, int(ns.max(initial=0)) + 1):
        live = int(np.count_nonzero(ns >= step))
        x, y, wx, wy = advance_batch(e, x[:live], y[:live], wx[:live], wy[:live])
        end = np.flatnonzero(ns[:live] == step)
        err[end] = (np.abs(wx[end] * (p[1] - y[end]) - wy[end] * (p[0] - x[end]))
                    + np.hypot(wx[end] - v[end, 0], wy[end] - v[end, 1]))
    out = np.empty(len(rows))
    out[order] = err
    return out


@pytest.mark.parametrize("p", [P, GENERIC])
def test_certified_directions_close_on_a_full_walk(p):
    # Every direction certified by the mid-chord defect for n <= 301 also
    # closes below CERT_TOL on a walk of all its n bounces.
    walked = [(n, [d.direction for d in dirs])
              for n, dirs, _ in _certify(E, p, range(2, 302))]
    assert sum(len(dirs) for _, dirs in walked) > 10000
    assert _full_walk_errors(E, p, walked).max() < CERT_TOL


def test_closure_error_from_a_boundary_start():
    # poncelet --rot 5/11 at c = 0.6: the start lies on the boundary,
    # where -v points out of the table, so the backward half starts from
    # the reversed incoming state.  A start turned by 1e-6 rad misses.
    e = Ellipse(0.6)
    s = e.c2 * lambda_for_beta2(e, 5 / 11)
    for theta in np.linspace(0.1, 6.1, 13):
        x = caustic_phase_point(e, s, theta)
        assert closure_error(e, x.p, x.v, 11) < 1e-10
        assert _full_walk_errors(e, x.p, [(11, [x.v])])[0] < 1e-8
        c, sn = math.cos(1e-6), math.sin(1e-6)
        turned = (c * x.vx - sn * x.vy, sn * x.vx + c * x.vy)
        assert closure_error(e, x.p, turned, 11) > 100.0 * CERT_TOL
    with pytest.raises(ValueError, match="n >= 1"):
        closure_error(e, x.p, x.v, 0)


def _pair_angles_quadratic(angles, alpha, tol):
    """Reference for orbits._pair_angles: every ordered pair of entries
    tested in turn."""
    pairs = []
    for ang, n1, d1 in angles:
        target = (ang + alpha) % (2.0 * math.pi)
        for ang2, n2, d2 in angles:
            if abs((ang2 - target + math.pi) % (2.0 * math.pi) - math.pi) < 1e-7:
                if d1.closure_error < tol and d2.closure_error < tol:
                    pairs.append(AnglePair(d1.direction, d2.direction, n1, n2))
    return pairs


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(1e-3, math.pi - 1e-3),
       shots=st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                                st.one_of(st.none(), st.floats(-2e-7, 2e-7)),
                                st.one_of(st.none(), st.floats(-2e-7, 2e-7)),
                                st.booleans()), max_size=30))
def test_window_pairing_equals_the_quadratic_scan(alpha, shots):
    # Each shot may bring a partner near angle + alpha, inside or just
    # outside the 1e-7 window; an anchored shot sits where angle + alpha
    # is near 2 pi, so its partner may wrap through 0.  Half the shots
    # miss the closure tolerance.
    turn = 2.0 * math.pi
    angles = []
    for ang, anchor, off, closes in shots:
        if anchor is not None:
            ang = (turn - alpha + anchor) % turn
        err = 1e-9 if closes else 1.0
        news = [ang] if off is None else [ang, (ang + alpha + off) % turn]
        for k, a in enumerate(news):
            d = PeriodicDirection((math.cos(a), math.sin(a)), 2 + k, None, err)
            angles.append((a, 2 + k, d))
    angles.sort(key=lambda t: (t[0], t[1]))
    assert _pair_angles(angles, alpha, 1e-6) == _pair_angles_quadratic(angles, alpha, 1e-6)
