"""Periodic directions, counting law, connecting trajectories, scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caustica import (ConvergenceError, Ellipse, closure_error,
                      connecting_trajectory, count_periodic,
                      find_periodic_directions, reflection_residual,
                      segment_caustics)
from caustica.conics import (CausticKind, Shot, advance, caustic_of_line,
                             first_hit, simulate)
from caustica.orbits import (CERT_TOL, LAYER_BAND, _grid_passages, _line_roots,
                             angle_pair_scan, boomerang_scan, branch_intervals,
                             caustic_extrema, hole_scan,
                             parallelogram_angle_pairs, predicted_count)
from caustica.periods import BettiModel

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


def test_branch_intervals_cover_and_classify():
    arcs = branch_intervals(E, P)
    assert len(arcs) == 4
    kinds = [k for _, _, k in arcs]
    assert kinds.count(CausticKind.ELLIPTIC) == 2
    assert kinds.count(CausticKind.HYPERBOLIC) == 2
    # Contiguous cover of a half-turn of directions.
    for (lo1, hi1, _), (lo2, hi2, _) in zip(arcs, arcs[1:]):
        assert hi1 == pytest.approx(lo2, abs=1e-12)
    assert arcs[-1][1] - arcs[0][0] == pytest.approx(math.pi, abs=1e-12)
    # Midpoint kind agrees with the caustic of the line at that angle.
    for lo, hi, kind in arcs:
        mid = 0.5 * (lo + hi)
        assert caustic_of_line(E, P, math.tan(mid)).kind is kind
    # The focal directions are breakpoints.
    cuts = sorted(lo for lo, _, _ in arcs)
    foc1 = math.atan2(P[1], P[0] - E.c) % math.pi
    foc2 = math.atan2(P[1], P[0] + E.c) % math.pi
    assert any(abs(cut - foc1) < 1e-9 for cut in cuts)
    assert any(abs(cut - foc2) < 1e-9 for cut in cuts)


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
    assert count_periodic(e, p, 53) == (8, 0, 8)
    for n in range(3, 302, 2):
        levels = sum(b_M < k / n < 0.5 for k in range(1, n))
        assert count_periodic(e, p, n) == (4 * levels, 0, 4 * levels), n


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


def test_predicted_count_on_the_axes():
    # Axis points fall back to the total variation of beta2 over the
    # slope arcs; values frozen from a bounded scalar search for the
    # extreme of s on every arc.
    frozen = {(0.8, 0.0): (6.305869077489944, 4.203912718326629),
              (0.3, 0.0): (0.0, 3.104464685269276),
              (0.0, 0.4): (5.057139677334722, 6.648750686742616),
              (0.0, 0.7): (8.559349486564134, 8.98355722622889)}
    for p, (odd, even) in frozen.items():
        assert predicted_count(E, p, 3) == pytest.approx(odd, abs=1e-9)
        assert predicted_count(E, p, 4) == pytest.approx(even, abs=1e-9)


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
