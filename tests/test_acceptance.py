"""End-to-end checks of the advertised numerical contracts.

One test per contract; each prints a single pass/fail line with the
measured quantities and enforces the stated tolerance and time budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from caustica.birkhoff import (birkhoff_sum, moebius_fit, symmetric_sum,
                               value_multiplicity)
from caustica.conics import (Ellipse, Shot, advance, caustic_of_line,
                             caustic_phase_point, first_hit)
from caustica.dml import (ExponentialFamily, FiniteSet, ProjectiveLine,
                          ProjectiveMap, family_detect, triple_orbit_search)
from caustica.legendre import (LegendrePoint, add, billiard_section,
                               conjugation_defect, lambda_of, masser_point,
                               point_distance)
from caustica.orbits import (angle_pair_scan, boomerang_scan,
                             connecting_trajectory, closure_error,
                             count_periodic, find_periodic_directions,
                             hole_scan, predicted_count, reflection_residual,
                             segment_caustics)
from caustica.periods import (BettiModel, betti_billiard, lambda_for_beta2,
                              manin_residual, omega2, omega2_quadrature,
                              picard_fuchs_residual, rotation_number)

E6 = Ellipse(0.6)
P0 = (0.2, 0.3)


def report(k, ok, detail):
    print(f"criterion {k:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def agm(a, b):
    for _ in range(60):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) < 1e-17 * a:
            break
    return a


def test_criterion_01_betti_limit_values():
    t0 = time.perf_counter()
    e = Ellipse(1.0 / math.sqrt(2.0))
    b_low = betti_billiard(e, 1e-9).beta2
    b_top = betti_billiard(e, 1.0 / e.c2 - 1e-9).beta2
    below = [betti_billiard(e, 1.0 - 10.0 ** -k).beta2 for k in range(1, 10)]
    above = [betti_billiard(e, 1.0 + 10.0 ** -k).beta2 for k in range(1, 10)]
    db = [abs(b - 0.5) for b in below]
    da = [abs(b - 0.5) for b in above]
    mono = all(x > y for x, y in zip(db, db[1:])) and \
        all(x > y for x, y in zip(da, da[1:]))
    dt = time.perf_counter() - t0
    ok = (abs(b_low - 0.25) <= 1e-6 and b_top <= 1e-3
          and db[-1] <= 0.1 and da[-1] <= 0.1 and mono and dt < 1.0)
    report(1, ok, f"beta2(1e-9)={b_low:.9f}, beta2(top-1e-9)={b_top:.2e}, "
           f"gaps at 1-+1e-9 {db[-1]:.2e}/{da[-1]:.2e}, monotone={mono}, "
           f"{dt:.2f}s")
    assert abs(b_low - 0.25) <= 1e-6
    assert b_top <= 1e-3
    assert db[-1] <= 0.1 and da[-1] <= 0.1
    assert mono
    assert dt < 1.0


def test_criterion_02_period_identities():
    t0 = time.perf_counter()
    target = math.pi / agm(1.0, 1.0 / math.sqrt(2.0))
    d1 = abs(omega2(0.5) - target)
    d2 = abs(omega2_quadrature(0.5) - target)
    r3 = picard_fuchs_residual(0.3)
    r7 = picard_fuchs_residual(0.7)
    dt = time.perf_counter() - t0
    ok = d1 < 1e-10 and d2 < 1e-10 and r3 < 1e-5 and r7 < 1e-5 and dt < 1.0
    report(2, ok, f"omega2 routes off by {d1:.1e}/{d2:.1e}, "
           f"annihilator residuals {r3:.1e}/{r7:.1e}, {dt:.2f}s")
    assert d1 < 1e-10 and d2 < 1e-10
    assert r3 < 1e-5 and r7 < 1e-5
    assert dt < 1.0


def test_criterion_03_rotation_number_matches_betti():
    t0 = time.perf_counter()
    rot = rotation_number(E6, 0.8, 10 ** 6)
    b2 = betti_billiard(E6, 0.8 / E6.c2).beta2
    dt = time.perf_counter() - t0
    gap = abs(rot - b2)
    ok = gap < 1e-4 and dt < 10.0
    report(3, ok, f"|rotation - beta2| = {gap:.2e} after 1e6 bounces, "
           f"{dt:.2f}s")
    assert gap < 1e-4
    assert dt < 10.0


def test_criterion_04_count_growth_rates():
    t0 = time.perf_counter()
    ns = range(3, 302)
    D = {n: count_periodic(E6, P0, n).total for n in ns}
    c_o = predicted_count(E6, P0, 301) / 301.0
    c_e = predicted_count(E6, P0, 300) / 300.0
    odd = [n for n in ns if n % 2]
    even = [n for n in ns if n % 2 == 0]
    slope_o = np.polyfit(odd, [D[n] for n in odd], 1)[0]
    slope_e = np.polyfit(even, [D[n] for n in even], 1)[0]
    dev_o = max(abs(D[n] - c_o * n) for n in odd)
    dev_e = max(abs(D[n] - c_e * n) for n in even)
    dt = time.perf_counter() - t0
    ok_odd = abs(slope_o - c_o) <= 0.01 * c_o and dev_o <= 4.0
    ok_even = abs(slope_e - c_e) <= 0.01 * c_e and dev_e <= 4.0
    report(4, ok_odd and ok_even,
           f"odd slope {slope_o:.6f} vs c_o {c_o:.6f} (dev<= {dev_o:.1f}), "
           f"even slope {slope_e:.6f} vs c_e {c_e:.6f} (dev<= {dev_e:.1f}), "
           f"{dt:.1f}s")
    assert dt < 300.0
    assert abs(slope_o - c_o) <= 0.01 * c_o
    assert dev_o <= 4.0
    assert abs(slope_e - c_e) <= 0.01 * c_e, (
        f"even-parity slope {slope_e:.6f} is not within 1% of "
        f"c_e = {c_e:.6f}; it measures {slope_e / c_e:.4f} * c_e because "
        "each even-period direction family is counted once per "
        "orientation, doubling the even growth rate")
    assert dev_e <= 4.0


def test_criterion_05_rational_caustic_closes():
    t0 = time.perf_counter()
    lam_star = lambda_for_beta2(E6, 1.0 / 7.0)
    s_star = E6.c2 * lam_star
    rng = np.random.default_rng(11)
    errs = []
    for theta in rng.uniform(0.0, 2.0 * math.pi, 20):
        x = caustic_phase_point(E6, s_star, theta)
        errs.append(closure_error(E6, (x.x, x.y), (x.vx, x.vy), 7))
    dt = time.perf_counter() - t0
    worst = max(errs)
    ok = worst < 1e-6 and dt < 1.0
    report(5, ok, f"lambda*={lam_star:.12f}, worst 7-bounce closure "
           f"{worst:.2e} over 20 starts, {dt:.2f}s")
    assert worst < 1e-6
    assert dt < 1.0


def test_criterion_06_cosine_sum_constancy_and_moebius_model():
    t0 = time.perf_counter()
    lam_star = lambda_for_beta2(E6, 1.0 / 7.0)
    s_star = E6.c2 * lam_star
    rng = np.random.default_rng(12)
    thetas = rng.uniform(0.0, 2.0 * math.pi, 20)
    per = [birkhoff_sum(E6, caustic_phase_point(E6, s_star, t), 7)
           for t in thetas]
    spread_per = max(per) - min(per)
    s_gen = 0.62
    gen = [birkhoff_sum(E6, caustic_phase_point(E6, s_gen, t), 7)
           for t in thetas]
    spread_gen = max(gen) - min(gen)
    fit = moebius_fit(E6, s_gen, 7)
    lo, hi = sorted((fit(0.0), fit(1.0)))
    vals = [symmetric_sum(E6, caustic_phase_point(E6, s_gen, t), 3)
            for t in np.linspace(0.05, math.pi - 0.05, 41)]
    inside = all(lo - 1e-9 <= v <= hi + 1e-9 for v in vals)
    mult = [value_multiplicity(E6, s_gen, 7, fit(f))
            for f in (0.25, 0.5, 0.75)]
    dt = time.perf_counter() - t0
    ok = (spread_per < 1e-8 and spread_gen > 1e-3
          and fit.residual < 1e-6 and inside and mult == [2, 2, 2]
          and dt < 5.0)
    report(6, ok, f"periodic spread {spread_per:.1e}, generic spread "
           f"{spread_gen:.1e}, fit residual {fit.residual:.1e}, extrema at "
           f"vertices={inside}, interior multiplicities {mult}, {dt:.2f}s")
    assert spread_per < 1e-8
    assert spread_gen > 1e-3
    assert fit.residual < 1e-6
    assert inside
    assert mult == [2, 2, 2]
    assert dt < 5.0


def test_criterion_07_section_decomposition_and_residue():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst_dec, worst_def = 0.0, 0.0
    for _ in range(50):
        c = rng.uniform(0.25, 0.85)
        e = Ellipse(c)
        lam = 1.0 + (1.0 / e.c2 - 1.0) * rng.uniform(0.05, 0.95)
        s = e.c2 * lam
        L = lambda_of(e, s)
        B = billiard_section(e, L)
        M = masser_point(e, L)
        T = LegendrePoint(L.lam, 0.0)
        worst_dec = max(worst_dec, point_distance(add(L, B, T), M))
        x = caustic_phase_point(e, s, rng.uniform(0.0, 2.0 * math.pi))
        worst_def = max(worst_def, conjugation_defect(e, s, x))
    res = manin_residual(E6, 1.5)
    dt = time.perf_counter() - t0
    ok = worst_dec < 1e-9 and worst_def < 1e-9 and res < 1e-3 and dt < 10.0
    report(7, ok, f"decomposition {worst_dec:.1e}, conjugation defect "
           f"{worst_def:.1e} over 50 triples, residue gap {res:.1e}, "
           f"{dt:.2f}s")
    assert worst_dec < 1e-9
    assert worst_def < 1e-9
    assert res < 1e-3
    assert dt < 10.0


def test_criterion_08_interior_connection():
    t0 = time.perf_counter()
    p1, p2 = (0.1, 0.2), (-0.3, 0.1)
    traj = connecting_trajectory(E6, p1, p2, 12)
    verts = [(pt.x, pt.y) for pt in traj.points]
    assert len(verts) == 11
    full = [p1] + verts + [p2]
    res = [reflection_residual(E6, full[j], full[j + 1], full[j + 2])
           for j in range(11)]
    var = np.var(segment_caustics(E6, full))
    dt = time.perf_counter() - t0
    ok = max(res) < 1e-8 and var < 1e-8 and dt < 5.0
    report(8, ok, f"worst reflection residual {max(res):.1e} at 11 bounces, "
           f"caustic variance {var:.1e}, {dt:.2f}s")
    assert max(res) < 1e-8
    assert var < 1e-8
    assert dt < 5.0


def test_criterion_09_exact_orbit_search():
    t0 = time.perf_counter()
    bexp = ProjectiveMap([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    lexp = (ProjectiveLine([0, 1, -1]), ProjectiveLine([1, 1, 0]),
            ProjectiveLine([1, 1, 1]))
    hits = triple_orbit_search(bexp, *lexp, 25)
    pairs = {(h.m, h.n) for h in hits}
    assert {(3, 1), (6, 2), (11, 3), (20, 4)} <= pairs
    for h in hits:
        for L, k in zip(lexp, (0, h.m, h.n)):
            Pk = bexp.power(k)
            row = [sum(L.coeffs[i] * Pk[i][j] for i in range(3))
                   for j in range(3)]
            assert sum(r * Fraction(p) for r, p in zip(row, h.P)) == 0
    fam = family_detect(hits, bexp).pattern
    assert fam == ExponentialFamily(1, 2, 1, 0)

    brec = ProjectiveMap([[2, 0, 0], [0, "1/2", 0], [0, 0, 1]])
    lrec = (ProjectiveLine([1, -1, 0]), ProjectiveLine([1, 1, -1]),
            ProjectiveLine([1, 1, -1]))
    rpairs = {(h.m, h.n): h.P for h in triple_orbit_search(brec, *lrec, 8)}
    for m in range(-8, 9):
        assert rpairs[(m, -m)] == (2 ** abs(m), 2 ** abs(m), 4 ** abs(m) + 1)

    d231 = ProjectiveMap([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
    k123 = (ProjectiveLine([1, 2, -3]), ProjectiveLine([1, 1, -5]),
            ProjectiveLine([1, -1, 5]))
    sparse = triple_orbit_search(d231, *k123, 40)
    fam3 = family_detect(sparse, d231).pattern
    assert isinstance(fam3, FiniteSet)
    dt = time.perf_counter() - t0
    ok = dt < 30.0
    report(9, ok, f"exponential family certified on {len(hits)} hits, "
           f"antidiagonal closed form on 17 hits, sparse search -> "
           f"FiniteSet({fam3.size}), all residuals exactly zero, {dt:.2f}s")
    assert dt < 30.0


def test_criterion_10_scans_self_certify():
    t0 = time.perf_counter()
    tol_b = 1e-7
    bhits = boomerang_scan(E6, P0, 8, tol_b)
    assert bhits
    for h in bhits:
        x = first_hit(E6, Shot(P0[0], P0[1], h.direction[0], h.direction[1]))
        for _ in range(h.bounce):
            x = advance(E6, x)
        nxt = advance(E6, x)
        dx, dy = nxt.x - x.x, nxt.y - x.y
        cross = abs(dx * (P0[1] - x.y) - dy * (P0[0] - x.x)) / math.hypot(dx, dy)
        assert cross <= tol_b
    bkey = lambda h: (round(math.atan2(h.direction[1], h.direction[0]), 8),
                      h.bounce)
    assert set(map(bkey, boomerang_scan(E6, P0, 8, tol_b / 10.0))) <= \
        set(map(bkey, bhits))

    p1, p2, hole = (0.1, 0.2), (-0.3, 0.1), (1.0, 0.0)
    tol_h = 0.05
    hhits = hole_scan(E6, p1, p2, hole, 10, tol_h)
    assert hhits
    for r in hhits:
        x = first_hit(E6, Shot(p1[0], p1[1], r.direction[0], r.direction[1]))
        for _ in range(r.n - 1):
            x = advance(E6, x)
        assert math.hypot(x.x - hole[0], x.y - hole[1]) <= tol_h + 1e-12
    hkey = lambda r: (round(math.atan2(r.direction[1], r.direction[0]), 8),
                      r.m, r.n)
    assert set(map(hkey, hole_scan(E6, p1, p2, hole, 10, tol_h / 10.0))) <= \
        set(map(hkey, hhits))

    dirs = find_periodic_directions(E6, P0, 3)
    angs = sorted(math.atan2(d.direction[1], d.direction[0]) % math.pi
                  for d in dirs)
    alpha = next(abs(a - b) for a in angs for b in angs
                 if 0.2 < abs(a - b) < math.pi - 0.2)
    tol_a = 1e-6
    apairs = angle_pair_scan(E6, P0, alpha, 8, tol_a)
    assert apairs
    for pr in apairs:
        a1 = math.atan2(pr.dir1[1], pr.dir1[0])
        a2 = math.atan2(pr.dir2[1], pr.dir2[0])
        sep = (a2 - a1) % (2.0 * math.pi)
        assert min(abs(sep - alpha), abs(2.0 * math.pi - alpha - sep)) < tol_a
        assert closure_error(E6, P0, pr.dir1, pr.period1) < tol_a
        assert closure_error(E6, P0, pr.dir2, pr.period2) < tol_a
    akey = lambda pr: (round(math.atan2(pr.dir1[1], pr.dir1[0]), 8),
                       pr.period1, pr.period2)
    assert set(map(akey, angle_pair_scan(E6, P0, alpha, 8, tol_a / 10.0))) <= \
        set(map(akey, apairs))
    dt = time.perf_counter() - t0
    ok = dt < 120.0
    report(10, ok, f"{len(bhits)} boomerang, {len(hhits)} hole, "
           f"{len(apairs)} angle-pair results re-simulated; tol/10 adds "
           f"nothing, {dt:.2f}s")
    assert dt < 120.0


def test_criterion_11_betti_not_monotone_per_arc():
    t0 = time.perf_counter()
    model = BettiModel(E6)
    U = 1.0 / E6.c2

    def lam_at(t):
        q = E6.boundary_point(t % (2.0 * math.pi))
        dx, dy = q[0] - P0[0], q[1] - P0[1]
        slope = math.inf if dx == 0.0 else dy / dx
        return caustic_of_line(E6, P0, slope).s / E6.c2

    nt = 1200
    step = 2.0 * math.pi / nt
    ts = np.arange(nt) * step
    ell = np.array([1.0 < lam_at(t) < U for t in ts])
    k0 = int(np.argmin(ell))  # rotate to start outside an arc
    ell = np.roll(ell, -k0)
    base = ts[k0]
    runs = []
    j = 0
    while j < nt:
        if ell[j]:
            j1 = j
            while j1 + 1 < nt and ell[j1 + 1]:
                j1 += 1
            runs.append((j, j1))
            j = j1 + 1
        else:
            j += 1
    assert len(runs) == 2  # two boundary arcs aim at elliptic caustics
    changes = []
    for j0, j1 in runs:
        lo = base + j0 * step
        hi = base + j1 * step
        margin = 0.02 * (hi - lo)
        grid = np.linspace(lo + margin, hi - margin, 241)
        betas = np.array([model.beta2(lam_at(u)) for u in grid])
        d = np.diff(betas)
        sg = np.sign(d[np.abs(d) > 1e-14])
        changes.append(int(np.sum(sg[1:] != sg[:-1])))
    dt = time.perf_counter() - t0
    ok = changes == [1, 1] and dt < 5.0
    report(11, ok, f"derivative sign changes per elliptic aim arc: "
           f"{changes}, {dt:.2f}s")
    assert changes == [1, 1]
    assert dt < 5.0
