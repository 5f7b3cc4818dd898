"""Periodic directions from a point, their counts, and extremal paths.

A shot from p = (a, b) with direction angle phi rides the caustic

    s(phi) = c^2 cos^2 phi + (a sin phi - b cos phi)^2
           = P + rho cos(2 phi - delta),

with P = (c^2+a^2+b^2)/2 and rho e^(i delta) = (c^2+b^2-a^2)/2 - i ab,
and is periodic with period dividing n exactly when the Betti
coordinate beta2(s/c^2) is a multiple of 1/n (odd n forces an elliptic
caustic).  s sweeps the range [m, M] between the parameters of the two
confocal conics through p twice per half-turn of directions, so every
caustic level has exactly two tangent lines through p, in closed form.
beta2 is strictly monotone in lambda = s/c^2 on each side of the focal
transition lambda = 1, so each level k/n is inverted once for its
lambda_k; both lines tangent to s = c^2 lambda_k are then certified by
simulating the n bounces.  Levels with |1 - lambda| below a resolution
band correspond to caustics within ~4^(-n) of the focal degeneration;
they are provably present by monotonicity and the exact limit
beta2 -> 1/2 and are counted by integer arithmetic, since no
double-precision direction can represent them.  The resulting direction
counts grow linearly in n, with odd slope 2 - 4 beta2(M/c^2).

Connecting trajectories between two interior points are found by
maximizing total length over bounce angles (the maximum satisfies the
reflection law at every vertex): the length is maximized by quasi-Newton
(L-BFGS-B) on its analytic gradient, then polished by Newton (fsolve) on
the same gradient; boomerang, hole, and angle-pair scans
bracket sign changes of passage distances over a direction grid and
re-simulate every hit.
"""

import cmath
import math
import random as _random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq, fsolve, minimize

from .conics import (CausticKind, CausticParam, PhasePoint, Shot, Trajectory,
                     advance, advance_batch, caustic_of_line,
                     classify_caustic, first_hit, slope_of, unit)
from .periods import BettiModel, _beta2_inverse

# Certification bound on the phase-space closure defect of a returned
# periodic direction.
CERT_TOL = 1e-6
# Width |lambda - 1| of the focal boundary layer whose levels are
# counted exactly instead of root-found.
LAYER_BAND = 1e-6
# Default number of direction cells for the passage scans.
DEFAULT_GRID = 4096
_AXIS_TOL = 1e-12
# Random starts of connecting_trajectory, besides the three wound
# interpolations.
_CONNECT_STARTS = 8


@dataclass(frozen=True)
class CausticExtrema:
    M: float
    m: float


@dataclass(frozen=True)
class PeriodicDirection:
    direction: tuple
    period: int
    caustic: CausticParam
    closure_error: float


class CountBreakdown(NamedTuple):
    total: int
    certified: int
    layer: int


@dataclass(frozen=True)
class BoomerangHit:
    direction: tuple
    bounce: int
    kind: int
    miss: float


@dataclass(frozen=True)
class HoleHit:
    direction: tuple
    m: int
    n: int
    miss_p: float
    miss_h: float


@dataclass(frozen=True)
class AnglePair:
    dir1: tuple
    dir2: tuple
    period1: int
    period2: int


def _require_interior(e, p):
    if p[0] * p[0] + p[1] * p[1] / e.b2 >= 1.0 - 1e-12:
        raise ValueError("point must be strictly interior")


def caustic_extrema(e, p):
    """Parameters of the two confocal conics through interior p: the
    roots of s^2 - (a^2+b^2+c^2) s + a^2 c^2 = 0, which are the max M
    (elliptic) and min m (hyperbolic) of s over all shot slopes."""
    _require_interior(e, p)
    a, b = p
    tr = a * a + b * b + e.c2
    det = a * a * e.c2
    disc = max(0.0, tr * tr - 4.0 * det)
    rt = math.sqrt(disc)
    return CausticExtrema(M=0.5 * (tr + rt), m=0.5 * (tr - rt))


def _s_of_phi(a, b, c2, phi):
    co, si = math.cos(phi), math.sin(phi)
    d = a * si - b * co
    return c2 * co * co + d * d


def _breakpoints(e, p):
    """Focal transitions and critical slopes of s(phi), as angles in
    [0, pi): the lines through the upper/lower focus and the tangents
    at p to the two confocal conics through p."""
    a, b = p
    pts = set()
    for sgn in (1.0, -1.0):
        den = a - sgn * e.c
        pts.add(math.atan2(b, den) % math.pi)
    half = 0.5 * math.atan2(2.0 * a * b, a * a - b * b - e.c2)
    pts.add(half % math.pi)
    pts.add((half + 0.5 * math.pi) % math.pi)
    return sorted(pts)


def branch_intervals(e, p):
    """Maximal open slope arcs of uniform caustic kind, as a list of
    (phi_lo, phi_hi, kind) with angles in [0, pi) and the last arc
    possibly wrapping; kind decided at the midpoint."""
    a, b = p
    cuts = _breakpoints(e, p)
    out = []
    k = len(cuts)
    for j in range(k):
        lo = cuts[j]
        hi = cuts[(j + 1) % k] + (math.pi if j == k - 1 else 0.0)
        if hi - lo < 1e-13:
            continue
        mid = 0.5 * (lo + hi)
        s = _s_of_phi(a, b, e.c2, mid)
        lam = s / e.c2
        if lam > 1.0:
            kind = CausticKind.ELLIPTIC
        else:
            kind = CausticKind.HYPERBOLIC
        out.append((lo, hi, kind))
    return out


def _cross(p, x, y, wx, wy):
    """Signed distance of p from the line through (x, y) along the unit
    (wx, wy); floats or arrays alike."""
    return wx * (p[1] - y) - wy * (p[0] - x)


def _defect(p, vx, vy, x, y, wx, wy):
    """Distance of p from the line through (x, y) along the unit (wx, wy)
    plus the mismatch of (wx, wy) with the start direction (vx, vy)."""
    return abs(_cross(p, x, y, wx, wy)) + math.hypot(wx - vx, wy - vy)


def closure_error(e, p, v, n):
    """Phase-space defect of the claim "the shot (p, v) has period n":
    distance of p from the outgoing line after n bounces plus the
    direction mismatch."""
    vx, vy = unit(v[0], v[1])
    x = first_hit(e, Shot(p[0], p[1], vx, vy))
    for _ in range(n - 1):
        x = advance(e, x)
    return _defect(p, vx, vy, x.x, x.y, x.vx, x.vy)


def _closure_errors(e, p, dirs, n):
    """closure_error for every direction in dirs, the shots run in
    lockstep through advance_batch; only the final states are kept."""
    units = [unit(vx, vy) for vx, vy in dirs]
    if not units:
        return []
    vx = np.array([u[0] for u in units])
    vy = np.array([u[1] for u in units])
    x = np.full(len(units), p[0], dtype=float)
    y = np.full(len(units), p[1], dtype=float)
    wx, wy = vx, vy
    for _ in range(n):
        x, y, wx, wy = advance_batch(e, x, y, wx, wy)
    ends = zip(x.tolist(), y.tolist(), wx.tolist(), wy.tolist())
    return [_defect(p, *u, *end) for u, end in zip(units, ends)]


def _axis_directions(e, p, n):
    """Two-bounce axis orbits through p, which close for every even n,
    as (direction, caustic) candidates.  A boundary p contributes only
    its inward axis direction."""
    if n % 2:
        return []
    a, b = p
    on_boundary = abs(e.boundary_residual(a, b)) < 1e-12

    def inward_ok(vx, vy):
        return not on_boundary or vx * a + vy * b / e.b2 < 0.0

    out = []
    if abs(b) <= _AXIS_TOL and abs(a) <= 1.0:
        caustic = classify_caustic(e, e.c2)
        out += [((vx, 0.0), caustic) for vx in (1.0, -1.0)
                if inward_ok(vx, 0.0)]
    if abs(a) <= _AXIS_TOL and abs(b) <= math.sqrt(e.b2):
        caustic = classify_caustic(e, 0.0)
        out += [((0.0, vy), caustic) for vy in (1.0, -1.0)
                if inward_ok(0.0, vy)]
    return out


def _line_roots(e, p, n):
    """Tangent lines from p to the caustics of the levels beta2 = k/n,
    as (phi, s) with phi in [0, pi), plus the exact number of layer
    lines.

    On the elliptic range lambda in (1, M/c^2), and for even n on the
    hyperbolic range (m/c^2, 1), beta2 runs monotonically from its value
    at the extreme to 1/2 at the focal transition.  A level strictly
    between beta2 at the extreme and at the layer edge (the nearer of
    1 +- LAYER_BAND and the extreme) is inverted once for lambda_k, and
    its caustic s_k = c^2 lambda_k touches the two lines through p at
    phi = (delta +- arccos((s_k - P)/rho))/2.  The levels between the
    layer edge and 1/2 are counted by integer arithmetic, two lines
    each.
    """
    a, b = p
    c2 = e.c2
    ex = caustic_extrema(e, p)
    model = BettiModel(e)
    P = 0.5 * (c2 + a * a + b * b)
    Q = 0.5 * (c2 + b * b - a * a)
    rho = math.hypot(Q, a * b)
    delta = math.atan2(-a * b, Q)
    # c^2 lies in [m, M] and is an end exactly when b = 0 (the product
    # (c^2 - M)(c^2 - m) is -b^2 c^2); that kind then has no lines.
    ranges = []
    if b != 0.0 or abs(a) > e.c:
        ranges.append((ex.M / c2, min(ex.M / c2, 1.0 + LAYER_BAND)))
    if n % 2 == 0 and (b != 0.0 or abs(a) < e.c):
        # m = 0 when a = 0; beta2 at the smallest positive lambda is its
        # lambda -> 0+ limit to the last bit.
        lam_m = max(ex.m / c2, math.ulp(0.0))
        ranges.append((lam_m, max(lam_m, 1.0 - LAYER_BAND)))
    roots = []
    layer_lines = 0
    for ext, edge in ranges:
        b_ext, b_edge = model.beta2(ext), model.beta2(edge)
        k_edge = math.floor(b_edge * n)
        layer_lines += 2 * max(0, (n - 1) // 2 - k_edge)
        lo, hi = sorted((ext, edge))
        for k in range(math.floor(b_ext * n) + 1, k_edge + 1):
            if not b_ext < k / n < b_edge:
                continue
            s = c2 * _beta2_inverse(model, k / n, lo, hi)
            half = 0.5 * math.acos(max(-1.0, min(1.0, (s - P) / rho)))
            roots += [((0.5 * delta + half) % math.pi, s),
                      ((0.5 * delta - half) % math.pi, s)]
    return roots, layer_lines


def _certified(e, p, n, roots):
    """Axis orbits and both orientations of every root line whose
    closure error after n bounces is below CERT_TOL, sorted by angle."""
    cands = _axis_directions(e, p, n)
    for phi, s in roots:
        caustic = classify_caustic(e, s)
        for ang in (phi, phi + math.pi):
            cands.append(((math.cos(ang), math.sin(ang)), caustic))
    errs = _closure_errors(e, p, [v for v, _ in cands], n)
    out = [PeriodicDirection(v, n, caustic, err)
           for (v, caustic), err in zip(cands, errs) if err < CERT_TOL]
    out.sort(key=lambda d: math.atan2(d.direction[1], d.direction[0]) % (2.0 * math.pi))
    return out


def find_periodic_directions(e, p, n):
    """All certified unit directions from p with orbit period dividing
    n, both orientations of every tangent line, sorted by angle.

    Every level k/n of beta2 is inverted once in lambda and its two
    tangent lines through p follow in closed form.  Directions whose
    caustics fall in the focal boundary layer are not representable and
    are omitted here; count_periodic adds their exact number.
    """
    if n < 2:
        raise ValueError("period search needs n >= 2")
    roots, _ = _line_roots(e, p, n)
    return _certified(e, p, n, roots)


def count_periodic(e, p, n):
    """Number of periodic directions (period dividing n) from p:
    certified directions plus the exact count of focal-layer levels
    (two directions per unrepresentable tangent line)."""
    if n < 2:
        raise ValueError("period search needs n >= 2")
    roots, layer_lines = _line_roots(e, p, n)
    dirs = _certified(e, p, n, roots)
    return CountBreakdown(len(dirs) + 2 * layer_lines, len(dirs), 2 * layer_lines)


def predicted_count(e, p, n):
    """Linear-law prediction for the number of period-dividing-n
    directions: c_o n (odd) or c_e n (even) with
    c_o = 2 - 4 beta2(M/c^2), c_e = 2(1 - beta2(M/c^2) - beta2(m/c^2));
    for p on an axis (degenerate extrema) the coefficient falls back to
    the total variation of beta2 over the admissible slope arcs."""
    a, b = p
    if math.hypot(a - e.c, b) < 1e-9 or math.hypot(a + e.c, b) < 1e-9:
        raise ValueError("prediction undefined at a focus")
    ex = caustic_extrema(e, p)
    model = BettiModel(e)
    odd = bool(n % 2)
    generic = abs(a) > 1e-9 and abs(b) > 1e-9
    if generic:
        bM = model.beta2(ex.M / e.c2)
        if odd:
            return (2.0 - 4.0 * bM) * n
        bm = model.beta2(ex.m / e.c2)
        return 2.0 * (1.0 - bM - bm) * n
    tv_ell, tv_hyp = _betti_variation(e, p)
    if odd:
        return 2.0 * tv_ell * n
    return (tv_ell + tv_hyp) * n


def _betti_variation(e, p):
    """Total variation of beta2 over the elliptic and hyperbolic slope
    arcs, each monotone piece contributing |1/2 - extreme value|.

    s(phi) is monotone on every arc (branch_intervals cuts at the
    critical slopes), so its extreme is an endpoint value: the larger
    on elliptic arcs, the smaller on hyperbolic ones."""
    a, b = p
    c2 = e.c2
    model = BettiModel(e)
    tv = {CausticKind.ELLIPTIC: 0.0, CausticKind.HYPERBOLIC: 0.0}
    for lo, hi, kind in branch_intervals(e, p):
        ends = (_s_of_phi(a, b, c2, lo), _s_of_phi(a, b, c2, hi))
        s_ext = max(ends) if kind is CausticKind.ELLIPTIC else min(ends)
        lam = s_ext / c2
        if abs(lam - 1.0) < 1e-9:
            continue
        tv[kind] += 2.0 * (0.5 - model.beta2(lam))
    return tv[CausticKind.ELLIPTIC], tv[CausticKind.HYPERBOLIC]


class ConvergenceError(RuntimeError):
    """Length maximization failed to settle; .best holds the candidate."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


def _path_length(e, p1, p2, thetas):
    pts = [p1] + [e.boundary_point(t) for t in thetas] + [p2]
    return sum(math.hypot(q[0] - r[0], q[1] - r[1])
               for q, r in zip(pts, pts[1:]))


def connecting_trajectory(e, p1, p2, n, seed=0):
    """Billiard path between two interior points, p1 -> (n-1 bounces)
    -> p2, by total-length maximization (the maximum satisfies the
    reflection law at every bounce).  From three wound interpolations
    and _CONNECT_STARTS seeded random starts, the length is maximized by
    quasi-Newton (L-BFGS-B) on its analytic gradient over bounce angles;
    the longest candidate is then polished by Newton (fsolve) on the
    same gradient, whose zeros obey the reflection law at every bounce.
    Returns a Trajectory whose points carry the outgoing direction at
    each bounce."""
    if n < 1:
        raise ValueError("need n >= 1 segments")
    if n == 1:
        raise ValueError("a single segment has no bounce to optimize")
    _require_interior(e, p1)
    _require_interior(e, p2)
    rng = _random.Random(seed)
    a1 = math.atan2(p1[1], p1[0])
    a2 = math.atan2(p2[1], p2[0])
    inits = []
    for w in (1, 2, -1):
        end = a2 + 2.0 * math.pi * w
        inits.append([a1 + (end - a1) * (j + 1) / n for j in range(n - 1)])
    for _ in range(_CONNECT_STARTS):
        inits.append([rng.uniform(0.0, 2.0 * math.pi) for _ in range(n - 1)])

    b = math.sqrt(e.b2)

    def grad(th):
        chain = [p1] + [e.boundary_point(t) for t in th] + [p2]
        out = []
        for j in range(n - 1):
            q = chain[j + 1]
            ux, uy = unit(q[0] - chain[j][0], q[1] - chain[j][1])
            wx, wy = unit(chain[j + 2][0] - q[0], chain[j + 2][1] - q[1])
            out.append((ux - wx) * (-math.sin(th[j]))
                       + (uy - wy) * (b * math.cos(th[j])))
        return out

    best_len, best_th = -1.0, None
    for th in inits:
        res = minimize(lambda t: -_path_length(e, p1, p2, t), th,
                       jac=lambda t: -np.array(grad(t)), method="L-BFGS-B",
                       options={"gtol": 1e-12})
        if -res.fun > best_len:
            best_len, best_th = -res.fun, list(res.x)

    def worst_residual(th):
        chain = [p1] + [e.boundary_point(t) for t in th] + [p2]
        return max(reflection_residual(e, chain[j], chain[j + 1], chain[j + 2])
                   for j in range(n - 1))

    # The residual gate decides, not fsolve's status: from a candidate
    # just above the gate it can reach a residual near 1e-16 and still
    # report no progress at xtol=1e-13.  full_output keeps that report
    # off stderr.
    sol = list(fsolve(grad, best_th, full_output=True, xtol=1e-13)[0])
    if (all(map(math.isfinite, sol))
            and worst_residual(sol) < worst_residual(best_th)):
        best_th = sol

    pts = []
    verts = [e.boundary_point(t) for t in best_th]
    chain = verts + [p2]
    for j, q in enumerate(verts):
        nxt = chain[j + 1]
        vx, vy = unit(nxt[0] - q[0], nxt[1] - q[1])
        pts.append(PhasePoint(q[0], q[1], vx, vy))
    traj = Trajectory(points=pts, caustic=caustic_of_line(
        e, p1, slope_of(verts[0][0] - p1[0], verts[0][1] - p1[1])))
    if worst_residual(best_th) > 1e-8:
        raise ConvergenceError("length maximization did not converge", traj)
    return traj


def reflection_residual(e, q_prev, q, q_next):
    """Angle defect of the reflection law at boundary point q between
    the incoming segment from q_prev and the outgoing one to q_next."""
    ux, uy = unit(q[0] - q_prev[0], q[1] - q_prev[1])
    wx, wy = unit(q_next[0] - q[0], q_next[1] - q[1])
    nx, ny = unit(q[0], q[1] / e.b2)
    return abs((ux * nx + uy * ny) + (wx * nx + wy * ny))


def segment_caustics(e, vertices):
    """Caustic parameter of every segment of a polygonal path."""
    out = []
    for q, r in zip(vertices, vertices[1:]):
        out.append(caustic_of_line(e, q, slope_of(r[0] - q[0], r[1] - q[1])).s)
    return out


def _passage(x, p):
    """Signed distance of p from the line of the outgoing segment at x,
    and the position of the foot along the direction."""
    along = (p[0] - x.x) * x.vx + (p[1] - x.y) * x.vy
    return _cross(p, x.x, x.y, x.vx, x.vy), along


def _shoot(e, p, phi, n):
    """The first n bounce states of the shot from p at angle phi."""
    x = first_hit(e, Shot(p[0], p[1], math.cos(phi), math.sin(phi)))
    out = [x]
    for _ in range(n - 1):
        x = advance(e, x)
        out.append(x)
    return out


def _passage_at(phi, e, p, q, k):
    """Signed distance of q from the outgoing line of bounce state k of
    the shot from p at angle phi; simulates only the k + 1 states read."""
    return _passage(_shoot(e, p, phi, k + 1)[k], q)[0]


def _grid_passages(e, p, q, thetas, n_max):
    """_passage_at for every angle in thetas and every state k in
    1..n_max-1 (row k-1), all shots stepped at once in advance_batch."""
    k = len(thetas)
    x = np.full(k, p[0], dtype=float)
    y = np.full(k, p[1], dtype=float)
    vx = np.array([math.cos(t) for t in thetas])
    vy = np.array([math.sin(t) for t in thetas])
    x, y, vx, vy = advance_batch(e, x, y, vx, vy)
    rows = []
    for _ in range(n_max - 1):
        x, y, vx, vy = advance_batch(e, x, y, vx, vy)
        rows.append(_cross(q, x, y, vx, vy))
    return rows


def _sign_changes(vals):
    """Cells j whose values vals[j], vals[j + 1] (cyclically) change
    sign; a cell whose left value is exactly zero is skipped, and a NaN
    product counts as a change (the test is "not >= 0")."""
    nxt = np.roll(vals, -1)
    return np.flatnonzero((vals != 0.0) & ~(vals * nxt >= 0.0))


def boomerang_scan(e, p, n_max, tol, grid=DEFAULT_GRID):
    """Shots from p whose k-th segment passes through p again, k <= n_max,
    classified as retraced (kind 2, direction reversed) or crossing on
    the other tangent line (kind 3).  Sign changes of the passage
    distance over a direction grid are refined by bisection and each
    hit is certified by re-simulation."""
    _require_interior(e, p)
    hits = []
    thetas = np.linspace(0.0, 2.0 * math.pi, grid + 1)
    rows = _grid_passages(e, p, p, thetas[:-1], n_max)
    for k, vals in enumerate(rows, start=1):
        for j in _sign_changes(vals):
            try:
                phi = brentq(_passage_at, thetas[j], thetas[j + 1],
                             args=(e, p, p, k), xtol=1e-14)
            except ValueError:
                continue
            seg = _shoot(e, p, phi, k + 1)[k]
            cross, along = _passage(seg, p)
            nxt = advance(e, seg)
            seg_len = math.hypot(nxt.x - seg.x, nxt.y - seg.y)
            if abs(cross) > tol or not -tol <= along <= seg_len + tol:
                continue
            v0x, v0y = math.cos(phi), math.sin(phi)
            dot = seg.vx * v0x + seg.vy * v0y
            crossdir = seg.vx * v0y - seg.vy * v0x
            if dot > 0.0 and abs(crossdir) < 1e-6:
                continue  # periodic passage, not a boomerang
            kind = 2 if (dot < 0.0 and abs(crossdir) < 1e-6) else 3
            hits.append(BoomerangHit((v0x, v0y), k, kind, abs(cross)))
    hits.sort(key=lambda h: (math.atan2(h.direction[1], h.direction[0]) % (2 * math.pi), h.bounce))
    dedup = []
    for h in hits:
        if dedup and abs(math.atan2(dedup[-1].direction[1], dedup[-1].direction[0])
                         - math.atan2(h.direction[1], h.direction[0])) < 1e-10 \
                and dedup[-1].bounce == h.bounce:
            continue
        dedup.append(h)
    return dedup


def hole_scan(e, p1, p2, h, n_max, tol, grid=DEFAULT_GRID):
    """Shots from p1 passing through p2 at bounce count m and later
    within tol of the boundary point h at bounce n <= n_max.

    The passage through p2 is solved exactly (bracket and bisect per
    m); the hole condition is then checked on the resulting orbit.  The
    focal pair p1, p2 = (+-c, 0) is rejected: every chord through one
    focus passes through the other, the excluded exceptional case.
    """
    if (math.hypot(p1[0] - e.c, p1[1]) < 1e-9 and math.hypot(p2[0] + e.c, p2[1]) < 1e-9) or \
       (math.hypot(p1[0] + e.c, p1[1]) < 1e-9 and math.hypot(p2[0] - e.c, p2[1]) < 1e-9):
        raise ValueError("p1, p2 are the foci: excluded exceptional case")
    if abs(e.boundary_residual(h[0], h[1])) > 1e-9:
        raise ValueError("h must lie on the boundary")
    _require_interior(e, p1)
    _require_interior(e, p2)

    hits = []
    thetas = np.linspace(0.0, 2.0 * math.pi, grid + 1)
    rows = _grid_passages(e, p1, p2, thetas[:-1], n_max)
    for m, vals in enumerate(rows, start=1):
        for j in _sign_changes(vals):
            try:
                phi = brentq(_passage_at, thetas[j], thetas[j + 1],
                             args=(e, p1, p2, m), xtol=1e-14)
            except ValueError:
                continue
            orbit = _shoot(e, p1, phi, n_max)
            cross, along = _passage(orbit[m], p2)
            nxt = advance(e, orbit[m])
            seg_len = math.hypot(nxt.x - orbit[m].x, nxt.y - orbit[m].y)
            if abs(cross) > tol or not -tol <= along <= seg_len + tol:
                continue
            for n in range(m + 1, n_max + 1):
                x = orbit[n - 1]
                miss = math.hypot(x.x - h[0], x.y - h[1])
                if miss <= tol:
                    hits.append(HoleHit((math.cos(phi), math.sin(phi)),
                                        m, n, abs(cross), miss))
    hits.sort(key=lambda r: (math.atan2(r.direction[1], r.direction[0]) % (2 * math.pi), r.m, r.n))
    return hits


def angle_pair_scan(e, p, alpha, n_max, tol):
    """Pairs of periodic directions from p separated by exactly the
    angle alpha, assembled from the certified period-dividing-n lists
    for n <= n_max; both members close within tol."""
    if not 0.0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    found = {}
    for n in range(2, n_max + 1):
        for d in find_periodic_directions(e, p, n):
            ang = math.atan2(d.direction[1], d.direction[0]) % (2.0 * math.pi)
            key = round(ang / 1e-9)
            if key not in found or found[key][1] > n:
                found[key] = (ang, n, d)
    angles = sorted(found.values(), key=lambda t: (t[0], t[1]))
    pairs = []
    for ang, n1, d1 in angles:
        target = (ang + alpha) % (2.0 * math.pi)
        for ang2, n2, d2 in angles:
            if abs((ang2 - target + math.pi) % (2.0 * math.pi) - math.pi) < 1e-7:
                if d1.closure_error < tol and d2.closure_error < tol:
                    pairs.append(AnglePair(d1.direction, d2.direction, n1, n2))
    return pairs


def parallelogram_angle_pairs(tau, alpha, H):
    """Lattice pairs (lambda, delta) in (Z tau + Z)^2 with
    arg(lambda/delta) = +-alpha (mod pi), coefficients bounded by H,
    deduplicated up to real scaling; also reports whether tau satisfies
    a small rational quadratic (complex-multiplication proxy)."""
    if H < 1:
        raise ValueError("H must be >= 1")
    H = int(H)
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    pairs = []
    seen = set()
    for aa in range(-H, H + 1):
        for bb in range(-H, H + 1):
            lam = aa * tau + bb
            if lam == 0:
                continue
            for dd in range(-H, H + 1):
                for ee in range(-H, H + 1):
                    dl = dd * tau + ee
                    if dl == 0:
                        continue
                    rho = lam / dl
                    arg = cmath.phase(rho) % math.pi
                    ok = False
                    for tgt in (alpha % math.pi, (-alpha) % math.pi):
                        d1 = abs(arg - tgt)
                        if min(d1, math.pi - d1) <= 1e-10:
                            ok = True
                            break
                    if not ok:
                        continue
                    key = (round(rho.real / 1e-8), round(rho.imag / 1e-8),
                           rho.imag >= 0)
                    if key in seen:
                        continue
                    seen.add(key)
                    pairs.append(((aa, bb), (dd, ee)))
    cm = _is_quadratic(tau)
    return pairs, cm


def _is_quadratic(tau, bound=50, tol=1e-10):
    for A in range(1, bound + 1):
        v = A * tau * tau
        for B in range(-2 * bound, 2 * bound + 1):
            w = v + B * tau
            C = -round(w.real)
            if abs(C) <= 2 * bound and abs(w + C) < tol:
                return True
    return False
