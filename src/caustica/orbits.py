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
lambda_k, from one view of p (_view) that every n shares; both lines
tangent to s = c^2 lambda_k are then certified by simulation, meeting
in the middle.  The billiard map is reversible, so
the orbit of (p, v) closes after n bounces exactly when the state after
ceil(n/2) bounces from (p, v) and the state after floor(n/2) bounces
from (p, -v) ride one chord in opposite directions; closure_error
measures how far they are from it.  On true candidates its rounding
error grows like n^2-n^2.5 and stays below CERT_TOL over the measured
n <= 4001 (worst 5e-8 at 4001, at two points) and, extrapolated, up to
n of about 1.3-2 * 10^4; that of one n-bounce walk from p passes 1e-6
near n = 2001.  The candidates of every n of a range are simulated
together in one retiring lockstep of advance_batch (rows stacked by
their number of steps in descending order; step j advances the rows
with at least j steps), and each closure error equals that of a walk
of its n alone, bit for bit, since rows never interact.  Levels with
|1 - lambda| below a resolution band correspond to caustics within
~4^(-n) of the focal degeneration; they are provably present by
monotonicity and the exact limit beta2 -> 1/2 and are counted by integer
arithmetic, since few double-precision directions represent them (some
still certify for n up to about 20).  The resulting direction
counts grow linearly in n, with odd slope 2 - 4 beta2(M/c^2).

Connecting trajectories between two interior points are found by
maximizing total length over bounce angles (the maximum satisfies the
reflection law at every vertex): from one start per rotation number k/n
and phase 0 or pi (deterministic, so a connection depends on its input
alone), a damped Newton ascent on the closed-form gradient and
tridiagonal Hessian of the length (a Levenberg shift, one O(n) Thomas
sweep a step) climbs until no gradient component exceeds 1e-13, so no
polish follows and no scipy module is loaded;
boomerang, hole, and angle-pair scans
bracket sign changes of passage distances over a direction grid and
re-simulate every hit.
"""

import bisect
import cmath
import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from ._roots import brentq
from .conics import (_BAND_ROWS, CausticParam, PhasePoint, Trajectory,
                     _require_boundary, _step, _walk, advance_batch,
                     caustic_of_line, classify_caustic, reflect, slope_of,
                     unit)
from .periods import BettiModel, _beta2_inverse

# Certification bound on the phase-space closure defect of a returned
# periodic direction.
CERT_TOL = 1e-6
# Width |lambda - 1| of the focal boundary layer whose levels are
# counted exactly instead of root-found.
LAYER_BAND = 1e-6
# Default number of direction cells for the passage scans.
DEFAULT_GRID = 4096
# Direction tables kept by _direction_grid: enough for the few grid
# sizes one process scans over and over, few enough that a 2^20-cell
# table (25 MB) is not held for the life of the process.
_GRID_TABLES = 8
# Largest gap (rad, mod 2 pi) between a direction angle plus alpha and
# its partner's angle in angle_pair_scan.
_PAIR_WINDOW = 1e-7
# A connecting-trajectory climb stops once no gradient component exceeds
# _GTOL (a few hundred times its rounding level), or after _MAX_STEPS
# steps.
_GTOL = 1e-13
_MAX_STEPS = 100


class CausticExtrema(NamedTuple):
    M: float
    m: float


class PeriodicDirection(NamedTuple):
    direction: tuple
    period: int
    caustic: CausticParam
    closure_error: float


class CountBreakdown(NamedTuple):
    total: int
    certified: int
    layer: int
    # Candidates whose closure error missed CERT_TOL, not in the total.
    rejected: int


class BoomerangHit(NamedTuple):
    direction: tuple
    bounce: int
    kind: int
    miss: float


class HoleHit(NamedTuple):
    direction: tuple
    m: int
    n: int
    miss_p: float
    miss_h: float


class AnglePair(NamedTuple):
    dir1: tuple
    dir2: tuple
    period1: int
    period2: int


def _interior(e, p):
    return p[0] * p[0] + p[1] * p[1] / e.b2 < 1.0 - 1e-12


def _require_interior(e, p):
    if not _interior(e, p):
        raise ValueError("point must be strictly interior")


def _require_angle(alpha):
    if not 0.0 < alpha < math.pi:  # NaN included
        raise ValueError("alpha must lie in (0, pi)")


def caustic_extrema(e, p):
    """Parameters of the two confocal conics through interior p: the
    roots of s^2 - (a^2+b^2+c^2) s + a^2 c^2 = 0, which are the max M
    (elliptic) and min m (hyperbolic) of s over all shot slopes; m <= c^2
    <= M, as (c^2 - M)(c^2 - m) = -b^2 c^2, also where b = 0 rounds a root
    across c^2."""
    _require_interior(e, p)
    a, b = p
    tr = a * a + b * b + e.c2
    det = a * a * e.c2
    disc = max(0.0, tr * tr - 4.0 * det)
    rt = math.sqrt(disc)
    return CausticExtrema(M=max(0.5 * (tr + rt), e.c2), m=min(0.5 * (tr - rt), e.c2))


def _cross(p, x, y, wx, wy):
    """Signed distance of p from the line through (x, y) along the unit
    (wx, wy); floats or arrays alike."""
    return wx * (p[1] - y) - wy * (p[0] - x)


def _defect(fx, fy, fwx, fwy, bx, by, bwx, bwy):
    """Mid-chord defect of a forward state (fx, fy, fwx, fwy) against a
    backward one: the distance of the forward bounce point from the
    backward outgoing line plus |fw + bw|; zero exactly when the two
    states ride one chord in opposite directions."""
    return (abs(_cross((fx, fy), bx, by, bwx, bwy))
            + math.hypot(fwx + bwx, fwy + bwy))


def closure_error(e, p, v, n):
    """Phase-space defect of the claim "the shot (p, v) has period n",
    measured in the middle of the orbit.

    The billiard map is reversible: the orbit of (p, -v) retraces that
    of (p, v) backwards.  So the orbit closes after n bounces exactly
    when the state after ceil(n/2) bounces from (p, v) and the state
    after floor(n/2) bounces from (p, -v) ride one chord in opposite
    directions, and the defect is _defect of the two.  n bounces are
    walked in all, half each way.  On true periodic directions the
    defect is rounding error, 7e-11 at n = 301 and 4e-8 at n = 4001 at
    p = (0.2, 0.3), c = 0.6 (the walk of all n bounces from p gives 9e-9
    and 8e-6), so CERT_TOL holds over the measured n <= 4001 and, by
    its n^2-n^2.5 growth, up to n of about 1.3-2 * 10^4.  A direction
    turned by 1e-9 rad shows a defect of the same size on either walk
    (median 1.6e-6 at n = 301).  At a boundary p, where -v points out
    of the table, the first backward bounce is the reflection at p
    itself: the backward walk starts from the reversed incoming state
    (p, -reflect(v)), as in birkhoff.symmetric_sum.
    """
    if n < 1:
        raise ValueError("closure needs n >= 1")
    vx, vy = unit(v[0], v[1])
    k, j = n - n // 2, n // 2
    back = (p[0], p[1], -vx, -vy)
    if j and not _interior(e, p):
        ux, uy = reflect(e, p, (vx, vy))
        back, j = (p[0], p[1], -ux, -uy), j - 1
    if j:
        back = _walk(e, *back, j)[-1]
    return _defect(*_walk(e, p[0], p[1], vx, vy, k)[-1], *back)


def _closure_errors(e, p, band):
    """closure_error of every direction of every (n, dirs) of band, in
    ascending n, as one list per entry; p is interior.

    Every direction v walks two rows in one retiring lockstep through
    advance_batch: a forward row from (p, v) for ceil(n/2) steps and a
    backward row from (p, -v) for floor(n/2).  The rows are stacked by
    n in descending order, forward rows before backward ones, so the
    rows still moving at any step are a prefix; each group's states are
    read when it retires, after half the steps of an n-bounce walk.
    Rows do not interact in advance_batch, so every error is bit for bit
    the one closure_error gives, with the same measured range of n.
    """
    units = [[unit(vx, vy) for vx, vy in dirs] for _, dirs in band]
    wx = [s * u[0] for us in reversed(units) for s in (1.0, -1.0) for u in us]
    wy = [s * u[1] for us in reversed(units) for s in (1.0, -1.0) for u in us]
    x = np.full(len(wx), p[0], dtype=float)
    y = np.full(len(wx), p[1], dtype=float)
    wx, wy = np.array(wx, dtype=float), np.array(wy, dtype=float)
    errs = []
    stop = len(wx)
    done = 0
    for (n, _), us in zip(band, units):
        ends = []
        for steps in (n // 2, n - n // 2):
            x, y, wx, wy = x[:stop], y[:stop], wx[:stop], wy[:stop]
            for _ in range(steps - done):
                x, y, wx, wy = advance_batch(e, x, y, wx, wy)
            done = steps
            start = stop - len(us)
            ends.append(zip(x[start:].tolist(), y[start:].tolist(),
                            wx[start:].tolist(), wy[start:].tolist()))
            stop = start
        back, fwd = ends
        errs.append([_defect(*f, *b) for f, b in zip(fwd, back)])
    return errs


class _View(NamedTuple):
    """What the interior p sees, the same for every n (see _view)."""
    P: float
    rho: float
    delta: float
    model: BettiModel
    # (elliptic, hyperbolic); each is (lambda at the extreme, layer edge,
    # beta2 at the extreme, beta2 at the edge), or None.
    kinds: tuple
    axes: tuple  # two-bounce axis orbits, (direction, caustic)


def _view(e, p):
    """The view of the interior p that every n reads: the caustic
    s(phi) = P + rho cos(2 phi - delta) of the shot at angle phi, the
    extreme caustics of each kind, and the axis orbits.

    On the elliptic range lambda in (1, M/c^2) and on the hyperbolic
    range (m/c^2, 1), beta2 runs monotonically from its value at the
    extreme to 1/2 at the focal transition, so the levels k/n that a
    kind sees lie between the two.  The layer edge is the nearer of
    1 +- LAYER_BAND and the extreme.  An extreme inside the layer is its
    own edge; beta2 there is taken from its gap lambda - 1, which M/c^2
    and m/c^2 round away once it is below one ulp of 1 (b below ~5e-9
    at c = 0.6, a = 0.3).

    One exact test decides both the kinds and the axis orbits: c^2 is an
    end of [m, M] exactly when b = 0.0 (the product (c^2 - M)(c^2 - m)
    is -b^2 c^2).  That kind then has no lines through p, and the axis
    y = 0 is a two-bounce orbit; the axis x = 0 is one when a = 0.0.
    """
    a, b = p
    c2 = e.c2
    model = BettiModel(e)
    ex = caustic_extrema(e, p)
    # M - c^2 and c^2 - m without cancellation: their difference is
    # d = a^2 + b^2 - c^2 and their product b^2 c^2.
    d = a * a + b * b - c2
    big = 0.5 * (abs(d) + math.hypot(d, 2.0 * b * e.c))
    small = b * b * c2 / big if big else 0.0
    above, below = (big, small) if d >= 0.0 else (small, big)

    def kind(ext, edge, gap):
        if ext == edge:
            return (ext, edge) + (model._beta2_gap(gap),) * 2
        return ext, edge, model.beta2(ext), model.beta2(edge)

    ell = hyp = None
    axes = []
    if b != 0.0 or abs(a) > e.c:
        ell = kind(ex.M / c2, min(ex.M / c2, 1.0 + LAYER_BAND), above / c2)
    if b != 0.0 or abs(a) < e.c:
        # m = 0 when a = 0; beta2 at the smallest positive lambda is its
        # lambda -> 0+ limit to the last bit.
        lam_m = max(ex.m / c2, math.ulp(0.0))
        hyp = kind(lam_m, max(lam_m, 1.0 - LAYER_BAND), -below / c2)
    if b == 0.0:
        axes += [((vx, 0.0), classify_caustic(e, c2)) for vx in (1.0, -1.0)]
    if a == 0.0:
        axes += [((0.0, vy), classify_caustic(e, 0.0)) for vy in (1.0, -1.0)]
    Q = 0.5 * (c2 + b * b - a * a)
    return _View(0.5 * (c2 + a * a + b * b), math.hypot(Q, a * b),
                 math.atan2(-a * b, Q), model, (ell, hyp), tuple(axes))


def _line_roots(e, view, n):
    """Tangent lines from p to the caustics of the levels beta2 = k/n,
    as (phi, s) with phi in [0, pi), plus the exact number of layer
    lines; view is _view(e, p).

    The levels are read between the extremes of view.kinds and 1/2: on
    the elliptic range, and for even n also on the hyperbolic one.  A
    level strictly between beta2 at the extreme and at the layer edge is
    inverted once for lambda_k, on the bracket between the two with the
    end values view.kinds holds, and its caustic s_k = c^2 lambda_k
    touches the two lines through p at
    phi = (delta +- arccos((s_k - P)/rho))/2.  The levels between the
    layer edge and 1/2 are counted by integer arithmetic, two lines
    each.  Every n reads the same brackets, so a level k/n and its
    multiple 2k/2n (equal as floats) give the same lines bit for bit.
    """
    ell, hyp = view.kinds
    roots = []
    layer_lines = 0
    for ext, edge, b_ext, b_edge in filter(None, (ell, None if n % 2 else hyp)):
        k_edge = math.floor(b_edge * n)
        layer_lines += 2 * max(0, (n - 1) // 2 - k_edge)
        (lo, b_lo), (hi, b_hi) = sorted(((ext, b_ext), (edge, b_edge)))
        for k in range(math.floor(b_ext * n) + 1, k_edge + 1):
            if not b_ext < k / n < b_edge:
                continue
            s = e.c2 * _beta2_inverse(view.model, k / n, lo, hi, b_lo, b_hi)
            half = 0.5 * math.acos(max(-1.0, min(1.0, (s - view.P) / view.rho)))
            roots += [((0.5 * view.delta + half) % math.pi, s),
                      ((0.5 * view.delta - half) % math.pi, s)]
    return roots, layer_lines


def _certify(e, p, ns):
    """(n, certified directions, CountBreakdown) for every distinct n of
    ns, in ascending order.

    The view of p (_view) is built once.  The candidates of n are its
    axis orbits, for even n, and both orientations of every root line of
    _line_roots.  Those of consecutive n are gathered into bands of
    about _BAND_ROWS rows, and each band is certified in
    one retiring lockstep (_closure_errors), so memory stays bounded on
    a long range.  A candidate is certified when its closure error (the
    mid-chord defect) is below CERT_TOL; the rejected ones of each n are
    counted and reported in a RuntimeWarning, not returned.  Directions
    are sorted by angle.  A generator: the warning points at the caller
    of the function that iterates it.
    """
    ns = sorted(set(ns))
    if ns and ns[0] < 2:
        raise ValueError("period search needs n >= 2")
    view = _view(e, p)
    band, rows = [], 0
    for i, n in enumerate(ns):
        roots, layer_lines = _line_roots(e, view, n)
        cands = [] if n % 2 else list(view.axes)
        for phi, s in roots:
            caustic = classify_caustic(e, s)
            for ang in (phi, phi + math.pi):
                cands.append(((math.cos(ang), math.sin(ang)), caustic))
        band.append((n, cands, 2 * layer_lines))
        rows += 2 * len(cands)
        if rows < _BAND_ROWS and i + 1 < len(ns):
            continue
        walked = _closure_errors(e, p, [(n, [v for v, _ in cands])
                                        for n, cands, _ in band])
        for (n, cands, layer), errs in zip(band, walked):
            rejected = [err for err in errs if not err < CERT_TOL]
            if rejected:
                warnings.warn(f"n = {n}: {len(rejected)} of {len(errs)} candidate "
                              f"directions rejected, worst closure error "
                              f"{max(rejected):.3g} (CERT_TOL = {CERT_TOL:g})",
                              RuntimeWarning, stacklevel=3)
            out = [PeriodicDirection(v, n, caustic, err)
                   for (v, caustic), err in zip(cands, errs) if err < CERT_TOL]
            out.sort(key=lambda d: math.atan2(d.direction[1], d.direction[0]) % (2.0 * math.pi))
            yield n, out, CountBreakdown(len(out) + layer, len(out), layer,
                                         len(rejected))
        band, rows = [], 0


def find_periodic_directions(e, p, n):
    """All certified unit directions from p with orbit period dividing
    n, both orientations of every tangent line, sorted by angle.

    Every level k/n of beta2 is inverted once in lambda and its two
    tangent lines through p follow in closed form.  Directions whose
    caustics fall in the focal boundary layer (|lambda - 1| < LAYER_BAND)
    are omitted here, and count_periodic adds their exact number: most
    are not representable, though some still certify for n up to ~20.
    """
    [(_, dirs, _)] = _certify(e, p, [n])
    return dirs


def count_periodic(e, p, n):
    """Number of periodic directions (period dividing n) from p:
    certified directions plus the exact count of focal-layer levels
    (two directions per unrepresentable tangent line), with the number
    of candidates that failed certification beside them."""
    [(_, _, counts)] = _certify(e, p, [n])
    return counts


def count_periodic_range(e, p, ns):
    """count_periodic for every n of ns, in the order of ns.

    The candidates of all n are certified together, in retiring
    lockstep (see _certify), which amortizes the per-step cost of
    advance_batch over the whole range; each CountBreakdown equals the
    one-n call's.
    """
    ns = list(ns)
    counts = {n: bd for n, _, bd in _certify(e, p, ns)}
    return [counts[n] for n in ns]


def predicted_count(e, p, n):
    """Linear-law prediction for the number of period-dividing-n
    directions from the interior, non-focal p: c_o n (odd) or c_e n
    (even) with c_o = 2 - 4 beta2(M/c^2) and
    c_e = 2(1 - beta2(M/c^2) - beta2(m/c^2)), beta2 taken at the
    extremes that _line_roots inverts from (_view).  A kind with no
    lines through p (p on an axis) takes beta2 = 1/2 and adds nothing.

    A kind with extreme beta2_ext sees ceil(n/2) - 1 - floor(n beta2_ext)
    levels, four directions each.  So the odd count exceeds c_o n by
    -2 + 4 frac(n beta2(M/c^2)), in [-2, 2), once every candidate
    certifies.  c_e counts tangent lines, two directions each, so the
    even directions that count_periodic returns grow at 2 c_e.
    """
    a, b = p
    if math.hypot(a - e.c, b) < 1e-9 or math.hypot(a + e.c, b) < 1e-9:
        raise ValueError("prediction undefined at a focus")
    ell, hyp = _view(e, p).kinds
    bM = ell[2] if ell else 0.5
    if n % 2:
        return (2.0 - 4.0 * bM) * n
    bm = hyp[2] if hyp else 0.5
    return 2.0 * (1.0 - bM - bm) * n


class ConvergenceError(RuntimeError):
    """Length maximization failed to settle; .best holds the candidate."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


def _thomas(diag, off, rhs):
    """Solution s of the symmetric tridiagonal system with diagonal
    diag and off-diagonal off, A s = rhs, by one Thomas sweep; None
    unless every pivot is negative, that is unless A is negative
    definite."""
    piv, y = [diag[0]], [rhs[0]]
    for a, b, r in zip(diag[1:], off, rhs[1:]):
        if not piv[-1] < 0.0:
            return None
        y.append(r - b * y[-1] / piv[-1])
        piv.append(a - b * b / piv[-1])
    if not piv[-1] < 0.0:
        return None
    s = [y[-1] / piv[-1]]
    for d, b, r in zip(piv[-2::-1], off[::-1], y[-2::-1]):
        s.append((r - b * s[-1]) / d)
    return s[::-1]


def _segments(chain):
    """Unit vector and length of every segment of chain."""
    out = []
    for q, r in zip(chain, chain[1:]):
        dx, dy = r[0] - q[0], r[1] - q[1]
        ell = math.hypot(dx, dy)
        out.append((dx / ell, dy / ell, ell))
    return out


def _derivatives(b, th, chain, segs):
    """Gradient and the diagonal and off-diagonal of the Hessian of the
    length of chain, p1 -> boundary points at angles th -> p2, over th.

    With q = (cos t, b sin t), q' = (-sin t, b cos t) and q'' = -q, the
    incoming and outgoing units u and w and lengths l of the segments
    at a bounce: g = (u - w).q', H_jj = (q' x u)^2 / l_in
    + (q' x w)^2 / l_out + (u - w).q'' and, between bounces j and j + 1
    on one segment of unit w and length l,
    H_j,j+1 = -q_j'^T (I - w w^T) q_j+1' / l = -(q_j' x w)(q_j+1' x w) / l.
    """
    g, diag, cross_in, cross_out = [], [], [], []
    for t, (qx, qy), (ux, uy, l_in), (wx, wy, l_out) in zip(
            th, chain[1:], segs, segs[1:]):
        tx, ty = -math.sin(t), b * math.cos(t)
        cu, cw = tx * uy - ty * ux, tx * wy - ty * wx
        g.append((ux - wx) * tx + (uy - wy) * ty)
        diag.append(cu * cu / l_in + cw * cw / l_out
                    - (ux - wx) * qx - (uy - wy) * qy)
        cross_in.append(cu)
        cross_out.append(cw)
    off = [-cw * cu / seg[2] for cw, cu, seg
           in zip(cross_out, cross_in[1:], segs[1:])]
    return g, diag, off


def _gain(b, th, steps, segs, new_segs):
    """Length gained when the bounce angles th move by steps, given the
    _segments of the path before and after.  Each segment gains
    (l'^2 - l^2)/(l' + l), with l'^2 - l^2 = (d' - d).(d' + d) for its
    vectors d and d' and the moves d' - d of its ends in product form,
    cos(t + s) - cos t = -2 sin(s/2) sin(t + s/2) and its sine twin, so
    a gain far below one ulp of the length keeps its sign."""
    moves = [(0.0, 0.0)]
    for t, s in zip(th, steps):
        h = 2.0 * math.sin(0.5 * s)
        moves.append((-h * math.sin(t + 0.5 * s), b * h * math.cos(t + 0.5 * s)))
    moves.append((0.0, 0.0))
    return sum(((m1[0] - m0[0]) * (ux * l + vx * lv)
                + (m1[1] - m0[1]) * (uy * l + vy * lv)) / (l + lv)
               for m0, m1, (ux, uy, l), (vx, vy, lv)
               in zip(moves, moves[1:], segs, new_segs))


def _climb(e, p1, p2, th):
    """(length, angles) of the length maximum that a damped Newton
    ascent reaches from the bounce angles th.

    Each step solves (H - mu I) s = -g for the tridiagonal Hessian H
    and the gradient g of _derivatives, by one O(n) Thomas sweep.  The
    Levenberg shift mu starts at a tenth of the largest |H_jj|, so the
    first step is a short one in the basin of the start.  It grows
    fourfold until every pivot is negative and the length does not fall
    (_gain >= 0), and drops tenfold after each step taken, so the climb
    ends in Newton steps.  The climb stops once no gradient component
    exceeds _GTOL, or when no shift below 1e9 times the largest |H_jj|
    gains length.
    """
    b = math.sqrt(e.b2)
    chain = [p1] + [e.boundary_point(t) for t in th] + [p2]
    segs = _segments(chain)
    mu = None
    for _ in range(_MAX_STEPS):
        g, diag, off = _derivatives(b, th, chain, segs)
        if max(map(abs, g)) <= _GTOL:
            break
        scale = max(map(abs, diag))
        mu = 0.1 * scale if mu is None else mu
        while mu < 1e9 * scale:
            s = _thomas([d - mu for d in diag], off, [-x for x in g])
            if s is not None:
                new = [t + st for t, st in zip(th, s)]
                new_chain = [p1] + [e.boundary_point(t) for t in new] + [p2]
                new_segs = _segments(new_chain)
                if _gain(b, th, s, segs, new_segs) >= 0.0:
                    th, chain, segs = new, new_chain, new_segs
                    mu *= 0.1
                    break
            mu = max(4.0 * mu, 1e-3 * scale)
        else:
            break
    return sum(seg[2] for seg in segs), th


def connecting_trajectory(e, p1, p2, n):
    """Billiard path between two interior points, p1 -> (n-1 bounces)
    -> p2, by total-length maximization (the maximum satisfies the
    reflection law at every bounce).  The length is climbed by damped
    Newton (_climb: closed-form gradient and tridiagonal Hessian over
    the bounce angles, a Levenberg shift that keeps every step an
    ascent, one Thomas sweep a step) from 2(n-1) starts, one per
    rotation number k/n (k = 1..n-1, after Birkhoff's one length maximum
    per rotation number) and phase 0 or pi, in that order: the first
    bounce sits at angle atan2(p1) + phase and each later one turns on
    by 2 pi k/n.  The starts follow from the input alone, so no seed
    enters.  A later candidate replaces the best only if strictly
    longer.  Each climb stops once no gradient component exceeds 1e-13
    (_GTOL): over the 8,500 climbs of the 1,700 two- and three-bounce
    connections of the orbit benchmark (seeds 0-33), the largest
    component at the end has median 7e-16, and the worst reflection
    residual of a returned path is 3.5e-14.  A path whose worst residual
    exceeds 1e-8 raises ConvergenceError, which carries it.  Returns a
    Trajectory whose points carry the outgoing direction at each
    bounce."""
    if n < 1:
        raise ValueError("need n >= 1 segments")
    if n == 1:
        raise ValueError("a single segment has no bounce to optimize")
    _require_interior(e, p1)
    _require_interior(e, p2)
    a1 = math.atan2(p1[1], p1[0])
    best_len, best_th = -1.0, None
    for k in range(1, n):
        for phase in (0.0, math.pi):
            length, th = _climb(e, p1, p2, [a1 + phase + 2.0 * math.pi * k * j / n
                                            for j in range(n - 1)])
            if length > best_len:
                best_len, best_th = length, th

    pts = []
    verts = [e.boundary_point(t) for t in best_th]
    chain = [p1] + verts + [p2]
    for j, q in enumerate(verts):
        nxt = chain[j + 2]
        vx, vy = unit(nxt[0] - q[0], nxt[1] - q[1])
        pts.append(PhasePoint(q[0], q[1], vx, vy))
    traj = Trajectory(points=pts, caustic=caustic_of_line(
        e, p1, slope_of(verts[0][0] - p1[0], verts[0][1] - p1[1])))
    if max(reflection_residual(e, *chain[j:j + 3]) for j in range(n - 1)) > 1e-8:
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


def _passage_at(phi, e, p, q, k):
    """Signed distance of q from the outgoing line of bounce state k of
    the shot from p at angle phi; steps only the k + 1 states read and
    keeps the last.  At a node of _direction_grid it equals the grid
    value of _grid_passages bit for bit (both start from math.cos and
    math.sin of the same double), so brentq may take its end values from
    the grid."""
    b2 = e.b2
    x, y, vx, vy = p[0], p[1], math.cos(phi), math.sin(phi)
    for _ in range(k + 1):
        x, y, vx, vy = _step(b2, x, y, vx, vy)
    return _cross(q, x, y, vx, vy)


@functools.lru_cache(maxsize=_GRID_TABLES)
def _direction_grid(grid):
    """(thetas, vx, vy) of a scan over `grid` direction cells: the
    grid + 1 node angles np.linspace(0, 2 pi, grid + 1) and the unit
    vectors of the first `grid` nodes, from math.cos and math.sin (as
    _passage_at computes them; np.cos need not round alike).  Built once
    per grid size, kept for the last _GRID_TABLES sizes, and read-only,
    so a write raises instead of changing a later scan."""
    thetas = np.linspace(0.0, 2.0 * math.pi, grid + 1)
    nodes = thetas[:-1].tolist()
    vx = np.fromiter(map(math.cos, nodes), float, grid)
    vy = np.fromiter(map(math.sin, nodes), float, grid)
    for a in (thetas, vx, vy):
        a.flags.writeable = False
    return thetas, vx, vy


def _grid_passages(e, p, q, vx, vy, n_max):
    """_passage_at for every shot from p along the unit vectors (vx[i],
    vy[i]) and every state k in 1..n_max-1 (row k-1), all shots stepped
    at once in advance_batch.  The values equal _passage_at's bit for bit
    when the unit vectors are math.cos and math.sin of its angles, as the
    table of _direction_grid is."""
    x = np.full(vx.size, p[0], dtype=float)
    y = np.full(vx.size, p[1], dtype=float)
    x, y, vx, vy = advance_batch(e, x, y, vx, vy)
    rows = []
    for _ in range(n_max - 1):
        x, y, vx, vy = advance_batch(e, x, y, vx, vy)
        rows.append(_cross(q, x, y, vx, vy))
    return rows


def _sign_changes(vals):
    """Cells j whose values vals[j], vals[j + 1] (cyclically) change
    sign, or whose left value is exactly zero (the root on that node,
    which the cell before does not report); a NaN product counts as a
    change (the test is "not >= 0")."""
    nxt = np.concatenate((vals[1:], vals[:1]))
    return np.flatnonzero((vals == 0.0) | ~(vals * nxt >= 0.0))


def _passages(e, p, q, n_max, tol, grid, n_states):
    """Shots from p whose segment after bounce k passes through q, for
    k = 1..n_max-1.

    Sign changes of the passage distance over a grid of `grid`
    directions are refined by the in-repo Brent solver (_roots.brentq,
    equal bit for bit to scipy's), which takes its end values from the
    grid instead of simulating them again.  The grid's angles and unit
    vectors come from _direction_grid, built once per grid size from
    math.cos and math.sin and kept for a bounded number of sizes; they
    must stay the doubles _passage_at computes, or the reused end values
    would no longer be the objective's.  Each root is re-simulated
    for max(n_states, k + 2) states.  Yields (k, phi, states, cross) for
    every root within tol of q whose foot lies within tol of the segment
    from states[k] to states[k + 1]; brackets the solver rejects (a NaN
    value or no sign change) are skipped.  Inputs that can find nothing
    raise ValueError: a grid of no cells, n_max < 2 (no segment after a
    bounce) and a tol that is not positive (NaN included).
    """
    if grid < 1:
        raise ValueError("direction grid needs grid >= 1")
    if n_max < 2:
        raise ValueError("passage scan needs n_max >= 2")
    if not tol > 0.0:
        raise ValueError("passage scan needs tol > 0")
    thetas, vx, vy = _direction_grid(grid)
    rows = _grid_passages(e, p, q, vx, vy, n_max)
    for k, vals in enumerate(rows, start=1):
        for j in _sign_changes(vals):
            # The grid values are _passage_at's, bit for bit; the last
            # cell ends at 2 pi, whose sine is not the 0.0 of node 0.
            fb = vals[j + 1] if j + 1 < grid else None
            try:
                phi = brentq(_passage_at, thetas[j], thetas[j + 1],
                             args=(e, p, q, k), xtol=1e-14,
                             fa=vals[j], fb=fb)
            except ValueError:
                continue
            states = _walk(e, p[0], p[1], math.cos(phi), math.sin(phi),
                           max(n_states, k + 2))
            x, y, vx, vy = states[k]
            cross = _cross(q, x, y, vx, vy)
            along = (q[0] - x) * vx + (q[1] - y) * vy
            seg_len = math.hypot(states[k + 1][0] - x, states[k + 1][1] - y)
            if abs(cross) > tol or not -tol <= along <= seg_len + tol:
                continue
            yield k, phi, states, cross


def boomerang_scan(e, p, n_max, tol, grid=DEFAULT_GRID):
    """Shots from p whose k-th segment passes through p again, k < n_max,
    classified as retraced (kind 2, direction reversed) or crossing on
    the other tangent line (kind 3).  Sign changes of the passage
    distance over a direction grid are refined by the in-repo Brent
    solver (_roots.brentq) and each hit is certified by re-simulation.
    Each grid cell brackets its own root, so two hits at nearby angles
    are two roots and both are reported, sorted by angle and bounce."""
    _require_interior(e, p)
    hits = []
    for k, phi, states, cross in _passages(e, p, p, n_max, tol, grid, 0):
        _, _, vx, vy = states[k]
        v0x, v0y = math.cos(phi), math.sin(phi)
        dot = vx * v0x + vy * v0y
        crossdir = vx * v0y - vy * v0x
        if dot > 0.0 and abs(crossdir) < 1e-6:
            continue  # periodic passage, not a boomerang
        kind = 2 if (dot < 0.0 and abs(crossdir) < 1e-6) else 3
        hits.append(BoomerangHit((v0x, v0y), k, kind, abs(cross)))
    hits.sort(key=lambda h: (math.atan2(h.direction[1], h.direction[0]) % (2 * math.pi), h.bounce))
    return hits


def hole_scan(e, p1, p2, h, n_max, tol, grid=DEFAULT_GRID):
    """Shots from p1 passing through p2 at bounce count m and later
    within tol of the boundary point h at bounce n <= n_max.

    The passage through p2 is solved exactly (bracket and the in-repo
    Brent solver, _roots.brentq, per m); the hole condition is then
    checked on the resulting orbit.  The focal pair p1, p2 = (+-c, 0) is
    rejected: every chord through one focus passes through the other,
    the excluded exceptional case.
    """
    if (math.hypot(p1[0] - e.c, p1[1]) < 1e-9 and math.hypot(p2[0] + e.c, p2[1]) < 1e-9) or \
       (math.hypot(p1[0] + e.c, p1[1]) < 1e-9 and math.hypot(p2[0] - e.c, p2[1]) < 1e-9):
        raise ValueError("p1, p2 are the foci: excluded exceptional case")
    _require_boundary(e, h, "h must lie on the boundary")
    _require_interior(e, p1)
    _require_interior(e, p2)

    hits = []
    for m, phi, states, cross in _passages(e, p1, p2, n_max, tol, grid, n_max):
        for n in range(m + 1, n_max + 1):
            x, y, _, _ = states[n - 1]
            miss = math.hypot(x - h[0], y - h[1])
            if miss <= tol:
                hits.append(HoleHit((math.cos(phi), math.sin(phi)),
                                    m, n, abs(cross), miss))
    hits.sort(key=lambda r: (math.atan2(r.direction[1], r.direction[0]) % (2 * math.pi), r.m, r.n))
    return hits


def angle_pair_scan(e, p, alpha, n_max, tol):
    """Pairs of periodic directions from p separated by exactly the
    angle alpha, assembled from the certified period-dividing-n lists
    for 2 <= n <= n_max (certified together, in one retiring lockstep);
    both members close within tol.  A direction of period n is found
    again, bit for bit, at every multiple of n (see _line_roots), and
    counts once, with its smallest period: the first n that finds it."""
    _require_angle(alpha)
    if n_max < 2:
        raise ValueError("angle-pair scan needs n_max >= 2")
    if not tol > 0.0:
        raise ValueError("angle-pair scan needs tol > 0")
    found = {}
    for n, dirs, _ in _certify(e, p, range(2, n_max + 1)):
        for d in dirs:
            if d.direction not in found:
                ang = math.atan2(d.direction[1], d.direction[0]) % (2.0 * math.pi)
                found[d.direction] = (ang, n, d)
    return _pair_angles(sorted(found.values(), key=lambda t: (t[0], t[1])),
                        alpha, tol)


def _pair_angles(angles, alpha, tol):
    """AnglePairs (d1, d2) of the (angle, period, PeriodicDirection)
    triples of angles, sorted by angle in [0, 2 pi), whose angles differ
    by alpha to within _PAIR_WINDOW (mod 2 pi) and which both close
    within tol; in the order of d1, then of d2.

    The matches of d1 lie in windows around the target angle + alpha and
    its images 2 pi below and above, so each window is found by
    bisection and only its entries are tested, in ascending order, which
    is the order of a scan over all of angles.  The windows are twice
    _PAIR_WINDOW wide on each side, far more than the rounding of the
    cyclic gap, so no match is missed.
    """
    keys = [t[0] for t in angles]
    turn = 2.0 * math.pi
    pairs = []
    for ang, n1, d1 in angles:
        target = (ang + alpha) % turn
        for image in (target - turn, target, target + turn):
            lo = bisect.bisect_left(keys, image - 2.0 * _PAIR_WINDOW)
            hi = bisect.bisect_right(keys, image + 2.0 * _PAIR_WINDOW)
            for ang2, n2, d2 in angles[lo:hi]:
                if abs((ang2 - target + math.pi) % turn - math.pi) < _PAIR_WINDOW:
                    if d1.closure_error < tol and d2.closure_error < tol:
                        pairs.append(AnglePair(d1.direction, d2.direction, n1, n2))
    return pairs


def parallelogram_angle_pairs(tau, alpha, H):
    """Lattice pairs (lambda, delta) in (Z tau + Z)^2 with
    arg(lambda/delta) = +-alpha (mod pi), coefficients bounded by H,
    deduplicated up to real scaling; also reports whether tau satisfies
    a small rational quadratic (complex-multiplication proxy); 0 < alpha
    < pi, as in angle_pair_scan."""
    _require_angle(alpha)
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
                    for tgt in (alpha, math.pi - alpha):
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


def _is_quadratic(tau):
    """Whether A tau^2 + B tau + C = 0 within 1e-10 for integers with
    1 <= A <= 50 and |B|, |C| <= 100."""
    bound, tol = 50, 1e-10
    for A in range(1, bound + 1):
        v = A * tau * tau
        for B in range(-2 * bound, 2 * bound + 1):
            w = v + B * tau
            C = -round(w.real)
            if abs(C) <= 2 * bound and abs(w + C) < tol:
                return True
    return False
