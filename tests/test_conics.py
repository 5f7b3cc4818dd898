"""Geometry layer: reflection law, billiard map, caustic invariants."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caustica import conics
from caustica import Ellipse, Shot, caustic_phase_point, classify_caustic, first_hit, inward, simulate
from caustica.conics import (CausticParam, CausticKind, PhasePoint, Trajectory, _step, _walk, advance,
                             advance_batch, caustic_of_line, invariant_density,
                             phase_invariant, reflect, slope_of, unit,
                             z_of_point)

E = Ellipse(0.6)


# Oracles for the formulas of conics, each by a route of its own.

def point_of_z(e, z):
    """Inverse of z_of_point on the boundary."""
    if math.isinf(z):
        return 1.0, 0.0
    b2 = e.b2
    den = z * z + b2
    return (z * z - b2) / den, -2.0 * z * b2 / den


def chord_dual(q1, q2):
    """Dual coordinates (t, u) with t*x + u*y = 1 of the line q1 q2.

    Returns None when the chord passes through the origin, where the
    dual chart is singular.
    """
    x1, y1 = q1
    x2, y2 = q2
    det = x1 * y2 - x2 * y1
    if abs(det) < 1e-13 * max(1.0, abs(x1), abs(y1)):
        return None
    return (y2 - y1) / det, (x1 - x2) / det


def dual_tangency_residual(e, s, q1, q2):
    """|s t^2 + (s - c^2) u^2 - 1| for the chord q1 q2.

    Falls back to the slope form of the tangency condition for chords
    through the origin.
    """
    sv = s.s if isinstance(s, CausticParam) else s
    tu = chord_dual(q1, q2)
    if tu is None:
        xi = slope_of(q2[0] - q1[0], q2[1] - q1[1])
        s2 = caustic_of_line(e, q1, xi).s
        return abs(s2 - sv)
    t, u = tu
    return abs(sv * t * t + (sv - e.c2) * u * u - 1.0)


def arc_measure(e, s, z_lo, z_hi):
    """Invariant measure of the z-interval [z_lo, z_hi], by mpmath.quad
    of the density."""
    return abs(float(mp.quad(lambda z: invariant_density(e, s, float(z)), [z_lo, z_hi])))


def random_interior(rng):
    while True:
        x = rng.uniform(-1.0, 1.0)
        y = rng.uniform(-1.0, 1.0)
        if E.boundary_residual(x, y) < -0.05:
            return x, y


def test_ellipse_validation():
    with pytest.raises(ValueError):
        Ellipse(0.0)
    with pytest.raises(ValueError):
        Ellipse(1.0)
    with pytest.raises(ValueError):
        Ellipse(-0.3)
    assert E.b2 == pytest.approx(0.64)
    assert E.foci == ((0.6, 0.0), (-0.6, 0.0))


def test_float32_focal_parameter_computes_in_double():
    # A numpy float32 c is stored as the Python float of its value, so
    # the library computes as for that float (in float32 it certified 0
    # of 4 candidates at n = 7 and gave a Manin residual of 0.0).
    from caustica import count_periodic, manin_residual

    c32 = np.float32(0.6)
    e32, e = Ellipse(c32), Ellipse(float(c32))
    assert type(e32.c) is float and e32 == e
    assert count_periodic(e32, (0.2, 0.3), 7) == count_periodic(e, (0.2, 0.3), 7)
    assert count_periodic(e, (0.2, 0.3), 7).certified == 4
    assert manin_residual(e32, 1.5).hex() == manin_residual(e, 1.5).hex()
    with pytest.raises(TypeError):
        Ellipse("0.6")


def test_boundary_point_on_boundary():
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        x, y = E.boundary_point(theta)
        assert abs(E.boundary_residual(x, y)) < 1e-15


def test_classify_caustic_kinds():
    c2 = E.c2
    assert classify_caustic(E, 0.5 * c2).kind is CausticKind.HYPERBOLIC
    assert classify_caustic(E, 0.5 * (c2 + 1.0)).kind is CausticKind.ELLIPTIC
    assert classify_caustic(E, c2).kind is CausticKind.DEGENERATE_FOCAL
    assert classify_caustic(E, 1.0).kind is CausticKind.DEGENERATE_BOUNDARY
    assert classify_caustic(E, 0.0).kind is CausticKind.DEGENERATE_CENTER
    assert classify_caustic(E, c2).is_degenerate
    with pytest.raises(ValueError):
        classify_caustic(E, 1.2)


def test_reflection_preserves_angle_and_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        q = E.boundary_point(theta)
        v = unit(rng.normal(), rng.normal())
        w = reflect(E, q, v)
        assert math.hypot(*w) == pytest.approx(1.0, abs=1e-12)
        # Tangent components agree, normal components flip.
        nx, ny = q[0], q[1] / E.b2
        nn = math.hypot(nx, ny)
        nx, ny = nx / nn, ny / nn
        assert v[0] * nx + v[1] * ny == pytest.approx(-(w[0] * nx + w[1] * ny), abs=1e-12)
        tx, ty = -ny, nx
        assert v[0] * tx + v[1] * ty == pytest.approx(w[0] * tx + w[1] * ty, abs=1e-12)
    for q in ((0.5, 0.5), (math.nan, 0.0)):  # a NaN residual is off too
        with pytest.raises(ValueError, match="reflection point off the boundary"):
            reflect(E, q, (1.0, 0.0))


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.05, 0.95), theta=st.floats(0.0, 2.0 * math.pi),
       phi=st.floats(0.0, 2.0 * math.pi))
def test_reflection_is_involution(c, theta, phi):
    e = Ellipse(c)
    q = e.boundary_point(theta)
    v = (math.cos(phi), math.sin(phi))
    w = reflect(e, q, reflect(e, q, v))
    assert w[0] == pytest.approx(v[0], abs=1e-12)
    assert w[1] == pytest.approx(v[1], abs=1e-12)


def test_caustic_of_line_matches_dual_condition():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = random_interior(rng)
        xi = math.tan(rng.uniform(-1.5, 1.5))
        cp = caustic_of_line(E, p, xi)
        # A second point on the same line gives the same caustic.
        t = rng.uniform(0.1, 0.5)
        p2 = (p[0] + t, p[1] + t * xi)
        cp2 = caustic_of_line(E, p2, xi)
        assert cp2.s == pytest.approx(cp.s, rel=1e-12)


def test_vertical_line_caustic():
    cp = caustic_of_line(E, (0.5, 0.1), math.inf)
    assert cp.s == pytest.approx(0.25, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.05, 0.95), r=st.floats(0.0, 0.95),
       theta=st.floats(0.0, 2.0 * math.pi), ang=st.floats(0.0, 2.0 * math.pi))
def test_simulate_stays_on_boundary_and_conserves_caustic(c, r, theta, ang):
    e = Ellipse(c)
    p = (r * math.cos(theta), r * math.sqrt(e.b2) * math.sin(theta))
    traj = simulate(e, Shot(p[0], p[1], math.cos(ang), math.sin(ang)), 40)
    assert len(traj) == 40
    s0 = traj.caustic.s
    for x in traj:
        assert abs(e.boundary_residual(x.x, x.y)) < 1e-12
        cp = caustic_of_line(e, x.p, slope_of(x.vx, x.vy))
        assert cp.s == pytest.approx(s0, abs=1e-10)


def test_every_chord_tangent_to_caustic():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_interior(rng)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        traj = simulate(E, Shot(p[0], p[1], math.cos(ang), math.sin(ang)), 30)
        if traj.caustic.is_degenerate:
            continue
        pts = list(traj)
        for a, b in zip(pts, pts[1:]):
            assert dual_tangency_residual(E, traj.caustic, a.p, b.p) < 1e-9


def test_phase_invariant_squared_value():
    # ((1-c^2) x v1 + y v2)^2 = (1 - c^2)(1 - s) along any trajectory.
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_interior(rng)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        traj = simulate(E, Shot(p[0], p[1], math.cos(ang), math.sin(ang)), 20)
        target = E.b2 * (1.0 - traj.caustic.s)
        for x in traj:
            assert phase_invariant(E, x) ** 2 == pytest.approx(target, abs=1e-10)


def test_first_hit_lands_forward_on_boundary():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = random_interior(rng)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        vx, vy = math.cos(ang), math.sin(ang)
        x = first_hit(E, Shot(p[0], p[1], vx, vy))
        assert abs(E.boundary_residual(x.x, x.y)) < 1e-12
        # The hit lies ahead of the start along the shot direction.
        assert (x.x - p[0]) * vx + (x.y - p[1]) * vy > 0.0


def test_advance_from_boundary_moves():
    x = caustic_phase_point(E, 0.8, 0.3)
    y = advance(E, x)
    assert math.hypot(y.x - x.x, y.y - x.y) > 1e-3
    assert abs(E.boundary_residual(y.x, y.y)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(c=st.floats(0.05, 0.95), rho=st.one_of(st.just(1.0), st.floats(0.0, 1.3)),
       theta=st.floats(0.0, 2.0 * math.pi),
       angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=12),
       bounces=st.integers(1, 12))
@example(c=0.6, rho=1.0, theta=0.0, angles=[math.pi], bounces=3)
@example(c=0.6, rho=0.0, theta=0.0, angles=[0.3, 2.0, 3.5, 3.9, 5.5], bounces=3)
@example(c=0.6, rho=0.0, theta=math.pi, angles=[0.3, 2.0, 3.5, 5.5, 6.0],
         bounces=3)
def test_advance_batch_matches_scalar_bitwise(c, rho, theta, angles, bounces):
    # Rows of the batched step equal first_hit/advance states and the
    # states of _walk bit for bit.  rho = 1 starts on the boundary, where the two tangent shots
    # graze (at the vertex example, exactly: the row stays in place);
    # rho > 1 starts outside, where both chord roots can lie ahead or a
    # shot can miss the table.  rho = 0 starts at the centre: there B is
    # -0.0 for third-quadrant directions from (0.0, 0.0) and for
    # fourth-quadrant ones from (-0.0, 0.0) (theta = pi), which _step
    # sends down its B >= 0.0 branch.
    e = Ellipse(c)
    bx, by = e.boundary_point(theta)
    x0, y0 = rho * bx, rho * by
    tx, ty = unit(-math.sin(theta), math.sqrt(e.b2) * math.cos(theta))
    dirs = [(math.cos(a), math.sin(a)) for a in angles] + [(tx, ty), (-tx, -ty)]
    k = len(dirs)
    x, y = np.full(k, x0), np.full(k, y0)
    vx = np.array([d[0] for d in dirs])
    vy = np.array([d[1] for d in dirs])
    rows = [first_hit(e, Shot(x0, y0, dx, dy)) for dx, dy in dirs]
    walks = [_walk(e, x0, y0, dx, dy, bounces) for dx, dy in dirs]
    for i in range(bounces):
        x, y, vx, vy = advance_batch(e, x, y, vx, vy)
        got = list(zip(x.tolist(), y.tolist(), vx.tolist(), vy.tolist()))
        assert got == [(r.x, r.y, r.vx, r.vy) for r in rows]
        assert got == [w[i] for w in walks]
        rows = [advance(e, r) for r in rows]


def test_advance_batch_lets_no_warning_escape():
    # Grazing, missing and outside rows, alone and beside ordinary ones,
    # step without a numpy RuntimeWarning and match _step.
    rows = [(1.0, 0.0, 0.0, 1.0),    # grazing at the vertex
            (0.0, 2.0, 1.0, 0.0),    # outside, misses the table
            (2.0, 0.0, -1.0, 0.0),   # outside, both roots ahead
            (2.0, 0.0, 1.0, 0.0),    # outside, both roots behind
            (0.0, 0.0, -0.6, -0.8),  # the centre, B = -0.0
            (0.1, 0.2, 0.6, 0.8)]    # interior
    for batch in [rows] + [[r] for r in rows]:
        x, y, vx, vy = (np.array(col) for col in zip(*batch))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = advance_batch(E, x, y, vx, vy)
        assert list(zip(*(a.tolist() for a in got))) == \
            [_step(E.b2, *r) for r in batch]


def test_first_hit_is_advance():
    # One scalar step serves shots from the interior and bounce states.
    assert first_hit is advance


def test_grazing_shot_stays_put():
    x = PhasePoint(1.0, 0.0, 0.0, 1.0)  # tangent at the vertex
    assert advance(E, x) == x
    assert first_hit(E, Shot(1.0, 0.0, 0.0, 1.0)) == x
    out = advance_batch(E, np.array([1.0]), np.array([0.0]),
                        np.array([0.0]), np.array([1.0]))
    assert [float(a[0]) for a in out] == [1.0, 0.0, 0.0, 1.0]


def test_off_boundary_landing_raises_in_both_steps(monkeypatch):
    # A landing point that fails the boundary check raises in the scalar
    # and the batched step alike; a negative tolerance fails every one.
    monkeypatch.setattr(conics, "_REFLECT_TOL", -1.0)
    with pytest.raises(ValueError, match="off the boundary"):
        advance(E, caustic_phase_point(E, 0.8, 0.3))
    with pytest.raises(ValueError, match="off the boundary"):
        first_hit(E, Shot(0.1, 0.2, 0.6, 0.8))
    with pytest.raises(ValueError, match="off the boundary"):
        advance_batch(E, np.array([0.1, 0.0]), np.array([0.2, 0.0]),
                      np.array([0.6, 1.0]), np.array([0.8, 0.0]))


def test_z_parameter_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x, y = E.boundary_point(theta)
        z = z_of_point(x, y)
        x2, y2 = point_of_z(E, z)
        assert x2 == pytest.approx(x, abs=1e-12)
        assert y2 == pytest.approx(y, abs=1e-12)
    assert z_of_point(1.0, 0.0) == math.inf
    assert point_of_z(E, math.inf) == (1.0, 0.0)


def test_invariant_density_normalized():
    for s in (0.2, 0.8):
        A = invariant_density(E, s, 0.1)
        assert A > 0.0
    # Elliptic caustic: the measure of the whole line is 1.
    total = arc_measure(E, 0.8, -math.inf, math.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_arc_measure_invariant_under_billiard_map():
    # The pushforward of the invariant measure by one bounce preserves
    # arc measure: [z(a), z(b)] and its image carry the same mass.
    s = 0.8
    x_a = caustic_phase_point(E, s, 0.4)
    x_b = caustic_phase_point(E, s, 0.9)
    za, zb = z_of_point(x_a.x, x_a.y), z_of_point(x_b.x, x_b.y)
    ya, yb = advance(E, x_a), advance(E, x_b)
    wa, wb = z_of_point(ya.x, ya.y), z_of_point(yb.x, yb.y)
    m1 = arc_measure(E, s, min(za, zb), max(za, zb))
    m2 = arc_measure(E, s, min(wa, wb), max(wa, wb))
    assert m2 == pytest.approx(m1, abs=1e-8)


def test_chord_dual_represents_the_chord():
    rng = np.random.default_rng(8)
    for _ in range(30):
        q1 = E.boundary_point(rng.uniform(0.0, 2.0 * math.pi))
        q2 = E.boundary_point(rng.uniform(0.0, 2.0 * math.pi))
        tu = chord_dual(q1, q2)
        if tu is None:
            continue
        t, u = tu
        assert t * q1[0] + u * q1[1] == pytest.approx(1.0, abs=1e-9)
        assert t * q2[0] + u * q2[1] == pytest.approx(1.0, abs=1e-9)
    # A diameter has no dual coordinates.
    assert chord_dual((0.5, 0.2), (-0.5, -0.2)) is None


def test_inward_points_into_table():
    rng = np.random.default_rng(10)
    for _ in range(50):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p = E.boundary_point(theta)
        xi = math.tan(rng.uniform(-1.5, 1.5))
        vx, vy = inward(E, p, xi)
        # A small step along (vx, vy) moves strictly inside.
        assert E.boundary_residual(p[0] + 1e-6 * vx, p[1] + 1e-6 * vy) < 0.0


def test_caustic_phase_point_is_tangent_and_oriented():
    rng = np.random.default_rng(11)
    for s in (0.2, 0.8):
        for _ in range(20):
            if s < E.c2:
                # Hyperbolic caustics are reachable only from |x| < x0.
                th0 = math.acos(math.sqrt(s) / E.c)
                theta = rng.uniform(th0 + 0.05, math.pi - th0 - 0.05)
            else:
                theta = rng.uniform(0.0, 2.0 * math.pi)
            x = caustic_phase_point(E, s, theta)
            assert abs(E.boundary_residual(x.x, x.y)) < 1e-12
            cp = caustic_of_line(E, x.p, slope_of(x.vx, x.vy))
            assert cp.s == pytest.approx(s, abs=1e-9)
    with pytest.raises(ValueError):
        caustic_phase_point(E, 0.2, 0.0)  # vertex: hyperbolic caustic unreachable


def test_caustic_phase_point_orientation_consistent():
    # The clockwise choice winds the same way at every boundary point.
    s = 0.8
    signs = set()
    for theta in np.linspace(0.0, 2.0 * math.pi, 37):
        x = caustic_phase_point(E, s, theta)
        signs.add(math.copysign(1.0, x.x * x.vy - x.y * x.vx))
    assert signs == {-1.0}
    # Both tangents to a hyperbola can wind counter-clockwise about the
    # centre, so the rule is the sign of the tangential component
    # tau = (1-c^2) x v2 - y v1: negative at every reachable point of
    # both arcs, hence the choice never flips inside an arc.
    for c in (0.6, 0.9):
        e = Ellipse(c)
        s = 0.35 * e.c2
        reached = 0
        for theta in np.linspace(0.0, 2.0 * math.pi, 4000):
            try:
                x = caustic_phase_point(e, s, theta)
            except ValueError:
                continue
            reached += 1
            assert e.b2 * x.x * x.vy - x.y * x.vx < 0.0, (c, theta)
        assert reached > 1000


def test_records_are_immutable_named_tuples():
    # Every library record is a named tuple: repr Name(field=value, ...),
    # equality and hash with the tuple of its fields, unpacking, and no
    # attribute can be set.  Shot is PhasePoint under a second name.
    from caustica import (AnglePair, BoomerangHit, CausticExtrema, HoleHit,
                          LegendreCurve, MoebiusFit, PeriodicDirection)

    assert Shot is PhasePoint
    cp = classify_caustic(E, 0.62)
    x = PhasePoint(1.0, 0.0, -0.6, 0.8)
    caustic = "CausticParam(s=0.62, kind=<CausticKind.ELLIPTIC: 'elliptic'>)"
    records = {
        "Ellipse(c=0.6)": Ellipse(c=0.6),
        caustic: cp,
        "PhasePoint(x=1.0, y=0.0, vx=-0.6, vy=0.8)": x,
        "CausticExtrema(M=0.5, m=0.25)": CausticExtrema(0.5, 0.25),
        f"PeriodicDirection(direction=(0.6, 0.8), period=7, caustic={caustic}, "
        "closure_error=1e-12)": PeriodicDirection((0.6, 0.8), 7, cp, 1e-12),
        "BoomerangHit(direction=(0.6, 0.8), bounce=3, kind=2, miss=1e-10)":
            BoomerangHit((0.6, 0.8), 3, 2, 1e-10),
        "HoleHit(direction=(0.6, 0.8), m=1, n=4, miss_p=1e-10, miss_h=0.01)":
            HoleHit((0.6, 0.8), 1, 4, 1e-10, 0.01),
        "AnglePair(dir1=(0.6, 0.8), dir2=(-0.8, 0.6), period1=5, period2=7)":
            AnglePair((0.6, 0.8), (-0.8, 0.6), 5, 7),
        "MoebiusFit(a=0.5, b=-0.5, c=0.5, d=0.5, residual=1e-09)":
            MoebiusFit(0.5, -0.5, 0.5, 0.5, 1e-9),
        "LegendreCurve(lam=(0.5+0.25j))": LegendreCurve(0.5 + 0.25j),
    }
    for text, record in records.items():
        assert repr(record) == text
        assert record == tuple(record) and hash(record) == hash(tuple(record))
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    vx, vy = x.v
    assert tuple(x) == (*x.p, vx, vy) and x.reversed() == (1.0, 0.0, 0.6, -0.8)
    assert MoebiusFit(1.0, 2.0, 3.0, 4.0, 0.0).det == -2.0
    with pytest.raises(ValueError, match="Legendre parameter must avoid 0 and 1"):
        LegendreCurve(1)
    # Trajectory is a sequence of its points, compared by value and
    # mutable, so unhashable.
    traj = Trajectory([x, x.reversed()], cp)
    assert len(traj) == 2 and list(traj) == traj.points
    assert traj[1] == x.reversed() and traj[-2:] == traj.points
    assert traj == Trajectory(points=[x, x.reversed()], caustic=cp)
    assert traj != Trajectory([x], cp) and traj != traj.points
    assert repr(Trajectory([x], cp)) == (
        f"Trajectory(points=[PhasePoint(x=1.0, y=0.0, vx=-0.6, vy=0.8)], "
        f"caustic={caustic})")
    with pytest.raises(TypeError):
        hash(traj)


def test_phase_point_reversed():
    x = PhasePoint(1.0, 0.0, -0.6, 0.8)
    r = x.reversed()
    assert (r.vx, r.vy) == (0.6, -0.8)
    assert r.p == x.p
