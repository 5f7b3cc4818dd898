"""Batched phase points and cosine sums against the scalar code they
replace, bit for bit.

The references below are local copies of the scalar rules:
caustic_phase_point as the roots of the tangency quadratic, inward and
the choice of the tangent with the smaller tau = (1-c^2) x v2 - y v1 (the first on a tie,
as min does), and the cosine sums as a loop over the scalar walk _walk.
A row that the scalar loop refuses must make the batch raise the same
ValueError, the first row's first.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from caustica.birkhoff import (birkhoff_sum, birkhoff_sums, symmetric_sum,
                               window_sums)
from caustica.cli import main
from caustica.conics import (Ellipse, PhasePoint, _walk, caustic_of_line,
                             caustic_phase_point, caustic_phase_points,
                             reflect, slope_of)


def _phase_point_ref(e, s, theta):
    a, b = math.cos(theta), math.sqrt(e.b2) * math.sin(theta)
    qa = s - a * a
    qb = 2.0 * a * b
    qc = s - b * b - e.c2
    if abs(qa) < 1e-14:
        slopes = [math.inf] + ([-qc / qb] if abs(qb) > 1e-14 else [])
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            raise ValueError("caustic not reachable from this boundary point")
        sq = math.sqrt(disc)
        slopes = [(-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa)]
    dirs = []
    for xi in slopes:
        if math.isinf(xi):
            vx, vy = 0.0, 1.0
        else:
            h = math.hypot(1.0, xi)
            vx, vy = 1.0 / h, xi / h
        if a * vx + b * vy / e.b2 > 0.0:
            vx, vy = -vx, -vy
        dirs.append((vx, vy))
    vx, vy = min(dirs, key=lambda v: e.b2 * a * v[1] - b * v[0])
    return PhasePoint(a, b, vx, vy)


def _cos_sum_ref(e, x, y, vx, vy, n):
    total = 0.0
    for _, _, wx, wy in _walk(e, x, y, vx, vy, n):
        total += vx * wx + vy * wy
        vx, vy = wx, wy
    return total


def _plain_ref(e, p, n):
    if n < 1:
        raise ValueError("need at least one bounce")
    if caustic_of_line(e, p.p, slope_of(p.vx, p.vy)).is_degenerate:
        raise ValueError("Birkhoff sum undefined on a degenerate caustic")
    return _cos_sum_ref(e, p.x, p.y, p.vx, p.vy, n)


def _window_ref(e, p, m):
    if m < 0:
        raise ValueError("window half-width must be >= 0")
    if caustic_of_line(e, p.p, slope_of(p.vx, p.vy)).is_degenerate:
        raise ValueError("window sum undefined on a degenerate caustic")
    x, y, vx, vy = p.x, p.y, p.vx, p.vy
    ux, uy = reflect(e, (x, y), (vx, vy))
    return (ux * vx + uy * vy + _cos_sum_ref(e, x, y, vx, vy, m)
            + _cos_sum_ref(e, x, y, -ux, -uy, m))


def _outcome(f):
    """The float bits of what f returns (a float or floats), or the
    ValueError message it raises."""
    try:
        out = f()
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(out, float):
        out = [out]
    elif isinstance(out, PhasePoint):
        out = [out.x, out.y, out.vx, out.vy]
    elif isinstance(out, tuple):
        out = [v for row in zip(*(a.tolist() for a in out)) for v in row]
    assert all(type(v) is float for v in out)
    return [v.hex() for v in out]


@st.composite
def caustic_rows(draw):
    """(ellipse, s, thetas): a hyperbolic, elliptic or focal caustic and
    boundary angles, some of them where a tangent is vertical (cos^2 =
    s), where the two tangents to a hyperbola merge (cos = +-sqrt(s)/c)
    or at the vertices."""
    c = draw(st.floats(0.05, 0.95))
    e = Ellipse(c)
    frac = draw(st.floats(0.01, 0.99))
    s = draw(st.sampled_from([e.c2 * frac, e.c2 + e.b2 * frac, e.c2]))
    ends = [math.acos(math.sqrt(s))]
    if s < e.c2:
        ends.append(math.acos(math.sqrt(s) / c))
    special = [0.0, 0.5 * math.pi, math.pi]
    special += [t for a in ends for t in (a, -a, math.pi - a, math.pi + a)]
    theta = st.one_of(st.floats(0.0, 2.0 * math.pi), st.sampled_from(special))
    return e, s, draw(st.lists(theta, min_size=1, max_size=6))


# The two tangents at (1, 0) to the focal caustic have slopes -0.0 and
# 0.0 and tie at tau = 0.0: the first one is kept.
TIE = (Ellipse(0.6), 0.36, [0.0])


@settings(max_examples=300, deadline=None)
@given(rows=caustic_rows())
@example(rows=TIE)
def test_caustic_phase_points_match_the_scalar_rule(rows):
    e, s, thetas = rows
    for theta in thetas:
        assert (_outcome(lambda: caustic_phase_point(e, s, theta))
                == _outcome(lambda: _phase_point_ref(e, s, theta)))

    def rows_ref():
        return [v for th in thetas for p in [_phase_point_ref(e, s, th)]
                for v in p.p + p.v]

    want = _outcome(rows_ref)
    assert _outcome(lambda: caustic_phase_points(e, s, thetas)) == want


@settings(max_examples=300, deadline=None)
@given(rows=caustic_rows(), m=st.integers(0, 6), n=st.integers(1, 12))
@example(rows=TIE, m=1, n=1)
def test_cosine_sums_match_the_scalar_walk(rows, m, n):
    e, s, thetas = rows
    assert (_outcome(lambda: birkhoff_sums(e, s, thetas, n))
            == _outcome(lambda: [_plain_ref(e, _phase_point_ref(e, s, th), n)
                                 for th in thetas]))
    assert (_outcome(lambda: window_sums(e, s, thetas, m))
            == _outcome(lambda: [_window_ref(e, _phase_point_ref(e, s, th), m)
                                 for th in thetas]))
    for th in thetas:
        try:
            p = _phase_point_ref(e, s, th)
        except ValueError:
            continue
        assert (_outcome(lambda: birkhoff_sum(e, p, n))
                == _outcome(lambda: _plain_ref(e, p, n)))
        assert (_outcome(lambda: symmetric_sum(e, p, m))
                == _outcome(lambda: _window_ref(e, p, m)))


def test_window_sums_off_the_boundary_refused_per_row():
    # A centre off the boundary is refused at its reflection, after the
    # caustic of its chord is checked.
    e = Ellipse(0.6)
    p = caustic_phase_point(e, 0.62, 0.7)
    off = PhasePoint(1.001 * p.x, 1.001 * p.y, p.vx, p.vy)
    assert _outcome(lambda: symmetric_sum(e, off, 2)) == _outcome(
        lambda: _window_ref(e, off, 2))
    assert _outcome(lambda: symmetric_sum(e, off, 2))[0] == "ValueError"


def test_birkhoff_rows_above_one_block_match_a_row_loop(tmp_path):
    # 2 * 32769 rows: the walk takes more than one block of _BAND_ROWS.
    num = 32769
    out = tmp_path / "w.csv"
    argv = ["birkhoff", "--c", "0.6", "--s", "0.62", "--window", "1",
            "--num", str(num), "--out", str(out)]
    assert main(argv) == 0
    e = Ellipse(0.6)
    lines = ["# caustica birkhoff seed=0", "x,y,sum"]
    for j in range(num):
        p = _phase_point_ref(e, 0.62, math.pi * (j + 0.5) / num)
        lines.append(",".join(format(v, ".17g")
                              for v in (p.x, p.y, _window_ref(e, p, 1))))
    assert out.read_text() == "\n".join(lines) + "\n"
