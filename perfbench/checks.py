"""Output checks: invariants and closed forms, never bytes pinned to one
commit, so that a later correctness fix does not count as a failure.

``check(job, text)`` returns a list of problems with one artifact; an
empty list means it passed.  beta2 comes from Carlson's symmetric
integral R_F (scipy.special.elliprf), which shares no code with the
program's spline or quadrature routes.  DML hits are re-verified with
this module's own Fraction arithmetic.  The float re-simulations call
the program's bounce map, as acceptance criterion 10 does.
"""

import csv
import io
import json
import math
from fractions import Fraction

from scipy.special import elliprf

import caustica

# Certification bound on a closure defect (caustica.orbits.CERT_TOL).
CERT_TOL = 1e-6


def beta2(c, lam):
    """Betti coordinate beta2(lambda) of the table with focal parameter c:
    1/2 - I/(2 omega2) with I = 2 R_F(u, u-1, u-lam), u = 1/c^2, and
    omega2 = 2 R_F(1, 0, 1-lam) (lam < 1) or 2 R_F(lam, lam-1, 0) (lam > 1)."""
    u = 1.0 / (c * c)
    integral = 2.0 * elliprf(u, u - 1.0, u - lam)
    if lam < 1.0:
        w2 = 2.0 * elliprf(1.0, 0.0, 1.0 - lam)
    else:
        w2 = 2.0 * elliprf(lam, lam - 1.0, 0.0)
    return float(0.5 - integral / (2.0 * w2))


def elliptic_lambda(c, target):
    """lambda in (1, 1/c^2) with beta2(lambda) = target in (0, 1/2), by
    bisection (beta2 decreases from 1/2 to 0 across the range)."""
    lo, hi = 1.0, 1.0 / (c * c)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if beta2(c, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def predicted_odd(c, px, py, n):
    """Odd-n linear law c_o n, c_o = 2 - 4 beta2(M/c^2), with M the
    larger root of s^2 - (a^2+b^2+c^2) s + a^2 c^2 = 0."""
    tr = px * px + py * py + c * c
    M = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * px * px * c * c))
    return (2.0 - 4.0 * beta2(c, M / (c * c))) * n


def _csv_rows(text):
    lines = text.splitlines()
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _count_periodic(job, text):
    p = job.params
    rows = _csv_rows(text)
    n = p["nmin"]
    if len(rows) != 1 or int(rows[0]["n"]) != n:
        return [f"expected one row for n={n}"]
    count = int(rows[0]["count"])
    out = []
    if n % 2:
        pred = predicted_odd(p["c"], p["px"], p["py"], n)
        if abs(count - pred) > 4.0:
            out.append(f"odd count {count} is {count - pred:+.2f} from c_o n")
        if abs(float(rows[0]["predicted"]) - pred) > 1e-6 * n:
            out.append(f"predicted {rows[0]['predicted']} != c_o n = {pred!r}")
    return out


def _find_periodic(job, text):
    p = job.params
    e = caustica.Ellipse(p["c"])
    n = p["n"]
    out = []
    for r in json.loads(text)["results"]:
        err = caustica.closure_error(e, (p["px"], p["py"]), r["direction"], n)
        if r["period"] != n or not (r["closure_error"] < CERT_TOL and err < CERT_TOL):
            out.append(f"direction {r['direction']}: closure {err:.3g} "
                       f"(reported {r['closure_error']:.3g}), period {r['period']}")
    return out


def _orbit_points(e, start, direction, k):
    """Phase points after the first hit and k further bounces."""
    x = caustica.first_hit(e, caustica.Shot(start[0], start[1],
                                            direction[0], direction[1]))
    pts = [x]
    for _ in range(k):
        x = caustica.advance(e, x)
        pts.append(x)
    return pts


def _line_distance(x, nxt, p):
    dx, dy = nxt.x - x.x, nxt.y - x.y
    return abs(dx * (p[1] - x.y) - dy * (p[0] - x.x)) / math.hypot(dx, dy)


def _scan_boomerang(job, text):
    p = job.params
    e = caustica.Ellipse(p["c"])
    pt = (p["px"], p["py"])
    out = []
    for h in json.loads(text)["results"]:
        x, nxt = _orbit_points(e, pt, h["direction"], h["bounce"] + 1)[-2:]
        miss = _line_distance(x, nxt, pt)
        if not 1 <= h["bounce"] < p["nmax"] or miss > p["tol"]:
            out.append(f"boomerang {h['direction']} bounce {h['bounce']}: "
                       f"re-simulated miss {miss:.3g}")
    return out


def _scan_hole(job, text):
    p = job.params
    e = caustica.Ellipse(p["c"])
    p1, p2 = (p["x1"], p["y1"]), (p["x2"], p["y2"])
    out = []
    for h in json.loads(text)["results"]:
        orbit = _orbit_points(e, p1, h["direction"], p["nmax"])
        miss_p = _line_distance(orbit[h["m"]], orbit[h["m"] + 1], p2)
        hit = orbit[h["n"] - 1]
        miss_h = math.hypot(hit.x - p["hx"], hit.y - p["hy"])
        if (not 1 <= h["m"] < h["n"] <= p["nmax"]
                or miss_p > p["tol"] or miss_h > p["tol"] + 1e-12):
            out.append(f"hole {h['direction']} m={h['m']} n={h['n']}: "
                       f"re-simulated misses {miss_p:.3g}, {miss_h:.3g}")
    return out


def _rotation(job, text):
    p = job.params
    gap = abs(float(text) - beta2(p["c"], p["s"] / (p["c"] * p["c"])))
    if gap > 1.0 / p["n_iter"]:
        return [f"|rotation - beta2| = {gap:.3g} > 1/n_iter"]
    return []


def _poncelet(job, text):
    p = job.params
    e = caustica.Ellipse(p["c"])
    doc = json.loads(text)
    q = Fraction(p["rot"]).denominator
    out = []
    for r in doc["starts"]:
        x = caustica.caustic_phase_point(e, doc["s_star"], r["theta"])
        err = caustica.closure_error(e, (x.x, x.y), (x.vx, x.vy), q)
        if not (err < CERT_TOL and r["closure_error"] < CERT_TOL):
            out.append(f"start theta={r['theta']!r}: closure {err:.3g}")
    if len(doc["starts"]) != p["starts"]:
        out.append(f"{len(doc['starts'])} starts, asked for {p['starts']}")
    return out


def _birkhoff(job, text):
    """The window sum depends on x only through x^2: rows j and
    num-1-j sit at mirrored boundary points."""
    vals = [(float(r["x"]), float(r["sum"])) for r in _csv_rows(text)]
    if len(vals) != 64:
        return [f"{len(vals)} rows, expected 64"]
    out = []
    for j in range(32):
        (xa, va), (xb, vb) = vals[j], vals[-1 - j]
        if abs(xa + xb) > 1e-12 or abs(va - vb) > 1e-9 * max(1.0, abs(va)):
            out.append(f"rows {j} and {63 - j} not mirror-symmetric: {va!r}, {vb!r}")
    return out


def _moebius_fit(job, text):
    p = job.params
    e = caustica.Ellipse(p["c"])
    doc = json.loads(text)
    out = []
    if not doc["residual"] < 1e-6:
        out.append(f"Moebius residual {doc['residual']:.3g}")
    m = (p["n"] - 1) // 2
    for theta in (0.37, 1.91):  # off the sampling grid
        t = math.cos(theta) ** 2
        want = caustica.symmetric_sum(
            e, caustica.caustic_phase_point(e, p["s"], theta), m)
        got = (doc["a"] * t + doc["b"]) / (doc["coef_c"] * t + doc["d"])
        if abs(got - want) > 1e-6:
            out.append(f"fit off by {got - want:.3g} at theta={theta}")
    return out


def _connect(job, text):
    p = job.params
    e = caustica.Ellipse(p["c"])
    doc = json.loads(text)
    verts = [(b["x"], b["y"]) for b in doc["bounces"]]
    full = [(p["x1"], p["y1"])] + verts + [(p["x2"], p["y2"])]
    if len(verts) != p["n"] - 1:
        return [f"{len(verts)} bounces for {p['n']} segments"]
    worst = max(caustica.reflection_residual(e, full[j], full[j + 1], full[j + 2])
                for j in range(len(verts)))
    sv = caustica.segment_caustics(e, full)
    mean = sum(sv) / len(sv)
    var = sum((v - mean) ** 2 for v in sv) / len(sv)
    out = []
    if not worst < 1e-8:
        out.append(f"reflection residual {worst:.3g}")
    if not var < 1e-8:
        out.append(f"caustic variance {var:.3g}")
    return out


def fraction_matrix(matrix):
    return [[Fraction(x) for x in r] for r in matrix]


def adjugate(m):
    """Adjugate of a 3x3 matrix: the inverse up to the factor det."""
    return [[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
             - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
             for j in range(3)] for i in range(3)]


def _power_apply(matrix, P, k):
    """beta^k P up to scale, beta^-1 acting through the adjugate."""
    m = fraction_matrix(matrix)
    if k < 0:
        m = adjugate(m)
    v = [Fraction(x) for x in P]
    for _ in range(abs(k)):
        v = [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]
    return v


def dml_hit_ok(matrix, lines, hit):
    """P on L1, beta^m P on L2 and beta^n P on L3, exactly."""
    for L, k in zip(lines, (0, hit["m"], hit["n"])):
        Q = _power_apply(matrix, hit["P"], k)
        if sum(Fraction(a) * b for a, b in zip(L, Q)) != 0:
            return False
    return any(hit["P"])


def _dml_search(job, text):
    p = job.params
    hits = json.loads(text)["hits"]
    N = p["range"]
    out = [f"hit (m={h['m']}, n={h['n']}, P={h['P']}) fails exact re-check"
           for h in hits
           if max(abs(h["m"]), abs(h["n"])) > N
           or not dml_hit_ok(p["matrix"], p["lines"], h)]
    pairs = {(h["m"], h["n"]): h["P"] for h in hits}
    if p["label"] == "criterion9-exponential":
        missing = {(3, 1), (6, 2), (11, 3), (20, 4)} - set(pairs)
        if missing:
            out.append(f"family members {sorted(missing)} missing")
    if p["label"] == "criterion9-antidiagonal":
        for m in range(-N, N + 1):
            want = [2 ** abs(m), 2 ** abs(m), 4 ** abs(m) + 1]
            if pairs.get((m, -m)) != want:
                out.append(f"antidiagonal ({m}, {-m}): {pairs.get((m, -m))} != {want}")
    return out


_CHECKS = {
    "count-periodic": _count_periodic,
    "find-periodic": _find_periodic,
    "scan-boomerang": _scan_boomerang,
    "scan-hole": _scan_hole,
    "rotation": _rotation,
    "poncelet": _poncelet,
    "birkhoff": _birkhoff,
    "moebius-fit": _moebius_fit,
    "connect": _connect,
    "dml-search": _dml_search,
}


def check(job, text):
    """Problems with one job's artifact; a malformed artifact is one."""
    try:
        return _CHECKS[job.kind](job, text)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed artifact: {type(exc).__name__}: {exc}"]
