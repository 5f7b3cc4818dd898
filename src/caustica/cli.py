"""Command-line front end: reproducible CSV, JSON and SVG experiments.

Each subcommand wraps one library capability and writes a single
artifact.  Output is deterministic: the same configuration and seed
produce byte-identical files and numeric CSV columns carry 17
significant digits.  --threads (or the CAUSTICA_THREADS environment
variable) is validated and accepted, and changes no byte: every scan runs
in input order on one thread.  A JSON config file (--config) can
supply any flag, with explicit flags taking precedence.  Precondition
violations exit with status 2 and a machine-readable JSON object on
standard error.
"""

import argparse
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction

from .birkhoff import birkhoff_sum, moebius_fit, symmetric_sum
from .conics import (Ellipse, Shot, caustic_of_line, caustic_phase_point,
                     classify_caustic, inward, simulate, slope_of)
from .dml import (ExponentialFamily, FiniteSet, LineFamily, ProjectiveLine,
                  ProjectiveMap, classify, family_detect, triple_orbit_search)
from .orbits import (ConvergenceError, angle_pair_scan, boomerang_scan,
                     closure_error, connecting_trajectory, count_periodic,
                     find_periodic_directions, hole_scan,
                     parallelogram_angle_pairs, predicted_count,
                     reflection_residual, segment_caustics)
from .periods import betti_billiard, lambda_for_beta2


def _fmt(v):
    """17 significant digits, the round-trip precision of a double."""
    return format(float(v), ".17g")


def _emit(args, text):
    out = _opt(args, "out")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _opt(args, key, default=None, required=False):
    """Flag value with config-file fallback: CLI > config > default."""
    val = getattr(args, key, None)
    if val is None:
        cfg = getattr(args, "config_data", {})
        val = cfg.get(key.replace("_", "-"), cfg.get(key))
    if val is None:
        if required:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        val = default
    return val


def _check_threads(args):
    """Validate --threads (or CAUSTICA_THREADS), kept for compatibility.

    The scans are Python code that holds the interpreter lock, so they
    run on one thread: on 2 cores, --threads 2 made count-periodic,
    betti-scan and birkhoff 4-14% slower than --threads 1.
    """
    val = _opt(args, "threads")
    if val is None:
        val = os.environ.get("CAUSTICA_THREADS", "1")
    if int(val) < 1:
        raise ValueError("--threads must be >= 1")


def _csv(args, command, seed, header, rows):
    lines = [f"# caustica {command} seed={seed}", header]
    lines.extend(rows)
    _emit(args, "\n".join(lines) + "\n")


def _json_out(args, command, seed, payload):
    doc = {"command": command, "seed": seed}
    doc.update(payload)
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _seed(args):
    return int(_opt(args, "seed", 0))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args):
    e = Ellipse(_opt(args, "c", required=True))
    x = _opt(args, "x", required=True)
    y = _opt(args, "y", required=True)
    bounces = int(_opt(args, "bounces", 100))
    vx = _opt(args, "vx")
    vy = _opt(args, "vy")
    if vx is None or vy is None:
        slope = float(_opt(args, "slope", required=True))
        vx, vy = inward(e, (x, y), slope)
    traj = simulate(e, Shot(x, y, vx, vy), bounces)
    rows = []
    for i, pt in enumerate(traj.points, start=1):
        seg = caustic_of_line(e, (pt.x, pt.y), slope_of(pt.vx, pt.vy))
        rows.append(",".join([str(i), _fmt(pt.x), _fmt(pt.y),
                              _fmt(pt.vx), _fmt(pt.vy), _fmt(seg.s)]))
    _csv(args, "simulate", _seed(args), "step,x,y,vx,vy,s", rows)
    return 0


def _cmd_betti_scan(args):
    e = Ellipse(_opt(args, "c", required=True))
    lmin = _opt(args, "lmin", required=True)
    lmax = _opt(args, "lmax", required=True)
    num = int(_opt(args, "num", 101))
    if num < 2:
        raise ValueError("--num must be >= 2")
    lams = [lmin + (lmax - lmin) * j / (num - 1) for j in range(num)]
    _check_threads(args)
    coords = [betti_billiard(e, lam) for lam in lams]
    rows = [",".join([_fmt(lam), _fmt(bc.beta1), _fmt(bc.beta2)])
            for lam, bc in zip(lams, coords)]
    _csv(args, "betti-scan", _seed(args), "lambda,beta1,beta2", rows)
    return 0


def _cmd_count_periodic(args):
    e = Ellipse(_opt(args, "c", required=True))
    p = (_opt(args, "px", required=True), _opt(args, "py", required=True))
    nmin = int(_opt(args, "nmin", 2))
    nmax = int(_opt(args, "nmax", required=True))

    def row(n):
        count = count_periodic(e, p, n).total
        pred = predicted_count(e, p, n)
        return ",".join([str(n), "odd" if n % 2 else "even",
                         str(count), _fmt(pred)])

    _check_threads(args)
    rows = [row(n) for n in range(nmin, nmax + 1)]
    _csv(args, "count-periodic", _seed(args), "n,parity,count,predicted", rows)
    return 0


def _caustic_json(param):
    return {"s": param.s, "kind": param.kind.value}


def _cmd_find_periodic(args):
    e = Ellipse(_opt(args, "c", required=True))
    p = (_opt(args, "px", required=True), _opt(args, "py", required=True))
    n = int(_opt(args, "n", required=True))
    dirs = find_periodic_directions(e, p, n)
    recs = [{"direction": list(d.direction), "period": d.period,
             "caustic": _caustic_json(d.caustic),
             "closure_error": d.closure_error} for d in dirs]
    _json_out(args, "find-periodic", _seed(args),
              {"c": e.c, "point": list(p), "n": n, "results": recs})
    return 0


def _cmd_connect(args):
    e = Ellipse(_opt(args, "c", required=True))
    p1 = (_opt(args, "x1", required=True), _opt(args, "y1", required=True))
    p2 = (_opt(args, "x2", required=True), _opt(args, "y2", required=True))
    n = int(_opt(args, "n", required=True))
    seed = _seed(args)
    traj = connecting_trajectory(e, p1, p2, n, seed=seed)
    verts = [(pt.x, pt.y) for pt in traj.points]
    full = [p1] + verts + [p2]
    residuals = [reflection_residual(e, full[j], full[j + 1], full[j + 2])
                 for j in range(len(verts))]
    _json_out(args, "connect", seed, {
        "c": e.c, "p1": list(p1), "p2": list(p2), "segments": n,
        "bounces": [{"x": pt.x, "y": pt.y, "vx": pt.vx, "vy": pt.vy}
                    for pt in traj.points],
        "reflection_residuals": residuals,
        "segment_caustics": segment_caustics(e, full),
        "caustic": _caustic_json(traj.caustic),
    })
    return 0


def _cmd_poncelet(args):
    e = Ellipse(_opt(args, "c", required=True))
    rot = Fraction(str(_opt(args, "rot", required=True)))
    starts = int(_opt(args, "starts", 20))
    seed = _seed(args)
    lam = lambda_for_beta2(e, float(rot))
    s = e.c2 * lam
    param = classify_caustic(e, s)
    rng = random.Random(seed)
    recs = []
    for _ in range(starts):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x = caustic_phase_point(e, param, theta)
        err = closure_error(e, (x.x, x.y), (x.vx, x.vy), rot.denominator)
        recs.append({"theta": theta, "closure_error": err})
    _json_out(args, "poncelet", seed, {
        "c": e.c, "rotation": str(rot), "lambda_star": lam, "s_star": s,
        "starts": recs,
        "max_closure_error": max(r["closure_error"] for r in recs),
    })
    return 0


def _cmd_birkhoff(args):
    e = Ellipse(_opt(args, "c", required=True))
    s = _opt(args, "s", required=True)
    num = int(_opt(args, "num", 64))
    bounces = _opt(args, "bounces")
    window = _opt(args, "window")
    if (bounces is None) == (window is None):
        raise ValueError("give exactly one of --bounces (plain sum) or "
                         "--window (symmetric sum half-width)")
    param = classify_caustic(e, s)
    thetas = [math.pi * (j + 0.5) / num for j in range(num)]

    def row(theta):
        x = caustic_phase_point(e, param, theta)
        if bounces is not None:
            val = birkhoff_sum(e, x, int(bounces))
        else:
            val = symmetric_sum(e, x, int(window))
        return ",".join([_fmt(x.x), _fmt(x.y), _fmt(val)])

    _check_threads(args)
    rows = [row(theta) for theta in thetas]
    _csv(args, "birkhoff", _seed(args), "x,y,sum", rows)
    return 0


def _cmd_moebius_fit(args):
    e = Ellipse(_opt(args, "c", required=True))
    s = _opt(args, "s", required=True)
    n = int(_opt(args, "n", required=True))
    samples = int(_opt(args, "samples", 20))
    fit = moebius_fit(e, s, n, samples=samples)
    _json_out(args, "moebius-fit", _seed(args), {
        "c": e.c, "s": s, "n": n, "samples": samples,
        "a": fit.a, "b": fit.b, "coef_c": fit.c, "d": fit.d,
        "det": fit.det, "residual": fit.residual,
    })
    return 0


def _cmd_scan_boomerang(args):
    e = Ellipse(_opt(args, "c", required=True))
    p = (_opt(args, "px", required=True), _opt(args, "py", required=True))
    nmax = int(_opt(args, "nmax", required=True))
    tol = _opt(args, "tol", 1e-9)
    grid = int(_opt(args, "grid", 4096))
    hits = boomerang_scan(e, p, nmax, tol, grid)
    recs = [{"direction": list(h.direction), "bounce": h.bounce,
             "kind": h.kind, "miss": h.miss} for h in hits]
    _json_out(args, "scan-boomerang", _seed(args),
              {"c": e.c, "point": list(p), "nmax": nmax, "tol": tol,
               "grid": grid, "results": recs})
    return 0


def _cmd_scan_hole(args):
    e = Ellipse(_opt(args, "c", required=True))
    p1 = (_opt(args, "x1", required=True), _opt(args, "y1", required=True))
    p2 = (_opt(args, "x2", required=True), _opt(args, "y2", required=True))
    h = (_opt(args, "hx", required=True), _opt(args, "hy", required=True))
    nmax = int(_opt(args, "nmax", required=True))
    tol = _opt(args, "tol", 1e-6)
    grid = int(_opt(args, "grid", 4096))
    hits = hole_scan(e, p1, p2, h, nmax, tol, grid)
    recs = [{"direction": list(t.direction), "m": t.m, "n": t.n,
             "miss_p": t.miss_p, "miss_h": t.miss_h} for t in hits]
    _json_out(args, "scan-hole", _seed(args),
              {"c": e.c, "p1": list(p1), "p2": list(p2), "hole": list(h),
               "nmax": nmax, "tol": tol, "grid": grid, "results": recs})
    return 0


def _cmd_scan_angle_pair(args):
    e = Ellipse(_opt(args, "c", required=True))
    p = (_opt(args, "px", required=True), _opt(args, "py", required=True))
    alpha = _opt(args, "alpha", required=True)
    nmax = int(_opt(args, "nmax", required=True))
    tol = _opt(args, "tol", 1e-6)
    # Accepted and recorded for compatibility; the pair search is exact.
    grid = int(_opt(args, "grid", 4096))
    pairs = angle_pair_scan(e, p, alpha, nmax, tol)
    recs = [{"dir1": list(t.dir1), "dir2": list(t.dir2),
             "period1": t.period1, "period2": t.period2} for t in pairs]
    _json_out(args, "scan-angle-pair", _seed(args),
              {"c": e.c, "point": list(p), "alpha": alpha, "nmax": nmax,
               "tol": tol, "grid": grid, "results": recs})
    return 0


def _cmd_lattice_pairs(args):
    tau = complex(_opt(args, "tau_re", required=True),
                  _opt(args, "tau_im", required=True))
    alpha = _opt(args, "alpha", required=True)
    hmax = int(_opt(args, "hmax", 3))
    pairs, cm = parallelogram_angle_pairs(tau, alpha, hmax)
    recs = [{"lambda": list(lc), "delta": list(dc)} for lc, dc in pairs]
    _json_out(args, "lattice-pairs", _seed(args),
              {"tau": [tau.real, tau.imag], "alpha": alpha, "hmax": hmax,
               "cm": bool(cm), "pairs": recs})
    return 0


def _load_dml_input(args):
    path = _opt(args, "input", required=True)
    with open(path) as fh:
        obj = json.load(fh)
    beta = ProjectiveMap(obj["matrix"])
    lines = [ProjectiveLine(row) for row in obj.get("lines", [])]
    N = int(obj.get("range", 0))
    return beta, lines, N


def _class_json(gc):
    return {"kind": gc.kind.value, "witness": gc.witness}


def _family_json(rep):
    pat = rep.pattern
    if isinstance(pat, ExponentialFamily):
        return {"kind": "ExponentialFamily", "A": str(pat.A),
                "lambda": str(pat.lam), "B": str(pat.B), "C": str(pat.C),
                "support": len(rep.hits)}
    if isinstance(pat, LineFamily):
        return {"kind": "LineFamily", "g": pat.g, "h": pat.h, "c": pat.c,
                "equation": f"{pat.g}*m + {pat.h}*n + {pat.c} = 0",
                "support": len(rep.hits)}
    if isinstance(pat, FiniteSet):
        return {"kind": "FiniteSet", "size": pat.size}
    return {"kind": "Undetermined"}


def _cmd_dml_classify(args):
    beta, _, _ = _load_dml_input(args)
    _json_out(args, "dml classify", _seed(args),
              {"classification": _class_json(classify(beta))})
    return 0


def _cmd_dml_search(args):
    beta, lines, N = _load_dml_input(args)
    if len(lines) != 3:
        raise ValueError("dml search needs exactly three lines")
    if N < 1:
        raise ValueError("dml search needs a positive range")
    hits = triple_orbit_search(beta, lines[0], lines[1], lines[2], N)
    rep = family_detect(hits, beta, lines)
    _json_out(args, "dml search", _seed(args), {
        "range": N,
        "classification": _class_json(classify(beta)),
        "hits": [{"m": h.m, "n": h.n, "P": list(h.P)} for h in hits],
        "family": _family_json(rep),
    })
    return 0


def _svg_fmt(v):
    return format(v, ".6f")


def _cmd_render(args):
    e = Ellipse(_opt(args, "c", required=True))
    x = _opt(args, "x", required=True)
    y = _opt(args, "y", required=True)
    slope = float(_opt(args, "slope", required=True))
    bounces = int(_opt(args, "bounces", 20))
    vx, vy = inward(e, (x, y), slope)
    traj = simulate(e, Shot(x, y, vx, vy), bounces)
    b = math.sqrt(e.b2)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-1.15 -1.15 2.3 2.3" width="600" height="600">',
        f'<!-- caustica render seed={_seed(args)} -->',
        '<g transform="scale(1,-1)" fill="none">',
        f'<ellipse cx="0" cy="0" rx="1" ry="{_svg_fmt(b)}" '
        'stroke="black" stroke-width="0.008"/>',
    ]
    parts.extend(_svg_caustic(e, traj.caustic))
    pts = [(x, y)] + [(pt.x, pt.y) for pt in traj.points]
    coords = " ".join(f"{_svg_fmt(px)},{_svg_fmt(py)}" for px, py in pts)
    parts.append(f'<polyline points="{coords}" stroke="crimson" '
                 'stroke-width="0.005"/>')
    parts.append("</g>")
    parts.append("</svg>")
    _emit(args, "\n".join(parts) + "\n")
    return 0


def _svg_caustic(e, param):
    style = 'stroke="steelblue" stroke-width="0.006" stroke-dasharray="0.03,0.02"'
    if param.kind.value == "elliptic":
        rx = math.sqrt(param.s)
        ry = math.sqrt(param.s - e.c2)
        return [f'<ellipse cx="0" cy="0" rx="{_svg_fmt(rx)}" '
                f'ry="{_svg_fmt(ry)}" {style}/>']
    if param.kind.value == "hyperbolic":
        ax = math.sqrt(param.s)
        ay = math.sqrt(e.c2 - param.s)
        umax = math.acosh(1.15 / ax) if ax < 1.15 else 0.0
        umax = min(umax, math.asinh(1.15 / ay))
        out = []
        for sign in (1.0, -1.0):
            pts = []
            for j in range(101):
                u = -umax + 2.0 * umax * j / 100
                pts.append((sign * ax * math.cosh(u), ay * math.sinh(u)))
            coords = " ".join(f"{_svg_fmt(px)},{_svg_fmt(py)}"
                              for px, py in pts)
            out.append(f'<polyline points="{coords}" {style}/>')
        return out
    if param.kind.value == "focal":
        return [f'<circle cx="{_svg_fmt(sgn * e.c)}" cy="0" r="0.015" '
                'fill="steelblue"/>' for sgn in (1.0, -1.0)]
    return []


# ---------------------------------------------------------------------------
# parser


def _add_common(sp):
    sp.add_argument("--config", default=None,
                    help="JSON file whose keys mirror the flags")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for any randomized stage, recorded in output")
    sp.add_argument("--threads", type=int, default=None,
                    help="accepted for compatibility; scans run on one "
                         "thread (CAUSTICA_THREADS fallback)")


def _float(sp, *names, **kw):
    for name in names:
        sp.add_argument(name, type=float, default=None, **kw)


@functools.cache
def build_parser():
    """The caustica argument parser, built once per process: it holds no
    append actions or mutable defaults, so parses do not share state."""
    ap = argparse.ArgumentParser(
        prog="caustica",
        description="Elliptical billiards, caustics and exact orbit search")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="bounce a shot, CSV trajectory")
    _float(sp, "--c", "--x", "--y", "--slope", "--vx", "--vy")
    sp.add_argument("--bounces", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("betti-scan", help="Betti coordinates over lambda")
    _float(sp, "--c", "--lmin", "--lmax")
    sp.add_argument("--num", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_betti_scan)

    sp = sub.add_parser("count-periodic",
                        help="periodic-direction counts per period")
    _float(sp, "--c", "--px", "--py")
    sp.add_argument("--nmin", type=int, default=None)
    sp.add_argument("--nmax", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_count_periodic)

    sp = sub.add_parser("find-periodic",
                        help="certified periodic directions for one period")
    _float(sp, "--c", "--px", "--py")
    sp.add_argument("--n", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_find_periodic)

    sp = sub.add_parser("connect",
                        help="billiard path between two interior points")
    _float(sp, "--c", "--x1", "--y1", "--x2", "--y2")
    sp.add_argument("--n", type=int, default=None, help="segment count")
    _add_common(sp)
    sp.set_defaults(func=_cmd_connect)

    sp = sub.add_parser("poncelet",
                        help="closure test on a rational-rotation caustic")
    _float(sp, "--c")
    sp.add_argument("--rot", default=None, help="rotation number p/q")
    sp.add_argument("--starts", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_poncelet)

    sp = sub.add_parser("birkhoff", help="cosine sums along a caustic")
    _float(sp, "--c", "--s")
    sp.add_argument("--bounces", type=int, default=None)
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--num", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_birkhoff)

    sp = sub.add_parser("moebius-fit",
                        help="Moebius model of the symmetric sum")
    _float(sp, "--c", "--s")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_moebius_fit)

    sp = sub.add_parser("scan-boomerang",
                        help="shots returning through their start")
    _float(sp, "--c", "--px", "--py", "--tol")
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--grid", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_scan_boomerang)

    sp = sub.add_parser("scan-hole",
                        help="trajectories through a point that reach a hole")
    _float(sp, "--c", "--x1", "--y1", "--x2", "--y2", "--hx", "--hy", "--tol")
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--grid", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_scan_hole)

    sp = sub.add_parser("scan-angle-pair",
                        help="periodic direction pairs at a fixed angle")
    _float(sp, "--c", "--px", "--py", "--alpha", "--tol")
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--grid", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_scan_angle_pair)

    sp = sub.add_parser("lattice-pairs",
                        help="lattice vector pairs at a fixed angle ratio")
    _float(sp, "--tau-re", "--tau-im", "--alpha")
    sp.add_argument("--hmax", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_lattice_pairs)

    dml = sub.add_parser("dml", help="exact projective orbit tools")
    dsub = dml.add_subparsers(dest="dml_command", required=True)
    sp = dsub.add_parser("classify", help="closure group of a matrix")
    sp.add_argument("--input", default=None, help="JSON with matrix")
    _add_common(sp)
    sp.set_defaults(func=_cmd_dml_classify)
    sp = dsub.add_parser("search", help="orbits meeting three lines")
    sp.add_argument("--input", default=None,
                    help="JSON with matrix, lines, range")
    _add_common(sp)
    sp.set_defaults(func=_cmd_dml_search)

    sp = sub.add_parser("render", help="SVG of table, caustic and trajectory")
    _float(sp, "--c", "--x", "--y", "--slope")
    sp.add_argument("--bounces", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_render)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    args.config_data = {}
    try:
        cfg_path = getattr(args, "config", None)
        if cfg_path:
            with open(cfg_path) as fh:
                args.config_data = json.load(fh)
        return args.func(args)
    except (ValueError, TypeError, ConvergenceError, OSError, KeyError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
