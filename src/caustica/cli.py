"""Command-line front end: reproducible CSV, JSON and SVG experiments.

Each subcommand wraps one library capability and writes a single
artifact.  It imports what it calls inside its function, so importing
this module loads no library module and a run loads only the modules
its subcommand needs.  Output is deterministic: the same configuration
and seed produce byte-identical files and numeric CSV columns carry 17
significant digits.  _COMMANDS declares each subcommand once: its
words, handler, help line and flags, each flag with its type and its
default, _REQUIRED for a flag that main demands; build_parser builds
the argparse parser from it, and a run builds the parser of its own
subcommand only.  An artifact names its subcommand by those words.  A JSON config file (--config) can supply
any flag: main parses each entry as the flag it names, so a config
value gets the flag's type, and explicit flags take precedence.
--threads is validated (>= 1) and changes no byte: every scan runs in
input order on one thread, because the work holds the interpreter lock
(on 2 cores, two threads were 4-14% slower than one).  Precondition
violations exit with status 2 and a machine-readable JSON object on
standard error.
"""

import argparse
import functools
import json
import math
import os
import random
import stat
import sys


def _fmt(v):
    """17 significant digits, the round-trip precision of a double."""
    return format(float(v), ".17g")


def _emit(args, text):
    """Write the finished artifact to standard output or to --out.

    An existing --out file is written over in place and then cut to the
    new length, not truncated when it is opened: ext4 (auto_da_alloc)
    starts writeback on closing a file that was truncated to 0 bytes,
    which made a rewrite several times slower than writing in place.
    The text is complete before the file is opened, so a refused run
    leaves an existing file as it was.  The bytes, the mode of a new
    file (0o666 less the umask) and the following of symlinks and hard
    links are as with open(out, "w"); a device or FIFO (/dev/stdout,
    /dev/null) is never cut.  Nothing is fsynced: the CLI makes no
    durability promise.
    """
    if args.out is None:
        sys.stdout.write(text)
        return
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _csv(args, header, rows):
    lines = [f"# caustica {' '.join(args.words)} seed={args.seed}", header]
    lines.extend(rows)
    _emit(args, "\n".join(lines) + "\n")


def _refuse(exc):
    """Report a refused run on standard error; its exit status, 2."""
    payload = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(payload) + "\n")
    return 2


def _json_out(args, payload):
    doc = {"command": " ".join(args.words), "seed": args.seed}
    doc.update(payload)
    # Strict JSON: a non-finite value refuses the run (exit status 2).
    _emit(args, json.dumps(doc, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args):
    from .conics import Ellipse, Shot, caustic_of_line, inward, simulate, slope_of

    e = Ellipse(args.c)
    x, y, vx, vy = args.x, args.y, args.vx, args.vy
    if vx is None or vy is None:
        if args.slope is None:
            raise ValueError("missing required option --slope")
        vx, vy = inward(e, (x, y), args.slope)
    traj = simulate(e, Shot(x, y, vx, vy), args.bounces)
    rows = []
    for i, pt in enumerate(traj.points, start=1):
        seg = caustic_of_line(e, pt.p, slope_of(*pt.v))
        rows.append(",".join([str(i), *map(_fmt, pt), _fmt(seg.s)]))
    _csv(args, "step,x,y,vx,vy,s", rows)
    return 0


def _cmd_betti_scan(args):
    from .conics import Ellipse
    from .periods import betti_scan

    e = Ellipse(args.c)
    lmin, lmax, num = args.lmin, args.lmax, args.num
    if num < 2:
        raise ValueError("--num must be >= 2")
    lams = [lmin + (lmax - lmin) * j / (num - 1) for j in range(num)]
    coords = betti_scan(e, lams)
    rows = [",".join([_fmt(lam), _fmt(bc.beta1), _fmt(bc.beta2)])
            for lam, bc in zip(lams, coords)]
    _csv(args, "lambda,beta1,beta2", rows)
    return 0


def _cmd_count_periodic(args):
    from .conics import Ellipse
    from .orbits import count_periodic_range, predicted_count

    e = Ellipse(args.c)
    p = (args.px, args.py)

    ns = range(args.nmin, args.nmax + 1)
    rows = [",".join([str(n), "odd" if n % 2 else "even", str(bd.total),
                      _fmt(predicted_count(e, p, n))])
            for n, bd in zip(ns, count_periodic_range(e, p, ns))]
    _csv(args, "n,parity,count,predicted", rows)
    return 0


def _caustic_json(param):
    return {"s": param.s, "kind": param.kind.value}


def _cmd_find_periodic(args):
    from .conics import Ellipse
    from .orbits import find_periodic_directions

    e = Ellipse(args.c)
    p = (args.px, args.py)
    dirs = find_periodic_directions(e, p, args.n)
    recs = [{**d._asdict(), "caustic": _caustic_json(d.caustic)} for d in dirs]
    _json_out(args, {"c": e.c, "point": list(p), "n": args.n,
                     "results": recs})
    return 0


def _cmd_connect(args):
    from .conics import Ellipse
    from .orbits import (ConvergenceError, connecting_trajectory,
                         reflection_residual, segment_caustics)

    e = Ellipse(args.c)
    p1 = (args.x1, args.y1)
    p2 = (args.x2, args.y2)
    n = args.n
    try:
        traj = connecting_trajectory(e, p1, p2, n)
    except ConvergenceError as exc:
        return _refuse(exc)
    verts = [(pt.x, pt.y) for pt in traj.points]
    full = [p1] + verts + [p2]
    residuals = [reflection_residual(e, full[j], full[j + 1], full[j + 2])
                 for j in range(len(verts))]
    _json_out(args, {
        "c": e.c, "p1": list(p1), "p2": list(p2), "segments": n,
        "bounces": [pt._asdict() for pt in traj.points],
        "reflection_residuals": residuals,
        "segment_caustics": segment_caustics(e, full),
        "caustic": _caustic_json(traj.caustic),
    })
    return 0


def _cmd_poncelet(args):
    from fractions import Fraction

    from .conics import Ellipse, caustic_phase_points
    from .orbits import closure_error
    from .periods import lambda_for_beta2

    e = Ellipse(args.c)
    if args.starts < 1:
        raise ValueError("--starts must be >= 1")
    try:
        rot = Fraction(args.rot)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {args.rot!r}") from None
    lam = lambda_for_beta2(e, float(rot))
    s = e.c2 * lam
    rng = random.Random(args.seed)
    thetas = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(args.starts)]
    rows = zip(*(a.tolist() for a in caustic_phase_points(e, s, thetas)))
    recs = [{"theta": theta, "closure_error": closure_error(
                e, (x, y), (vx, vy), rot.denominator)}
            for theta, (x, y, vx, vy) in zip(thetas, rows)]
    _json_out(args, {
        "c": e.c, "rotation": str(rot), "lambda_star": lam, "s_star": s,
        "starts": recs,
        "max_closure_error": max(r["closure_error"] for r in recs),
    })
    return 0


def _cmd_birkhoff(args):
    from .birkhoff import birkhoff_sums, window_sums
    from .conics import Ellipse

    e = Ellipse(args.c)
    bounces, window, num = args.bounces, args.window, args.num
    if (bounces is None) == (window is None):
        raise ValueError("give exactly one of --bounces (plain sum) or "
                         "--window (symmetric sum half-width)")
    if num < 1:
        raise ValueError("--num must be >= 1")
    thetas = [math.pi * (j + 0.5) / num for j in range(num)]
    if bounces is not None:
        sums = birkhoff_sums(e, args.s, thetas, bounces)
    else:
        sums = window_sums(e, args.s, thetas, window)
    rows = [",".join([_fmt(x), _fmt(y), _fmt(val)])
            for (x, y), val in zip(map(e.boundary_point, thetas), sums)]
    _csv(args, "x,y,sum", rows)
    return 0


def _cmd_moebius_fit(args):
    from .birkhoff import moebius_fit
    from .conics import Ellipse

    e = Ellipse(args.c)
    fit = moebius_fit(e, args.s, args.n, samples=args.samples)
    _json_out(args, {
        "c": e.c, "s": args.s, "n": args.n, "samples": args.samples,
        "a": fit.a, "b": fit.b, "coef_c": fit.c, "d": fit.d,
        "det": fit.det, "residual": fit.residual,
    })
    return 0


def _cmd_scan_boomerang(args):
    from .conics import Ellipse
    from .orbits import DEFAULT_GRID, boomerang_scan

    e = Ellipse(args.c)
    p = (args.px, args.py)
    grid = DEFAULT_GRID if args.grid is None else args.grid
    hits = boomerang_scan(e, p, args.nmax, args.tol, grid)
    _json_out(args, {"c": e.c, "point": list(p), "nmax": args.nmax,
                     "tol": args.tol, "grid": grid,
                     "results": [h._asdict() for h in hits]})
    return 0


def _cmd_scan_hole(args):
    from .conics import Ellipse
    from .orbits import DEFAULT_GRID, hole_scan

    e = Ellipse(args.c)
    p1 = (args.x1, args.y1)
    p2 = (args.x2, args.y2)
    h = (args.hx, args.hy)
    grid = DEFAULT_GRID if args.grid is None else args.grid
    hits = hole_scan(e, p1, p2, h, args.nmax, args.tol, grid)
    _json_out(args, {"c": e.c, "p1": list(p1), "p2": list(p2),
                     "hole": list(h), "nmax": args.nmax, "tol": args.tol,
                     "grid": grid, "results": [t._asdict() for t in hits]})
    return 0


def _cmd_scan_angle_pair(args):
    from .conics import Ellipse
    from .orbits import angle_pair_scan

    e = Ellipse(args.c)
    p = (args.px, args.py)
    pairs = angle_pair_scan(e, p, args.alpha, args.nmax, args.tol)
    _json_out(args, {"c": e.c, "point": list(p), "alpha": args.alpha,
                     "nmax": args.nmax, "tol": args.tol,
                     "results": [t._asdict() for t in pairs]})
    return 0


def _cmd_lattice_pairs(args):
    from .orbits import parallelogram_angle_pairs

    tau = complex(args.tau_re, args.tau_im)
    pairs, cm = parallelogram_angle_pairs(tau, args.alpha, args.hmax)
    recs = [{"lambda": list(lc), "delta": list(dc)} for lc, dc in pairs]
    _json_out(args, {"tau": [tau.real, tau.imag], "alpha": args.alpha,
                     "hmax": args.hmax, "cm": bool(cm), "pairs": recs})
    return 0


def _load_dml_input(args):
    from .dml import ProjectiveLine, ProjectiveMap, _frac

    with open(args.input) as fh:
        obj = json.load(fh)
    beta = ProjectiveMap(obj["matrix"])
    lines = [ProjectiveLine(row) for row in obj.get("lines", [])]
    N = _frac(obj.get("range", 0))
    if N.denominator != 1:
        raise ValueError(f"range must be an integer, not {N}")
    return beta, lines, int(N)


def _class_json(gc):
    return {"kind": gc.kind.value, "witness": gc.witness}


def _family_json(rep):
    from .dml import ExponentialFamily, LineFamily

    pat = rep.pattern
    if isinstance(pat, ExponentialFamily):
        return {"kind": "ExponentialFamily", "A": str(pat.A),
                "lambda": str(pat.lam), "B": str(pat.B), "C": str(pat.C),
                "support": len(rep.hits)}
    if isinstance(pat, LineFamily):
        return {"kind": "LineFamily", "g": pat.g, "h": pat.h, "c": pat.c,
                "equation": f"{pat.g}*m + {pat.h}*n + {pat.c} = 0",
                "support": len(rep.hits)}
    return {"kind": "FiniteSet", "size": pat.size}


def _cmd_dml_classify(args):
    from .dml import classify

    beta, _, _ = _load_dml_input(args)
    _json_out(args, {"classification": _class_json(classify(beta))})
    return 0


def _cmd_dml_search(args):
    from .dml import classify, family_detect, triple_orbit_search

    beta, lines, N = _load_dml_input(args)
    if len(lines) != 3:
        raise ValueError("dml search needs exactly three lines")
    if N < 1:
        raise ValueError("dml search needs a positive range")
    hits = triple_orbit_search(beta, lines[0], lines[1], lines[2], N)
    rep = family_detect(hits, beta)
    _json_out(args, {
        "range": N,
        "classification": _class_json(classify(beta)),
        "hits": [h._asdict() for h in hits],
        "family": _family_json(rep),
    })
    return 0


def _svg_fmt(v):
    return format(v, ".6f")


def _cmd_render(args):
    from .conics import Ellipse, Shot, inward, simulate

    e = Ellipse(args.c)
    x, y = args.x, args.y
    vx, vy = inward(e, (x, y), args.slope)
    traj = simulate(e, Shot(x, y, vx, vy), args.bounces)
    b = math.sqrt(e.b2)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-1.15 -1.15 2.3 2.3" width="600" height="600">',
        f'<!-- caustica {" ".join(args.words)} seed={args.seed} -->',
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


# The default of a flag that main demands, from the command line or the
# config file.
_REQUIRED = object()

# The flags of every subcommand.
_COMMON = (
    ("config", str, None, "JSON file whose keys mirror the flags"),
    ("out", str, None, "output path (default stdout)"),
    ("seed", int, 0, "seed for any randomized stage, recorded in output"),
    ("threads", int, 1, "accepted for compatibility; scans run on one thread"),
)

# Each subcommand once: its words, handler, help line and flags in
# --help order, each (name, type, default) or (name, type, default,
# help).  An entry without a handler is a group of subcommands.
_COMMANDS = (
    (("simulate",), _cmd_simulate, "bounce a shot, CSV trajectory",
     (("c", float, _REQUIRED), ("x", float, _REQUIRED), ("y", float, _REQUIRED),
      ("slope", float, None), ("vx", float, None), ("vy", float, None),
      ("bounces", int, 100))),
    (("betti-scan",), _cmd_betti_scan, "Betti coordinates over lambda",
     (("c", float, _REQUIRED), ("lmin", float, _REQUIRED),
      ("lmax", float, _REQUIRED), ("num", int, 101))),
    (("count-periodic",), _cmd_count_periodic,
     "periodic-direction counts per period",
     (("c", float, _REQUIRED), ("px", float, _REQUIRED),
      ("py", float, _REQUIRED), ("nmin", int, 2), ("nmax", int, _REQUIRED))),
    (("find-periodic",), _cmd_find_periodic,
     "certified periodic directions for one period",
     (("c", float, _REQUIRED), ("px", float, _REQUIRED),
      ("py", float, _REQUIRED), ("n", int, _REQUIRED))),
    (("connect",), _cmd_connect, "billiard path between two interior points",
     (("c", float, _REQUIRED), ("x1", float, _REQUIRED),
      ("y1", float, _REQUIRED), ("x2", float, _REQUIRED),
      ("y2", float, _REQUIRED), ("n", int, _REQUIRED, "segment count"))),
    (("poncelet",), _cmd_poncelet, "closure test on a rational-rotation caustic",
     (("c", float, _REQUIRED), ("rot", str, _REQUIRED, "rotation number p/q"),
      ("starts", int, 20))),
    (("birkhoff",), _cmd_birkhoff, "cosine sums along a caustic",
     (("c", float, _REQUIRED), ("s", float, _REQUIRED), ("bounces", int, None),
      ("window", int, None), ("num", int, 64))),
    (("moebius-fit",), _cmd_moebius_fit, "Moebius model of the symmetric sum",
     (("c", float, _REQUIRED), ("s", float, _REQUIRED), ("n", int, _REQUIRED),
      ("samples", int, 20))),
    (("scan-boomerang",), _cmd_scan_boomerang,
     "shots returning through their start",
     (("c", float, _REQUIRED), ("px", float, _REQUIRED),
      ("py", float, _REQUIRED), ("tol", float, 1e-9),
      ("nmax", int, _REQUIRED), ("grid", int, None))),
    (("scan-hole",), _cmd_scan_hole,
     "trajectories through a point that reach a hole",
     (("c", float, _REQUIRED), ("x1", float, _REQUIRED),
      ("y1", float, _REQUIRED), ("x2", float, _REQUIRED),
      ("y2", float, _REQUIRED), ("hx", float, _REQUIRED),
      ("hy", float, _REQUIRED), ("tol", float, 1e-6),
      ("nmax", int, _REQUIRED), ("grid", int, None))),
    (("scan-angle-pair",), _cmd_scan_angle_pair,
     "periodic direction pairs at a fixed angle",
     (("c", float, _REQUIRED), ("px", float, _REQUIRED),
      ("py", float, _REQUIRED), ("alpha", float, _REQUIRED),
      ("tol", float, 1e-6), ("nmax", int, _REQUIRED))),
    (("lattice-pairs",), _cmd_lattice_pairs,
     "lattice vector pairs at a fixed angle ratio",
     (("tau-re", float, _REQUIRED), ("tau-im", float, _REQUIRED),
      ("alpha", float, _REQUIRED), ("hmax", int, 3))),
    (("dml",), None, "exact projective orbit tools", ()),
    (("dml", "classify"), _cmd_dml_classify, "closure group of a matrix",
     (("input", str, _REQUIRED, "JSON with matrix"),)),
    (("dml", "search"), _cmd_dml_search, "orbits meeting three lines",
     (("input", str, _REQUIRED, "JSON with matrix, lines, range"),)),
    (("render",), _cmd_render, "SVG of table, caustic and trajectory",
     (("c", float, _REQUIRED), ("x", float, _REQUIRED), ("y", float, _REQUIRED),
      ("slope", float, _REQUIRED), ("bounces", int, 20))),
)


# The top-level subcommand names, in --help order.
_NAMES = tuple(words[0] for words, *_ in _COMMANDS if len(words) == 1)


@functools.cache
def build_parser(command=None):
    """The caustica argument parser, built once per process from
    _COMMANDS: it holds no append actions or mutable defaults, so parses
    do not share state.  Each subcommand's flags, the common ones first,
    are its `flags` default, which main and _with_config read, and its
    words its `words` default, which names its artifact.  Given a
    command, the first word of a subcommand, the parser holds that
    subcommand alone; its usage line still lists every command."""
    ap = argparse.ArgumentParser(
        prog="caustica",
        description="Elliptical billiards, caustics and exact orbit search")
    # The full parser keeps the default metavar, which its errors use
    # to name the action; a one-command parser lists every command in
    # its usage line, as the full one does.
    metavar = None if command is None else "{" + ",".join(_NAMES) + "}"
    subs = {(): ap.add_subparsers(dest="command", required=True,
                                  metavar=metavar)}
    for words, func, line, flags in _COMMANDS:
        if command not in (None, words[0]):
            continue
        sp = subs[words[:-1]].add_parser(words[-1], help=line)
        if func is None:
            subs[words] = sp.add_subparsers(dest=f"{words[-1]}_command",
                                            required=True)
            continue
        flags = _COMMON + flags
        for name, kind, default, *text in flags:
            sp.add_argument(f"--{name}", type=kind,
                            default=None if default is _REQUIRED else default,
                            help=text[0] if text else None)
        sp.set_defaults(func=func, flags=flags, words=words)
    return ap


def _with_config(ap, argv, args):
    """Parse argv again with each entry of the --config file that names a
    flag of the subcommand written as --key=value right after the
    subcommand's words: every config value gets its flag's type, and the
    explicit flags, later on the line, win.  Keys may use dashes or
    underscores; a key that names no flag, or a null value, is ignored."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("--config must hold a JSON object")
    flags = {name.replace("-", "_") for name, *_ in args.flags}
    tokens = [f"--{key.replace('_', '-')}={val}" for key, val in cfg.items()
              if val is not None and key.replace("-", "_") in flags]
    n = len(args.words)
    return ap.parse_args(argv[:n] + tokens + argv[n:])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # Help, a missing command and an unknown one need the full parser.
    ap = (build_parser(argv[0]) if argv and argv[0] in _NAMES
          else build_parser())
    args = ap.parse_args(argv)
    try:
        if args.config:
            args = _with_config(ap, argv, args)
        for name, _, default, *_ in args.flags:
            if default is _REQUIRED and getattr(
                    args, name.replace("-", "_")) is None:
                raise ValueError(f"missing required option --{name}")
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError) as exc:
        return _refuse(exc)


if __name__ == "__main__":
    sys.exit(main())
