"""Seeded job lists for the four benchmark workloads.

Each generator turns a seed into a fixed list of at least 100 jobs; the
program sees only the generated inputs.  Sizes (n, grid, nmax, N,
n_iter) are laid out by stratum index so that the total work of a pass
barely depends on the seed; the seed moves the continuous inputs (c,
points, caustics, matrices) and, for some sizes, the jitter inside each
stratum.  Every input meets
the documented preconditions of the subcommand that receives it.

A job is a kind plus the parameters the program receives.  ``argv``
builds the command line for CLI jobs; ``rotation`` is the one kind with
no CLI route and is called as a library function.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from checks import adjugate, beta2, elliptic_lambda, fraction_matrix

JOBS_PER_PASS = 100

# The three inputs of acceptance criterion 9, with their ranges.
CRITERION_9 = (
    {"label": "criterion9-exponential",
     "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
     "lines": [[0, 1, -1], [1, 1, 0], [1, 1, 1]], "range": 25},
    {"label": "criterion9-antidiagonal",
     "matrix": [[2, 0, 0], [0, "1/2", 0], [0, 0, 1]],
     "lines": [[1, -1, 0], [1, 1, -1], [1, 1, -1]], "range": 8},
    {"label": "criterion9-sparse",
     "matrix": [[2, 0, 0], [0, 3, 0], [0, 0, 1]],
     "lines": [[1, 2, -3], [1, 1, -5], [1, -1, 5]], "range": 40},
)


@dataclass
class Job:
    kind: str
    params: dict

    def record(self):
        return {"kind": self.kind, **self.params}


def _rng(workload, seed):
    return random.Random(f"perfbench:{workload}:{seed}")


def _c_values(rng, k, lo=0.3, hi=0.9):
    """One table parameter near the middle of each equal slice of [lo, hi]."""
    w = (hi - lo) / k
    return [round(lo + w * (j + rng.uniform(0.4, 0.6)), 6) for j in range(k)]


def _point(rng, c, rlo, rhi):
    """Interior point at elliptic radius r in [rlo, rhi], any angle."""
    b = math.sqrt(1.0 - c * c)
    r = rng.uniform(rlo, rhi)
    t = rng.uniform(0.0, 2.0 * math.pi)
    return [round(r * math.cos(t), 9), round(r * b * math.sin(t), 9)]


def _generic_point(rng, c):
    """Point off the axes and foci, where predicted_count is defined: the
    crossing of the confocal ellipse M whose odd growth rate
    c_o = 2 - 4 beta2(M/c^2) is drawn from [1.07, 1.13] with the confocal
    hyperbola m, m/c^2 drawn from [0.45, 0.55].  The certification work of
    a job grows with the counts these fix, so it barely depends on the
    seed."""
    c_o = rng.uniform(1.07, 1.13)
    M = c * c * elliptic_lambda(c, (2.0 - c_o) / 4.0)
    lam_m = rng.uniform(0.45, 0.55)
    return [round(rng.choice((1.0, -1.0)) * math.sqrt(M * lam_m), 9),
            round(rng.choice((1.0, -1.0)) * math.sqrt((M - c * c) * (1.0 - lam_m)), 9)]


def _count(seed):
    rng = _rng("count", seed)
    cs = _c_values(rng, 4)
    jobs = []
    for i in range(JOBS_PER_PASS):
        c = cs[i % len(cs)]
        px, py = _generic_point(rng, c)
        # Quadratic spacing: many small n, a tail up to 160.  n is fixed
        # by the stratum (the parity alternates, since even n also
        # root-finds hyperbolic levels) so that p50 and p90 fall on alike
        # jobs for every seed.
        n = 3 + int(156 * ((i + 0.5) / JOBS_PER_PASS) ** 2)
        n += (n - i) % 2
        if i % 5 == 2:
            jobs.append(Job("find-periodic",
                            {"c": c, "px": px, "py": py, "n": n}))
        else:
            jobs.append(Job("count-periodic",
                            {"c": c, "px": px, "py": py, "nmin": n, "nmax": n}))
    rng.shuffle(jobs)
    setup = []
    for c in cs:
        first = next(j for j in jobs if j.params["c"] == c)
        setup.append(Job("count-periodic",
                         {"c": c, "px": first.params["px"],
                          "py": first.params["py"], "nmin": 3, "nmax": 3}))
    return jobs, setup


def _boundary_point(rng, c):
    t = rng.uniform(0.0, 2.0 * math.pi)
    return [math.cos(t), math.sqrt(1.0 - c * c) * math.sin(t)]


def _scan(seed):
    rng = _rng("scan", seed)
    cs = _c_values(rng, 3)
    jobs = []
    for i in range(JOBS_PER_PASS):
        c = cs[i % len(cs)]
        # 85 jobs on the 1024 grid, 12 alike on 2048 (so that p90 falls
        # among alike jobs), 3 on 4096.
        if i < 85:
            grid, nmax = 1024, 4
        elif i < 97:
            grid, nmax = 2048, 6
        else:
            grid, nmax = 4096, 8 + 2 * (i - 97)
        if i % 2 == 0:
            p = _point(rng, c, 0.2, 0.8)
            jobs.append(Job("scan-boomerang",
                            {"c": c, "px": p[0], "py": p[1], "nmax": nmax,
                             "grid": grid, "tol": 1e-7}))
        else:
            while True:
                p1 = _point(rng, c, 0.1, 0.7)
                p2 = _point(rng, c, 0.1, 0.7)
                if math.hypot(p1[0] - p2[0], p1[1] - p2[1]) > 0.05:
                    break  # also rules out the excluded focal pair
            h = _boundary_point(rng, c)
            jobs.append(Job("scan-hole",
                            {"c": c, "x1": p1[0], "y1": p1[1],
                             "x2": p2[0], "y2": p2[1], "hx": h[0], "hy": h[1],
                             "nmax": nmax, "grid": grid,
                             "tol": round(rng.uniform(0.02, 0.05), 6)}))
    rng.shuffle(jobs)
    setup = []
    for c in cs:
        first = next(j for j in jobs if j.params["c"] == c and j.kind == "scan-boomerang")
        setup.append(Job("scan-boomerang",
                         dict(first.params, nmax=2, grid=64)))
    return jobs, setup


def _elliptic_s(rng, c):
    return round(c * c + (1.0 - c * c) * rng.uniform(0.2, 0.8), 9)


def _orbit(seed):
    # 200 jobs, twice the other workloads: the cost of a connect job
    # varies widely with its points, and p90 and wall_s over 100 jobs
    # spread by about 0.1 of their median from seed to seed.
    rng = _rng("orbit", seed)
    cs = _c_values(rng, 3)
    jobs = []
    for i in range(50):
        c = cs[i % 3]
        n_iter = 1000 * (2 + int(8 * (i + rng.random()) / 50))
        jobs.append(Job("rotation",
                        {"c": c, "s": _elliptic_s(rng, c), "n_iter": n_iter}))
    for i in range(40):
        c = cs[i % 3]
        q = 3 + i % 10
        # Rotations whose caustic lies in the focal boundary layer
        # |lambda* - 1| < 1e-6 (caustica.orbits.LAYER_BAND) have no
        # double-precision caustic that closes to CERT_TOL.
        p = rng.choice([k for k in range(1, (q + 1) // 2) if math.gcd(k, q) == 1
                        and elliptic_lambda(c, k / q) - 1.0 >= 1e-6])
        jobs.append(Job("poncelet", {"c": c, "rot": f"{p}/{q}", "starts": 20}))
    for i in range(40):
        c = cs[i % 3]
        jobs.append(Job("birkhoff", {"c": c, "s": _elliptic_s(rng, c),
                                     "window": 1 + i % 5}))
    for i in range(20):
        c = cs[i % 3]
        n = 3 + 2 * (i % 4)
        while True:
            s = _elliptic_s(rng, c)
            nb = n * beta2(c, s / (c * c))
            if abs(nb - round(nb)) > 1e-3:  # moebius-fit needs a non-periodic caustic
                break
        jobs.append(Job("moebius-fit",
                        {"c": c, "s": s, "n": n, "samples": 20}))
    for i in range(50):
        c = cs[i % 3]
        while True:
            p1 = _point(rng, c, 0.1, 0.7)
            p2 = _point(rng, c, 0.1, 0.7)
            if math.hypot(p1[0] - p2[0], p1[1] - p2[1]) > 0.05:
                break
        jobs.append(Job("connect", {"c": c, "x1": p1[0], "y1": p1[1],
                                    "x2": p2[0], "y2": p2[1],
                                    "n": 3 + i % 2, "seed": i}))
    rng.shuffle(jobs)
    setup = []
    for c in cs:
        first = next(j for j in jobs if j.params["c"] == c and j.kind == "moebius-fit")
        setup.append(Job("moebius-fit", dict(first.params, samples=5)))
    return jobs, setup


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _canon(v):
    """Projective class of a rational triple as coprime integers."""
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _line_orbit(matrix, line, K):
    """Canonical rows line . beta^k for |k| <= K (beta^-1 by adjugate)."""
    m = fraction_matrix(matrix)
    out = {0: _canon([Fraction(x) for x in line])}
    for step, A in ((1, m), (-1, adjugate(m))):
        r = [Fraction(x) for x in out[0]]
        for k in range(1, K + 1):
            r = [sum(r[i] * A[i][j] for i in range(3)) for j in range(3)]
            out[step * k] = _canon(r)
            r = [Fraction(x) for x in out[step * k]]
    return out


def _distinct(orbits):
    """The dml search precondition: no line is another's shift by beta^k
    for 0 < |k| <= 2N, given each line's orbit over |k| <= 2N."""
    for i in range(3):
        for j in range(i + 1, 3):
            target = orbits[j][0]
            if any(k and row == target for k, row in orbits[i].items()):
                return False
    return True


def _exact(seed):
    rng = _rng("exact", seed)
    jobs = [Job("dml-search", dict(inp)) for inp in CRITERION_9]
    for i in range(JOBS_PER_PASS - len(CRITERION_9)):
        # 93 jobs with N in 7..11 by stratum, a tail of 4 from 20 to 60.
        N = 7 + i % 5 if i < 93 else (20, 30, 40, 60)[i - 93]
        while True:
            matrix = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            lines = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            if _det3(matrix) == 0 or not all(any(L) for L in lines):
                continue
            # Entry growth of the shifted rows, in bits per step: the cost
            # of a cell grows with it, so it is held to a band.
            growth = max(abs(x).bit_length() for L in lines[1:]
                         for k, row in _line_orbit(matrix, L, N).items()
                         if abs(k) == N for x in row) / N
            if 2.0 <= growth <= 3.0 and _distinct(
                    [_line_orbit(matrix, L, 2 * N) for L in lines]):
                break
        jobs.append(Job("dml-search", {"label": f"seeded-{i}", "matrix": matrix,
                                       "lines": lines, "range": N}))
    rng.shuffle(jobs)
    setup = [Job("dml-search", dict(CRITERION_9[0], label="setup", range=1))]
    return jobs, setup


def generate(workload, seed):
    """(jobs, setup_jobs) for a workload.  setup_jobs are the first
    public call for each distinct c (one call for `exact`), small but
    going through the same lazy initialisation as the jobs."""
    if workload == "count":
        return _count(seed)
    if workload == "scan":
        return _scan(seed)
    if workload == "orbit":
        return _orbit(seed)
    if workload == "exact":
        return _exact(seed)
    raise ValueError(f"unknown workload {workload!r}")


_FLAGS = {
    "count-periodic": ("c", "px", "py", "nmin", "nmax"),
    "find-periodic": ("c", "px", "py", "n"),
    "scan-boomerang": ("c", "px", "py", "nmax", "grid", "tol"),
    "scan-hole": ("c", "x1", "y1", "x2", "y2", "hx", "hy", "nmax", "grid", "tol"),
    "poncelet": ("c", "rot", "starts"),
    "birkhoff": ("c", "s", "window"),
    "moebius-fit": ("c", "s", "n", "samples"),
    "connect": ("c", "x1", "y1", "x2", "y2", "n", "seed"),
}


def argv(job, out_path, input_path=None):
    """Command line of a CLI job; dml search reads its input file.  Each
    value is joined to its flag with ``=``, so that a negative number in
    exponent form (``-8.5e-05``) is not taken for an option."""
    if job.kind == "dml-search":
        cmd = ["dml", "search", "--input", str(input_path)]
    else:
        cmd = [job.kind]
        for key in _FLAGS[job.kind]:
            cmd.append(f"--{key}={job.params[key]}")
    return cmd + ["--threads", "1", "--out", str(out_path)]


def dml_input(job):
    """The JSON document a dml-search job reads."""
    return {k: job.params[k] for k in ("matrix", "lines", "range")}
