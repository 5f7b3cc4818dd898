"""Command-line interface: formats, determinism, error reporting."""

import json
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import caustica
from caustica.cli import build_parser, main
from caustica.conics import Ellipse
from caustica.orbits import find_periodic_directions


def run_to(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_simulate_csv_format(tmp_path):
    raw = run_to(tmp_path, "t.csv", [
        "simulate", "--c", "0.6", "--x", "0.2", "--y", "0.3",
        "--slope", "0.7", "--bounces", "40"])
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "# caustica simulate seed=0"
    assert lines[1] == "step,x,y,vx,vy,s"
    assert len(lines) == 2 + 40
    svals = []
    for i, line in enumerate(lines[2:], start=1):
        fields = line.split(",")
        assert len(fields) == 6
        assert fields[0] == str(i)
        for f in fields[1:]:
            assert f == format(float(f), ".17g")  # emitted at full precision
        svals.append(float(fields[5]))
    assert np.ptp(svals) < 1e-9  # the caustic is conserved bounce to bounce


def test_repeat_runs_byte_identical(tmp_path):
    argv = ["simulate", "--c", "0.6", "--x", "0.1", "--y", "-0.2",
            "--slope", "-1.3", "--bounces", "25"]
    assert run_to(tmp_path, "a.csv", argv) == run_to(tmp_path, "b.csv", argv)


def test_thread_count_never_changes_bytes(tmp_path, monkeypatch):
    argv = ["betti-scan", "--c", "0.6", "--lmin", "0.4", "--lmax", "1.2",
            "--num", "40"]
    one = run_to(tmp_path, "t1.csv", argv + ["--threads", "1"])
    four = run_to(tmp_path, "t4.csv", argv + ["--threads", "4"])
    assert one == four
    monkeypatch.setenv("CAUSTICA_THREADS", "3")
    env = run_to(tmp_path, "te.csv", argv)
    assert env == one
    assert main(argv + ["--threads", "0"]) == 2


def test_reused_parser_matches_fresh_parser(tmp_path):
    # One process runs several subcommands on the cached parser; each
    # artifact equals a run on a freshly built parser, so no flag value
    # (here the seed of the first run) leaks into a later parse.
    jobs = [
        ["simulate", "--c", "0.6", "--x", "0.2", "--y", "0.3",
         "--slope", "0.7", "--bounces", "5", "--seed", "9"],
        ["find-periodic", "--c", "0.6", "--px", "0.2", "--py", "0.3",
         "--n", "5"],
        ["simulate", "--c", "0.5", "--x", "0.1", "--y", "0.0",
         "--slope", "1.3", "--bounces", "4"],
        ["scan-angle-pair", "--c", "0.6", "--px", "0.2", "--py", "0.3",
         "--alpha", "2.6608", "--nmax", "4"],
        ["betti-scan", "--c", "0.6", "--lmin", "0.4", "--lmax", "1.2",
         "--num", "4"],
    ]
    reused = [run_to(tmp_path, f"r{i}", argv) for i, argv in enumerate(jobs)]
    assert b"seed=9" not in reused[2]
    fresh = []
    for i, argv in enumerate(jobs):
        build_parser.cache_clear()
        fresh.append(run_to(tmp_path, f"f{i}", argv))
    assert reused == fresh


def test_betti_scan_header_and_monotone(tmp_path):
    raw = run_to(tmp_path, "b.csv", [
        "betti-scan", "--c", "0.6", "--lmin", "1.1", "--lmax", "2.5",
        "--num", "15", "--seed", "5"])
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "# caustica betti-scan seed=5"
    assert lines[1] == "lambda,beta1,beta2"
    b2 = [float(r.split(",")[2]) for r in lines[2:]]
    assert all(x > y for x, y in zip(b2, b2[1:]))


def test_config_file_mirrors_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"c": 0.6, "lmin": 0.5, "lmax": 0.9, "num": 7}))
    from_cfg = run_to(tmp_path, "c.csv", ["betti-scan", "--config", str(cfg)])
    from_flags = run_to(tmp_path, "f.csv", [
        "betti-scan", "--c", "0.6", "--lmin", "0.5", "--lmax", "0.9",
        "--num", "7"])
    assert from_cfg == from_flags


def test_explicit_flag_beats_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"c": 0.6, "lmin": 0.5, "lmax": 0.9, "num": 3}))
    mixed = run_to(tmp_path, "m.csv", [
        "betti-scan", "--config", str(cfg), "--num", "7"])
    pure = run_to(tmp_path, "p.csv", [
        "betti-scan", "--c", "0.6", "--lmin", "0.5", "--lmax", "0.9",
        "--num", "7"])
    assert mixed == pure


def test_stdout_is_default_sink(capsys):
    rc = main(["simulate", "--c", "0.6", "--x", "0.0", "--y", "0.0",
               "--slope", "0.3", "--bounces", "3"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("# caustica simulate seed=0")


def test_count_periodic_frozen_counts(tmp_path):
    raw = run_to(tmp_path, "n.csv", [
        "count-periodic", "--c", "0.6", "--px", "0.2", "--py", "0.3",
        "--nmin", "3", "--nmax", "6"])
    lines = raw.decode().strip().split("\n")
    assert lines[1] == "n,parity,count,predicted"
    got = {int(r.split(",")[0]): (r.split(",")[1], int(r.split(",")[2]))
           for r in lines[2:]}
    assert got[3] == ("odd", 4)
    assert got[4] == ("even", 0)
    assert got[5] == ("odd", 4)
    assert got[6] == ("even", 8)


def test_find_periodic_json(tmp_path):
    raw = run_to(tmp_path, "d.json", [
        "find-periodic", "--c", "0.6", "--px", "0.2", "--py", "0.3",
        "--n", "3", "--seed", "2"])
    doc = json.loads(raw)
    assert doc["command"] == "find-periodic"
    assert doc["seed"] == 2
    assert len(doc["results"]) == 4
    for rec in doc["results"]:
        assert rec["closure_error"] < 1e-8
        assert rec["caustic"]["kind"] in ("elliptic", "hyperbolic")
        assert len(rec["direction"]) == 2


def test_connect_json(tmp_path):
    raw = run_to(tmp_path, "c.json", [
        "connect", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
        "--x2", "-0.3", "--y2", "0.1", "--n", "12"])
    doc = json.loads(raw)
    assert len(doc["bounces"]) == 11
    assert max(doc["reflection_residuals"]) < 1e-8
    assert np.var(doc["segment_caustics"]) < 1e-8
    e = Ellipse(0.6)
    for b in doc["bounces"]:
        assert abs(e.boundary_residual(b["x"], b["y"])) < 1e-9


def test_poncelet_rational_rotation_closes(tmp_path):
    raw = run_to(tmp_path, "p.json", [
        "poncelet", "--c", "0.6", "--rot", "1/7", "--starts", "8",
        "--seed", "3"])
    doc = json.loads(raw)
    assert doc["rotation"] == "1/7"
    assert doc["lambda_star"] == pytest.approx(2.3638182486588675, abs=1e-9)
    assert doc["max_closure_error"] < 1e-6
    assert len(doc["starts"]) == 8


def test_birkhoff_requires_exactly_one_mode(tmp_path, capsys):
    base = ["birkhoff", "--c", "0.6", "--s", "0.62", "--num", "8"]
    assert main(base + ["--bounces", "50", "--window", "3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert main(base) == 2
    raw = run_to(tmp_path, "b.csv", base + ["--bounces", "50"])
    lines = raw.decode().strip().split("\n")
    assert lines[1] == "x,y,sum"
    assert len(lines) == 2 + 8


def test_moebius_fit_json_keys(tmp_path):
    raw = run_to(tmp_path, "m.json", [
        "moebius-fit", "--c", "0.6", "--s", "0.62", "--n", "7"])
    doc = json.loads(raw)
    assert doc["command"] == "moebius-fit"
    for key in ("a", "b", "coef_c", "d", "det", "residual"):
        assert key in doc
    assert doc["residual"] < 1e-9
    assert doc["det"] != 0


def test_scan_boomerang_json(tmp_path):
    raw = run_to(tmp_path, "s.json", [
        "scan-boomerang", "--c", "0.6", "--px", "0.2", "--py", "0.3",
        "--nmax", "4", "--tol", "1e-7", "--grid", "1024"])
    doc = json.loads(raw)
    assert doc["results"]
    for rec in doc["results"]:
        assert rec["kind"] in (2, 3)
        assert 1 <= rec["bounce"] <= 4
        assert rec["miss"] <= 1e-7


def test_scan_hole_json(tmp_path):
    raw = run_to(tmp_path, "h.json", [
        "scan-hole", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
        "--x2", "-0.3", "--y2", "0.1", "--hx", "1.0", "--hy", "0.0",
        "--nmax", "6", "--tol", "0.05", "--grid", "1024"])
    doc = json.loads(raw)
    assert doc["results"]
    for rec in doc["results"]:
        assert rec["m"] < rec["n"] <= 6
        assert rec["miss_h"] <= 0.05


def test_scan_angle_pair_json(tmp_path):
    e = Ellipse(0.6)
    dirs = find_periodic_directions(e, (0.2, 0.3), 3)
    angs = sorted(math.atan2(d.direction[1], d.direction[0]) % math.pi
                  for d in dirs)
    alpha = next(abs(a - b) for a in angs for b in angs
                 if 0.2 < abs(a - b) < math.pi - 0.2)
    raw = run_to(tmp_path, "a.json", [
        "scan-angle-pair", "--c", "0.6", "--px", "0.2", "--py", "0.3",
        "--alpha", repr(alpha), "--nmax", "6", "--tol", "1e-6"])
    doc = json.loads(raw)
    assert doc["results"]
    for rec in doc["results"]:
        a1 = math.atan2(rec["dir1"][1], rec["dir1"][0]) % math.pi
        a2 = math.atan2(rec["dir2"][1], rec["dir2"][0]) % math.pi
        sep = abs(a1 - a2)
        assert min(sep, math.pi - sep) == pytest.approx(
            min(alpha, math.pi - alpha), abs=1e-6)


def test_lattice_pairs_json(tmp_path):
    raw = run_to(tmp_path, "l.json", [
        "lattice-pairs", "--tau-re", "0.0", "--tau-im", "1.0",
        "--alpha", repr(math.pi / 2), "--hmax", "2"])
    doc = json.loads(raw)
    assert doc["cm"] is True
    assert doc["pairs"]
    for rec in doc["pairs"]:
        assert len(rec["lambda"]) == 2 and len(rec["delta"]) == 2


def test_dml_classify_cli(tmp_path):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(
        {"matrix": [[2, 0, 0], [0, 3, 0], [0, 0, 1]]}))
    raw = run_to(tmp_path, "k.json", ["dml", "classify", "--input", str(inp)])
    doc = json.loads(raw)
    assert doc["classification"]["kind"] == "Gm2"
    assert doc["classification"]["witness"]["semisimple"] is True


def test_dml_search_cli(tmp_path):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({
        "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
        "lines": [[0, 1, -1], [1, 1, 0], [1, 1, 1]],
        "range": 25}))
    raw = run_to(tmp_path, "s.json", ["dml", "search", "--input", str(inp)])
    doc = json.loads(raw)
    assert doc["classification"]["kind"] == "GaGm"
    pairs = {(h["m"], h["n"]) for h in doc["hits"]}
    assert {(1, 0), (3, 1), (6, 2), (11, 3), (20, 4)} <= pairs
    fam = doc["family"]
    assert fam["kind"] == "ExponentialFamily"
    assert (fam["A"], fam["lambda"], fam["B"], fam["C"]) == ("1", "2", "1", "0")


DML_DATA = Path(__file__).parent / "data" / "dml"


@pytest.mark.parametrize("name", ["exponential", "antidiagonal", "sparse"])
def test_dml_search_bytes_frozen(tmp_path, name):
    # The criterion-9 inputs; the expected bytes were written by the
    # Fraction-based search, the reference for the integer one.
    raw = run_to(tmp_path, "s.json", [
        "dml", "search", "--input", str(DML_DATA / f"{name}.input.json")])
    assert raw == (DML_DATA / f"{name}.search.json").read_bytes()


SCAN_DATA = Path(__file__).parent / "data" / "scan"
SCAN_ARGV = {
    "boomerang": ["scan-boomerang", "--c", "0.6", "--px", "0.2", "--py", "0.3",
                  "--nmax", "6", "--tol", "1e-7"],
    "hole": ["scan-hole", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
             "--x2", "-0.3", "--y2", "0.1", "--hx", "1.0", "--hy", "0.0",
             "--nmax", "8", "--tol", "0.05"],
}


@pytest.mark.parametrize("name", sorted(SCAN_ARGV))
def test_scan_bytes_frozen(tmp_path, name):
    # The README invocations; the expected bytes were written by the
    # scans that re-simulated each root as PhasePoints, the reference
    # for the float-tuple walk.
    raw = run_to(tmp_path, "s.json", SCAN_ARGV[name])
    assert raw == (SCAN_DATA / f"{name}.json").read_bytes()


PERIODIC_DATA = Path(__file__).parent / "data" / "periodic"
PERIODIC_ARGV = {
    "count_readme.csv": ["count-periodic", "--c", "0.6", "--px", "0.2",
                         "--py", "0.3", "--nmax", "30"],
    "count_100_180.csv": ["count-periodic", "--c", "0.6", "--px", "0.2",
                          "--py", "0.3", "--nmin", "100", "--nmax", "180"],
    "angle_pair.json": ["scan-angle-pair", "--c", "0.6", "--px", "0.2",
                        "--py", "0.3", "--alpha", "2.155641747208",
                        "--nmax", "12"],
}


@pytest.mark.parametrize("name", sorted(PERIODIC_ARGV))
def test_periodic_bytes_frozen(tmp_path, name):
    # The expected bytes were written by one certification walk per n,
    # the reference for the retiring lockstep over a range of n.
    raw = run_to(tmp_path, name, PERIODIC_ARGV[name])
    assert raw == (PERIODIC_DATA / name).read_bytes()


BIRKHOFF_DATA = Path(__file__).parent / "data" / "birkhoff"
BIRKHOFF_ARGV = {
    "bounces_100.csv": ["birkhoff", "--c", "0.6", "--s", "0.62",
                        "--bounces", "100"],
    "window_3.csv": ["birkhoff", "--c", "0.6", "--s", "0.62", "--window", "3"],
    "moebius_fit_7.json": ["moebius-fit", "--c", "0.6", "--s", "0.62",
                           "--n", "7"],
}


@pytest.mark.parametrize("name", sorted(BIRKHOFF_ARGV))
def test_birkhoff_bytes_frozen(tmp_path, name):
    # The README invocations.  The plain sums were written before window
    # sums were walked by time reversal, which left them unchanged; the
    # window sums and the fit were written by the time-reversed walk,
    # once it matched a 40-digit mpmath walk (tests/test_oracles.py).
    raw = run_to(tmp_path, name, BIRKHOFF_ARGV[name])
    assert raw == (BIRKHOFF_DATA / name).read_bytes()


def test_count_periodic_range_edges(tmp_path, capsys):
    argv = ["count-periodic", "--c", "0.6", "--px", "0.2", "--py", "0.3"]
    assert main(argv + ["--nmin", "1", "--nmax", "5"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "period search needs n >= 2"}
    raw = run_to(tmp_path, "e.csv", argv + ["--nmin", "9", "--nmax", "5"])
    assert raw == b"# caustica count-periodic seed=0\nn,parity,count,predicted\n"


def test_scan_angle_pair_has_no_grid_flag(capsys):
    # The pair search is exact: it takes no direction grid.
    with pytest.raises(SystemExit):
        main(["scan-angle-pair", "--c", "0.6", "--px", "0.2", "--py", "0.3",
              "--alpha", "2.6608", "--nmax", "4", "--grid", "64"])
    assert "--grid" in capsys.readouterr().err


def test_dml_search_input_validation(tmp_path, capsys):
    inp = tmp_path / "two.json"
    inp.write_text(json.dumps({
        "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
        "lines": [[0, 1, -1], [1, 1, 0]], "range": 5}))
    assert main(["dml", "search", "--input", str(inp)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert main(["dml", "search", "--input", str(tmp_path / "nope.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] in (
        "FileNotFoundError", "OSError")


def test_render_svg(tmp_path):
    raw = run_to(tmp_path, "r.svg", [
        "render", "--c", "0.6", "--x", "0.2", "--y", "0.3",
        "--slope", "0.7", "--bounces", "15", "--seed", "4"])
    svg = raw.decode()
    assert 'viewBox="-1.15 -1.15 2.3 2.3"' in svg
    assert "<!-- caustica render seed=4 -->" in svg
    assert 'transform="scale(1,-1)"' in svg
    assert "<ellipse" in svg and "<polyline" in svg
    assert "steelblue" in svg  # the caustic is drawn
    assert svg.rstrip().endswith("</svg>")


def test_invalid_parameters_exit_two(capsys):
    assert main(["simulate", "--c", "1.5", "--x", "0.0", "--y", "0.0",
                 "--slope", "1.0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"]
    assert main(["moebius-fit", "--c", "0.6", "--s", "0.62"]) == 2  # no --n
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert main(["simulate", "--c", "0.6", "--x", "0.2", "--y", "0.3",
                 "--vx", "0", "--vy", "0", "--bounces", "3"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert main(["scan-hole", "--c", "0.6", "--x1", "1.5", "--y1", "0.0",
                 "--x2", "-0.3", "--y2", "0.1", "--hx", "1.0", "--hy", "0.0",
                 "--nmax", "4", "--tol", "0.05"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    for x1, y1 in (("1.5", "0.0"), ("0.1", "0.9")):  # p1 outside the table
        assert main(["connect", "--c", "0.6", "--x1", x1, "--y1", y1,
                     "--x2", "-0.3", "--y2", "0.1", "--n", "3"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


@pytest.mark.parametrize("argv,message", [
    (["scan-boomerang", "--c", "0.6", "--px", "0.2", "--py", "0.3",
      "--nmax", "6", "--grid", "0"], "direction grid needs grid >= 1"),
    (["scan-hole", "--c", "0.6", "--x1", "0.1", "--y1", "0.2", "--x2", "-0.3",
      "--y2", "0.1", "--hx", "1.0", "--hy", "0.0", "--nmax", "8",
      "--grid", "-1"], "direction grid needs grid >= 1"),
    (["birkhoff", "--c", "0.6", "--s", "0.62", "--bounces", "5", "--num", "0"],
     "--num must be >= 1"),
    (["poncelet", "--c", "0.6", "--rot", "1/7", "--starts", "0"],
     "--starts must be >= 1"),
])
def test_sizes_that_scan_nothing_exit_two(capsys, argv, message):
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": message}


def test_console_script_installed(tmp_path):
    exe = shutil.which("caustica")
    assert exe, "console script caustica missing"
    out = tmp_path / "cc.csv"
    proc = subprocess.run(
        [exe, "simulate", "--c", "0.6", "--x", "0.0", "--y", "0.1",
         "--slope", "0.4", "--bounces", "5", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_text().startswith("# caustica simulate")


# The README invocations, each run in its own fresh interpreter, so that a
# module one job loads is not charged to the next.  Only the subcommands
# that evaluate Carlson's R_F load scipy.special; none of them loads
# scipy.optimize or scipy.integrate, which only the connecting-trajectory
# solver and the quadrature references need.
README_ARGV = [
    ["simulate", "--c", "0.6", "--x", "0.2", "--y", "0.3", "--slope", "0.7",
     "--bounces", "100"],
    ["count-periodic", "--c", "0.6", "--px", "0.2", "--py", "0.3", "--nmax", "30"],
    ["find-periodic", "--c", "0.6", "--px", "0.2", "--py", "0.3", "--n", "7"],
    ["poncelet", "--c", "0.6", "--rot", "1/7", "--starts", "20"],
    ["birkhoff", "--c", "0.6", "--s", "0.62", "--bounces", "100"],
    ["birkhoff", "--c", "0.6", "--s", "0.62", "--window", "3"],
    ["moebius-fit", "--c", "0.6", "--s", "0.62", "--n", "7"],
    SCAN_ARGV["boomerang"],
    SCAN_ARGV["hole"],
    ["scan-angle-pair", "--c", "0.6", "--px", "0.2", "--py", "0.3",
     "--alpha", "2.6608", "--nmax", "6"],
    ["lattice-pairs", "--tau-re", "0.0", "--tau-im", "1.0", "--alpha", "1.5707963",
     "--hmax", "3"],
    ["render", "--c", "0.6", "--x", "0.2", "--y", "0.3", "--slope", "0.7"],
    ["dml", "classify", "--input", "{input}"],
    ["dml", "search", "--input", "{input}"],
]
R_F_USERS = {"count-periodic", "find-periodic", "poncelet", "moebius-fit",
             "scan-angle-pair"}
_GUARD = """
import json, sys
import caustica.cli
rc = caustica.cli.main(json.loads(sys.argv[1]))
scipy = ("scipy", "scipy.special", "scipy.optimize", "scipy.integrate")
print(json.dumps([rc, [m for m in scipy if m in sys.modules]]))
"""


def _guarded_run(argv, src):
    """(exit code, which of scipy and its special/optimize/integrate
    modules are loaded) after one CLI run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD, json.dumps(argv)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(proc.stdout.splitlines()[-1])


def test_readme_invocations_skip_optimize_and_integrate(tmp_path):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps({
        "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
        "lines": [[0, 1, -1], [1, 1, 0], [1, 1, 1]], "range": 25}))
    jobs = [[a.format(input=inp) for a in argv] + ["--out", str(tmp_path / f"{i}.out")]
            for i, argv in enumerate(README_ARGV)]
    jobs += [["connect", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
              "--x2", "-0.3", "--y2", "0.1", "--n", "12",
              "--out", str(tmp_path / "connect.out")],
             ["betti-scan", "--c", "0.6", "--lmin", "1.1", "--lmax", "2.5",
              "--num", "101", "--out", str(tmp_path / "betti.out")]]
    src = Path(caustica.__file__).resolve().parents[1]
    # Two interpreters at a time; each job writes only its own artifact.
    with ThreadPoolExecutor(max_workers=2) as pool:
        report = list(pool.map(lambda job: _guarded_run(job, src), jobs))
    for argv, (rc, loaded) in zip(README_ARGV, report):
        assert rc == 0, argv
        assert loaded == (["scipy", "scipy.special"] if argv[0] in R_F_USERS else []), argv
    # scipy.optimize imports scipy.special; betti-scan evaluates the
    # closed form, not the quadrature reference.
    (connect_rc, after_connect), (betti_rc, after_betti) = report[-2:]
    assert connect_rc == 0 and after_connect == ["scipy", "scipy.special", "scipy.optimize"]
    assert betti_rc == 0 and after_betti == ["scipy", "scipy.special"]


def _config_of(argv):
    """The flags of argv as a config object: underscores in keys, and
    numbers as JSON numbers, integral ones (1.0 on a float flag) as
    integers."""
    cfg = {}
    for flag, text in zip(argv[::2], argv[1::2]):
        try:
            val = float(text)
        except ValueError:
            val = text
        else:
            val = int(val) if val.is_integer() else val
        cfg[flag[2:].replace("-", "_")] = val
    return cfg


def test_readme_invocations_as_config_files_match_flags(tmp_path):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps({
        "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
        "lines": [[0, 1, -1], [1, 1, 0], [1, 1, 1]], "range": 25}))
    jobs = README_ARGV + [
        ["betti-scan", "--c", "0.6", "--lmin", "1.1", "--lmax", "2.5",
         "--num", "11"],
        ["connect", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
         "--x2", "-0.3", "--y2", "0.1", "--n", "12"]]
    for i, job in enumerate(jobs):
        job = [a.format(input=inp) for a in job]
        names = 2 if job[0] == "dml" else 1
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(_config_of(job[names:])))
        from_cfg = run_to(tmp_path, f"c{i}", job[:names] + ["--config", str(cfg)])
        assert from_cfg == run_to(tmp_path, f"f{i}", job), job


def test_config_string_value_gets_the_flag_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"c": "0.6", "px": 0.2, "py": 0.3, "nmax": "6", "tol": "1e-7"}))
    raw = run_to(tmp_path, "s.json", ["scan-boomerang", "--config", str(cfg)])
    assert raw == (SCAN_DATA / "boomerang.json").read_bytes()


def test_config_ignores_keys_that_name_no_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"c": 0.6, "lmin": 0.5, "lmax": 0.9, "num": 7, "seed": None,
         "colour": "red", "grid": 64, "tau-re": 1.0, "func": "x"}))
    from_cfg = run_to(tmp_path, "c.csv", ["betti-scan", "--config", str(cfg)])
    from_flags = run_to(tmp_path, "f.csv", [
        "betti-scan", "--c", "0.6", "--lmin", "0.5", "--lmax", "0.9",
        "--num", "7"])
    assert from_cfg == from_flags


def test_config_that_is_not_an_object_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([["c", 0.6]]))
    assert main(["betti-scan", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_zero_threads_rejected_on_every_subcommand(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({
        "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
        "lines": [[0, 1, -1], [1, 1, 0], [1, 1, 1]], "range": 5}))
    for argv in (["simulate", "--c", "0.6", "--x", "0.2", "--y", "0.3",
                  "--slope", "0.7", "--bounces", "3"],
                 ["dml", "search", "--input", str(inp)]):
        assert main(argv + ["--threads", "0"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "--threads must be >= 1"}
