"""Command-line interface: formats, determinism, error reporting."""

import argparse
import hashlib
import itertools
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
from caustica import orbits
from caustica import cli
from caustica.cli import _COMMANDS, _REQUIRED, build_parser, main
from caustica.conics import Ellipse
from caustica.orbits import ConvergenceError, find_periodic_directions


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


# --out is written over in place and cut to the new length (cli._emit).
_LONG = ["simulate", "--c", "0.6", "--x", "0.2", "--y", "0.3", "--slope", "0.7",
         "--bounces", "40"]
_SHORT = _LONG[:-1] + ["3"]


def test_rewrite_holds_only_the_new_artifact(tmp_path, capsys):
    assert main(_SHORT) == 0
    short = capsys.readouterr().out.encode()
    out = tmp_path / "a.csv"
    long = run_to(tmp_path, "a.csv", _LONG)
    assert len(long) > len(short)
    assert run_to(tmp_path, "a.csv", _SHORT) == short
    assert run_to(tmp_path, "a.csv", _LONG) == long
    assert out.stat().st_size == len(long)


def test_out_to_a_device_is_not_cut():
    assert main(_SHORT + ["--out", os.devnull]) == 0


def test_refused_run_leaves_the_existing_file(tmp_path, capsys):
    before = run_to(tmp_path, "s.json", _LONG)
    out = tmp_path / "s.json"
    assert main(SCAN_ARGV["boomerang"] + ["--tol", "inf", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert out.read_bytes() == before


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002], ids=oct)
def test_new_file_mode_is_that_of_a_plain_open(tmp_path, mask):
    old = os.umask(mask)
    try:
        with open(tmp_path / "plain", "w") as fh:
            fh.write("x")
        run_to(tmp_path, "a.csv", _SHORT)
    finally:
        os.umask(old)
    assert ((tmp_path / "a.csv").stat().st_mode
            == (tmp_path / "plain").stat().st_mode)


def test_links_are_written_through(tmp_path):
    target = tmp_path / "target.csv"
    long = run_to(tmp_path, "target.csv", _LONG)
    (tmp_path / "sym.csv").symlink_to(target)
    os.link(target, tmp_path / "hard.csv")
    short = run_to(tmp_path, "sym.csv", _SHORT)
    assert (tmp_path / "sym.csv").is_symlink()
    assert target.read_bytes() == short != long
    assert run_to(tmp_path, "hard.csv", _LONG) == long
    assert target.read_bytes() == long
    assert os.path.samefile(target, tmp_path / "hard.csv")


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


def test_connect_does_not_depend_on_seed(tmp_path):
    argv = ["connect", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
            "--x2", "-0.3", "--y2", "0.1", "--n", "4"]
    docs = [json.loads(run_to(tmp_path, f"c{seed}.json", argv + ["--seed", seed]))
            for seed in ("0", "5")]
    assert [d["seed"] for d in docs] == [0, 5]
    assert docs[0]["bounces"] == docs[1]["bounces"]


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
    "lattice_square.json": ["lattice-pairs", "--tau-re", "0.0", "--tau-im", "1.0",
                            "--alpha", "1.5707963267948966", "--hmax", "3"],
    "lattice_hexagonal.json": ["lattice-pairs", "--tau-re", "0.5",
                               "--tau-im", "0.8660254037844386",
                               "--alpha", "1.0471975511965976", "--hmax", "3"],
    # alpha = phase((tau + 1)/(2 tau - 1)) % pi at tau = 0.123 + 1.456i.
    "lattice_generic.json": ["lattice-pairs", "--tau-re", "0.123",
                             "--tau-im", "1.456",
                             "--alpha", "2.2312396280594724", "--hmax", "3"],
}


@pytest.mark.parametrize("name", sorted(PERIODIC_ARGV))
def test_periodic_bytes_frozen(tmp_path, name):
    # The count and angle-pair bytes were written by one certification
    # walk per n, the reference for the retiring lockstep over a range
    # of n; the lattice bytes by the search that enumerated the lattice
    # once for lambda and again for delta.
    raw = run_to(tmp_path, name, PERIODIC_ARGV[name])
    assert raw == (PERIODIC_DATA / name).read_bytes()


BIRKHOFF_DATA = Path(__file__).parent / "data" / "birkhoff"
BIRKHOFF_ARGV = {
    "bounces_100.csv": ["birkhoff", "--c", "0.6", "--s", "0.62",
                        "--bounces", "100"],
    "window_3.csv": ["birkhoff", "--c", "0.6", "--s", "0.62", "--window", "3"],
    "moebius_fit_7.json": ["moebius-fit", "--c", "0.6", "--s", "0.62",
                           "--n", "7"],
    "poncelet_7.json": ["poncelet", "--c", "0.6", "--rot", "1/7",
                        "--starts", "20"],
}


@pytest.mark.parametrize("name", sorted(BIRKHOFF_ARGV))
def test_birkhoff_bytes_frozen(tmp_path, name):
    # The README invocations.  The plain sums were written before window
    # sums were walked by time reversal, which left them unchanged; the
    # window sums and the fit were written by the time-reversed walk,
    # once it matched a 40-digit mpmath walk (tests/test_oracles.py).
    raw = run_to(tmp_path, name, BIRKHOFF_ARGV[name])
    assert raw == (BIRKHOFF_DATA / name).read_bytes()


_DEGENERATE = {"birkhoff --window": "window sum undefined on a degenerate caustic",
               "birkhoff --bounces": "Birkhoff sum undefined on a degenerate caustic",
               "moebius-fit --n": "window sum undefined on a degenerate caustic"}
_UNREACHABLE = "caustic not reachable from this boundary point"


@pytest.mark.parametrize("s,command,message", [
    *(("0.36", cmd, msg) for cmd, msg in _DEGENERATE.items()),
    *(("1.0", cmd, msg) for cmd, msg in _DEGENERATE.items()
      if cmd != "moebius-fit --n"),
    ("1.0", "moebius-fit --n", "caustic is periodic of order dividing n; "
                               "the window sum degenerates to a constant"),
    *((repr(1 - 1e-10), cmd, msg) for cmd, msg in _DEGENERATE.items()),
    ("0.0", "birkhoff --window", _UNREACHABLE),
    ("0.0", "birkhoff --bounces", _UNREACHABLE),
    ("0.0", "moebius-fit --n", "lambda must be positive"),
    *(("0.126", cmd, _UNREACHABLE) for cmd in _DEGENERATE),
])
def test_birkhoff_refusals(capsys, s, command, message):
    # Every row of these caustics is refused; the first row's error is
    # reported.
    words = command.split()
    argv = [words[0], "--c", "0.6", "--s", s, words[1],
            "5" if words[0] == "moebius-fit" or words[1] == "--bounces" else "2"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": message}


@pytest.mark.parametrize("argv,message", [
    (["--s", "0.62", "--window", "2", "--num", "0"], "--num must be >= 1"),
    # A bad size is met in the first row, unless that row is unreachable.
    (["--s", "0.36", "--bounces", "0"], "need at least one bounce"),
    (["--s", "0.36", "--window", "-1"], "window half-width must be >= 0"),
    (["--s", "0.126", "--bounces", "0"], _UNREACHABLE),
    (["--s", "0.126", "--window", "-1"], _UNREACHABLE),
])
def test_birkhoff_refusals_in_row_order(capsys, argv, message):
    assert main(["birkhoff", "--c", "0.6"] + argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": message}


@pytest.mark.parametrize("s", ["0.36000000036", "0.36000000036000024"])
def test_birkhoff_just_above_the_focal_band(tmp_path, s):
    # classify_caustic calls these s elliptic, so every row is summed,
    # whatever the caustic of each row's rounded chord.
    raw = run_to(tmp_path, "b.csv", ["birkhoff", "--c", "0.6", "--s", s,
                                     "--bounces", "3"])
    assert len(raw.decode().splitlines()) == 2 + 64


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
    # Exact inputs that are not exact: a zero denominator, a pair with a
    # non-integral part, a range that is not an integer, a boolean (not
    # read as 1), and rows given as strings (not read digit by digit).
    good = {"matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
            "lines": [[0, 1, -1], [1, 1, 0], [1, 1, 1]], "range": 5}
    for key, value, error in (
            ("matrix", [["1/0", 1, 0], [0, 1, 0], [0, 0, 2]], "ValueError"),
            ("lines", [[0, 1, -1], [[1, 0], 1, 0], [1, 1, 1]], "ValueError"),
            ("matrix", [[[1.5, 2], 1, 0], [0, 1, 0], [0, 0, 2]], "TypeError"),
            ("range", 2.5, "TypeError"),
            ("range", "5/2", "ValueError"),
            ("matrix", [[True, 1, 0], [0, 1, 0], [0, 0, 2]], "TypeError"),
            ("range", True, "TypeError"),
            ("matrix", ["200", "030", "001"], "TypeError"),
            ("lines", [[0, 1, -1], "110", [1, 1, 1]], "TypeError")):
        inp.write_text(json.dumps(dict(good, **{key: value})))
        assert main(["dml", "search", "--input", str(inp)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error


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


def test_render_draws_elliptic_and_focal_caustics(tmp_path):
    # A horizontal chord through (0, 0.5) is tangent to the confocal
    # ellipse s = c^2 + 0.25; a chord through the focus has the foci as
    # its caustic.
    argv = ["render", "--c", "0.6", "--bounces", "3"]
    svg = run_to(tmp_path, "e.svg", argv + ["--x", "0", "--y", "0.5",
                                            "--slope", "0"]).decode()
    assert (f'<ellipse cx="0" cy="0" rx="{math.sqrt(0.61):.6f}" ry="0.500000" '
            'stroke="steelblue"') in svg
    svg = run_to(tmp_path, "f.svg", argv + ["--x", "0.6", "--y", "0",
                                            "--slope", "0.7"]).decode()
    for cx in ("0.600000", "-0.600000"):
        assert (f'<circle cx="{cx}" cy="0" r="0.015" fill="steelblue"/>'
                in svg)


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
    assert main(["poncelet", "--c", "0.6", "--rot", "1/0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    for command in ("simulate", "render"):  # a start outside the table
        for x in ("2", "nan"):
            assert main([command, "--c", "0.6", "--x", x, "--y", "0",
                         "--slope", "0", "--bounces", "3"]) == 2
            assert json.loads(capsys.readouterr().err) == {
                "error": "ValueError",
                "message": "shot starts outside the table"}, (command, x)
    # Non-finite input: a NaN angle, tau, caustic or hole, a NaN or
    # infinite direction or one whose squared length underflows to zero.
    # A start that never enters the table: from the boundary point
    # (0.6, 0.64) the direction (0.6, 0.8) points out of it, and at
    # (1, 0) the vertical is tangent (render's inward orientation leaves
    # a tangent as it is).
    for argv, message in (
            (["lattice-pairs", "--tau-re", "0.0", "--tau-im", "1.0",
              "--alpha", "nan"], "alpha must lie in (0, pi)"),
            *((["lattice-pairs", "--tau-re", re, "--tau-im", im, "--alpha",
                "1.0"], "tau must be finite")
              for re, im in (("nan", "1.0"), ("0.0", "nan"), ("0.0", "inf"))),
            (["moebius-fit", "--c", "0.6", "--s", "nan", "--n", "7"],
             "lambda must be positive"),
            (SCAN_ARGV["hole"] + ["--hx", "nan"], "h must lie on the boundary"),
            *((["simulate", "--c", "0.6", "--x", "0.2", "--y", "0.3",
                "--vx", vx, "--vy", vy], "shot direction must be nonzero and finite")
              for vx, vy in (("inf", "1"), ("nan", "1"), ("1e-200", "0"))),
            *(([command, "--c", "0.6", "--x", x, "--y", y, *direction,
                "--bounces", "3"], "shot never enters the table")
              for command, x, y, direction in (
                  ("simulate", "0.6", "0.64", ["--vx", "0.6", "--vy", "0.8"]),
                  ("simulate", "1", "0", ["--vx", "0", "--vy", "1"]),
                  ("render", "1", "0", ["--slope", "inf"])))):
        assert main(argv) == 2, argv
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": message}, argv
    # JSON artifacts are strict: a tolerance echoed as Infinity refuses
    # the run, and nothing is written.
    assert main(SCAN_ARGV["boomerang"] + ["--tol", "inf"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and json.loads(out.err)["error"] == "ValueError"


def test_an_inward_start_from_the_boundary_keeps_its_bytes(tmp_path):
    # The digests of these artifacts before starts were tested for entry.
    for argv, digest in (
            (["simulate", "--c", "0.6", "--x", "0.6", "--y", "0.64",
              "--vx", "-0.6", "--vy", "-0.8", "--bounces", "3"],
             "ec10e66a3bd7f6950654ee8c21f62611ba775bfc5663645343508c8d7470d7ba"),
            (["render", "--c", "0.6", "--x", "0.6", "--y", "0.64",
              "--slope", "1.3333333333333333", "--bounces", "3"],
             "a0ca68a42af73334f6eaa3c89710430cd560ee73556f244a8990f51aba6fe626")):
        raw = run_to(tmp_path, "a.out", argv)
        assert hashlib.sha256(raw).hexdigest() == digest, argv


def test_connect_that_does_not_converge_exits_two(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise ConvergenceError("length maximization did not converge", None)
    monkeypatch.setattr(orbits, "connecting_trajectory", refuse)
    assert main(["connect", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
                 "--x2", "-0.3", "--y2", "0.1", "--n", "3"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConvergenceError",
        "message": "length maximization did not converge"}


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
    *((["scan-angle-pair", "--c", "0.6", "--px", "0.2", "--py", "0.3",
        "--alpha", "2.6608", "--nmax", nmax], "angle-pair scan needs n_max >= 2")
      for nmax in ("1", "0", "-3")),
    *((SCAN_ARGV[name] + ["--nmax", nmax], "passage scan needs n_max >= 2")
      for name in ("boomerang", "hole") for nmax in ("1", "0", "-3")),
    *((SCAN_ARGV[name] + [f"--tol={tol}"], "passage scan needs tol > 0")
      for name in ("boomerang", "hole") for tol in ("-0.05", "0", "nan")),
    *((PERIODIC_ARGV["angle_pair.json"] + [f"--tol={tol}"],
       "angle-pair scan needs tol > 0") for tol in ("-1e-6", "0", "nan")),
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
# scipy.optimize or scipy.integrate, which only the quadrature references
# need.  Importing caustica or caustica.cli loads no library module;
# each subcommand loads only the modules it calls (LOADS).  `dml
# classify` on any spectrum (the README's rational one and, as an extra
# job, the irreducible cubic t^3 - 2) and a `dml search` with too few
# hits for a family run on the standard library alone: numpy is
# imported only to screen the exponential family fits.
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
    PERIODIC_ARGV["angle_pair.json"],
    PERIODIC_ARGV["lattice_square.json"],
    ["render", "--c", "0.6", "--x", "0.2", "--y", "0.3", "--slope", "0.7"],
    ["dml", "classify", "--input", "{input}"],
    ["dml", "search", "--input", "{input}"],
]
R_F_USERS = {"count-periodic", "find-periodic", "poncelet", "moebius-fit",
             "scan-angle-pair"}
_ORBITS = ["_roots", "cli", "conics", "orbits", "periods"]
LOADS = {
    "simulate": ["cli", "conics"],
    "render": ["cli", "conics"],
    "betti-scan": ["_roots", "cli", "conics", "periods"],
    "birkhoff": ["_roots", "birkhoff", "cli", "conics", "periods"],
    "moebius-fit": ["_roots", "birkhoff", "cli", "conics", "periods"],
    **dict.fromkeys(["count-periodic", "find-periodic", "connect", "poncelet",
                     "scan-boomerang", "scan-hole", "scan-angle-pair",
                     "lattice-pairs"], _ORBITS),
    "dml": ["cli", "dml"],
}
_GUARD = """
import json, sys
def loaded():
    return sorted(m[len("caustica."):] for m in sys.modules
                  if m.startswith("caustica."))
import caustica
bare = loaded()
import caustica.cli
with_cli = loaded()
rc = caustica.cli.main(json.loads(sys.argv[1]))
scipy = ("scipy", "scipy.special", "scipy.optimize", "scipy.integrate")
print(json.dumps([rc, [m for m in scipy if m in sys.modules],
                  [bare, with_cli, loaded()], "numpy" in sys.modules,
                  [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


def _guarded_run(argv, src):
    """(exit code, which of scipy and its special/optimize/integrate
    modules are loaded, the caustica submodules loaded after `import
    caustica`, after `import caustica.cli` and after the run, whether
    numpy is loaded, which of dataclasses and inspect are loaded) for
    one CLI run in a fresh interpreter."""
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
    sparse = ["dml", "search", "--input", str(DML_DATA / "sparse.input.json")]
    cubic_inp = tmp_path / "cubic.json"
    cubic_inp.write_text(json.dumps({"matrix": [[0, 0, 2], [1, 0, 0], [0, 1, 0]]}))
    cubic = ["dml", "classify", "--input", str(cubic_inp)]
    extra = [sparse, cubic,
             ["connect", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
              "--x2", "-0.3", "--y2", "0.1", "--n", "12"],
             ["betti-scan", "--c", "0.6", "--lmin", "1.1", "--lmax", "2.5",
              "--num", "101"]]
    argvs = [[a.format(input=inp) for a in argv] for argv in README_ARGV + extra]
    jobs = [argv + ["--out", str(tmp_path / f"{i}.out")]
            for i, argv in enumerate(argvs)]
    src = Path(caustica.__file__).resolve().parents[1]
    # Two interpreters at a time; each job writes only its own artifact.
    with ThreadPoolExecutor(max_workers=2) as pool:
        report = list(pool.map(lambda job: _guarded_run(job, src), jobs))
    for argv, (rc, _, (bare, with_cli, after), _, _) in zip(argvs, report):
        assert rc == 0, argv
        assert bare == [] and with_cli == ["cli"], argv
        assert after == LOADS[argv[0]], argv
    for argv, (_, loaded, _, numpy, _) in zip(README_ARGV, report):
        assert loaded == (["scipy", "scipy.special"] if argv[0] in R_F_USERS else []), argv
        if argv[:2] == ["dml", "classify"]:
            assert not numpy, argv
    assert report[len(README_ARGV)][3] is False, sparse
    assert report[len(README_ARGV) + 1][3] is False, cubic
    # Every library record is a named tuple; numpy does not import
    # dataclasses and scipy.special does, so a run without scipy loads none.
    for argv, (_, loaded, _, _, stdlib) in zip(argvs, report):
        if not loaded:
            assert "dataclasses" not in stdlib, argv
    # connect climbs by in-repo Newton steps; betti-scan evaluates the
    # closed form, not the quadrature reference.
    (_, after_connect, *_), (_, after_betti, *_) = report[-2:]
    assert after_connect == []
    assert after_betti == ["scipy", "scipy.special"]


def test_dml_starts_without_dataclasses(tmp_path):
    # dml's records are named tuples, so a cold dml run on the standard
    # library loads neither dataclasses nor the inspect module it imports.
    cubic = tmp_path / "cubic.json"
    cubic.write_text(json.dumps({"matrix": [[0, 0, 2], [1, 0, 0], [0, 1, 0]]}))
    src = Path(caustica.__file__).resolve().parents[1]
    for i, argv in enumerate((
            ["dml", "search", "--input", str(DML_DATA / "sparse.input.json")],
            ["dml", "classify", "--input", str(cubic)])):
        rc, _, _, numpy, stdlib = _guarded_run(
            argv + ["--out", str(tmp_path / f"{i}.json")], src)
        assert (rc, numpy, stdlib) == (0, False, []), argv


def _subparsers(ap):
    """The parsers of ap's subcommands, by name."""
    return next(a.choices for a in ap._actions
                if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("word", cli._NAMES)
def test_one_command_parser_prints_as_the_full_parser(word, monkeypatch):
    # main parses a run with the parser of its command alone.  Its usage
    # line, and the usage and help of the command and of its own
    # subcommands, are those of the full parser; the top-level help,
    # which lists every command, comes only from the full parser.
    monkeypatch.setenv("COLUMNS", "80")
    full, one = build_parser(), build_parser(word)
    assert one is not full and list(_subparsers(one)) == [word]
    assert one.format_usage() == full.format_usage()
    todo = [(_subparsers(full)[word], _subparsers(one)[word])]
    while todo:
        want, got = todo.pop()
        assert got.format_usage() == want.format_usage()
        assert got.format_help() == want.format_help()
        if got._subparsers is not None:
            todo.extend(zip(_subparsers(want).values(),
                            _subparsers(got).values()))


def test_unknown_flag_after_a_command_prints_the_full_usage(capsys,
                                                            monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(["count-periodic", "--bogus", "1"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == (
        "usage: caustica [-h]\n"
        "                {simulate,betti-scan,count-periodic,find-periodic,"
        "connect,poncelet,birkhoff,moebius-fit,scan-boomerang,scan-hole,"
        "scan-angle-pair,lattice-pairs,dml,render}\n"
        "                ...\n"
        "caustica: error: unrecognized arguments: --bogus 1\n")


def test_dropping_a_required_flag_exits_two(capsys):
    # Each valid invocation less one flag that the table marks _REQUIRED
    # is refused by name before its subcommand runs.
    valid = README_ARGV + [
        ["betti-scan", "--c", "0.6", "--lmin", "1.1", "--lmax", "2.5"],
        ["connect", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
         "--x2", "-0.3", "--y2", "0.1", "--n", "12"]]
    flags = {words: flags for words, func, _, flags in _COMMANDS if func}
    covered = set()
    for argv in valid:
        words = tuple(argv[:2] if argv[0] == "dml" else argv[:1])
        covered.add(words)
        for name, _, default, *_ in flags[words]:
            if default is not _REQUIRED:
                continue
            i = argv.index(f"--{name}")
            assert main(argv[:i] + argv[i + 2:]) == 2, (argv, name)
            assert json.loads(capsys.readouterr().err) == {
                "error": "ValueError",
                "message": f"missing required option --{name}"}, (argv, name)
    assert covered == flags.keys()


def test_every_readme_artifact_names_its_words(tmp_path):
    # An artifact names its subcommand by the words _COMMANDS declares:
    # the CSV comment line, the JSON "command" and the SVG comment.
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps({
        "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
        "lines": [[0, 1, -1], [1, 1, 0], [1, 1, 1]], "range": 25}))
    table = {words for words, func, _, _ in _COMMANDS if func}
    for i, argv in enumerate(README_ARGV):
        argv = [a.format(input=inp) for a in argv]
        words = tuple(itertools.takewhile(lambda a: not a.startswith("--"),
                                          argv))
        assert words in table, argv
        name = " ".join(words)
        text = run_to(tmp_path, f"{i}.out", argv).decode()
        if text.startswith("{"):
            assert json.loads(text)["command"] == name, argv
        elif text.startswith("#"):
            assert text.splitlines()[0] == f"# caustica {name} seed=0", argv
        else:
            assert f"<!-- caustica {name} seed=0 -->" in text, argv


def test_every_handler_is_declared_once():
    handlers = [func for _, func, _, _ in _COMMANDS if func]
    assert all(getattr(cli, func.__name__) is func for func in handlers)
    assert sorted(func.__name__ for func in handlers) == sorted(
        name for name in vars(cli) if name.startswith("_cmd_"))


def test_every_public_name_resolves():
    assert caustica.__all__ == sorted(set(caustica.__all__))
    for name in caustica.__all__:
        obj = getattr(caustica, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(caustica.__all__) <= set(dir(caustica))
    with pytest.raises(AttributeError):
        caustica.no_such_name


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
