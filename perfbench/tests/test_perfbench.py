"""Tests of the benchmark itself: deterministic generators, checks that
reject corrupted artifacts, and trace targets that have gone missing.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import caustica  # noqa: E402
import caustica.cli  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("count", "scan", "orbit", "exact")


def _records(workload, seed):
    jobs, setup = workloads.generate(workload, seed)
    return [j.record() for j in jobs], [j.record() for j in setup]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = _records(workload, 7)
    assert first == _records(workload, 7)
    assert first != _records(workload, 8)
    assert len(first[0]) >= 100


def test_count_points_avoid_axes_and_foci():
    jobs, _ = workloads.generate("count", 3)
    for job in jobs:
        p = job.params
        assert abs(p["px"]) > 0.01 and abs(p["py"]) > 0.01
        assert p["px"] ** 2 + p["py"] ** 2 / (1 - p["c"] ** 2) < 1
        caustica.predicted_count(caustica.Ellipse(p["c"]), (p["px"], p["py"]), 3)


def _artifact(tmp_path, job):
    out = tmp_path / "a.out"
    inp = tmp_path / "a.in.json"
    inp.write_text(json.dumps(workloads.dml_input(job))
                   if job.kind == "dml-search" else "{}")
    assert caustica.cli.main(workloads.argv(job, out, inp)) == 0
    return out.read_text()


def test_odd_count_off_by_five_is_rejected(tmp_path):
    job = workloads.Job("count-periodic", {"c": 0.6, "px": 0.2, "py": 0.3,
                                           "nmin": 25, "nmax": 25})
    text = _artifact(tmp_path, job)
    assert checks.check(job, text) == []
    row = text.splitlines()[-1]
    n, parity, count, pred = row.split(",")
    bad = text.replace(row, ",".join([n, parity, str(int(count) + 5), pred]))
    assert checks.check(job, bad)


def test_find_periodic_wrong_direction_is_rejected(tmp_path):
    job = workloads.Job("find-periodic", {"c": 0.6, "px": 0.2, "py": 0.3,
                                          "n": 7})
    text = _artifact(tmp_path, job)
    assert checks.check(job, text) == []
    doc = json.loads(text)
    vx, vy = doc["results"][0]["direction"]
    doc["results"][0]["direction"] = [vx * 0.9999 - vy * 0.0141, vy * 0.9999 + vx * 0.0141]
    assert checks.check(job, json.dumps(doc))


def test_dml_point_moved_by_one_is_rejected(tmp_path):
    job = workloads.Job("dml-search", dict(workloads.CRITERION_9[0]))
    text = _artifact(tmp_path, job)
    assert checks.check(job, text) == []
    doc = json.loads(text)
    doc["hits"][0]["P"][0] += 1
    assert checks.check(job, json.dumps(doc))


def test_dml_missing_family_member_is_rejected(tmp_path):
    job = workloads.Job("dml-search", dict(workloads.CRITERION_9[0]))
    doc = json.loads(_artifact(tmp_path, job))
    doc["hits"] = [h for h in doc["hits"] if (h["m"], h["n"]) != (11, 3)]
    assert checks.check(job, json.dumps(doc))


def test_scan_hit_moved_is_rejected(tmp_path):
    job = workloads.Job("scan-boomerang", {"c": 0.6, "px": 0.2, "py": 0.3,
                                           "nmax": 5, "grid": 256, "tol": 1e-7})
    doc = json.loads(_artifact(tmp_path, job))
    assert doc["results"] and checks.check(job, json.dumps(doc)) == []
    vx, vy = doc["results"][0]["direction"]
    doc["results"][0]["direction"] = [vx - 1e-4 * vy, vy + 1e-4 * vx]
    assert checks.check(job, json.dumps(doc))


def test_negative_exponent_coordinate_reaches_the_program(tmp_path):
    # str(-1.9164e-05) looks like an option to argparse when it stands alone.
    job = workloads.Job("scan-boomerang", {"c": 0.396821, "px": -0.315304531,
                                           "py": -1.9164e-05, "nmax": 2,
                                           "grid": 64, "tol": 1e-7})
    assert checks.check(job, _artifact(tmp_path, job)) == []


def test_refused_command_line_is_a_failed_job_not_a_stop(tmp_path):
    import run
    job = workloads.Job("scan-boomerang", {"c": "not-a-number", "px": 0.2, "py": 0.3,
                                           "nmax": 2, "grid": 64, "tol": 1e-7})
    result = run.Runner(tmp_path, tracing.Tracer()).run(job, "bad")
    assert result.text is None and result.error.startswith("SystemExit")


def test_rotation_far_from_beta2_is_rejected():
    job = workloads.Job("rotation", {"c": 0.6, "s": 0.8, "n_iter": 2000})
    rot = caustica.rotation_number(caustica.Ellipse(0.6), 0.8, 2000)
    assert checks.check(job, repr(rot)) == []
    assert checks.check(job, repr(rot + 2e-3))


def test_beta2_oracle_matches_quadrature_route():
    e = caustica.Ellipse(0.6)
    for lam in (0.3, 0.9, 1.2, 2.7):
        assert abs(checks.beta2(0.6, lam) - caustica.betti_billiard(e, lam).beta2) < 1e-9


def test_malformed_artifact_is_a_problem_not_a_crash():
    job = workloads.Job("connect", {"c": 0.6, "x1": 0.1, "y1": 0.2, "x2": -0.3,
                                    "y2": 0.1, "n": 3, "seed": 0})
    assert checks.check(job, "not json")


def test_missing_trace_target_is_reported_absent():
    tracer = tracing.Tracer()
    owner = types.SimpleNamespace(present=lambda x: x + 1)
    sys.modules["perfbench_fake"] = owner
    try:
        undo = tracing.install(tracer, [
            ("perfbench_fake", "present", "fake.present", True, None),
            ("perfbench_fake", "gone", "fake.gone", True, None),
            ("caustica.no_such_module", "advance", "x.advance", True, None),
        ])
    finally:
        del sys.modules["perfbench_fake"]
    assert tracer.absent == ["perfbench_fake.gone", "caustica.no_such_module.advance"]
    tracer.active = True
    assert owner.present(1) == 2
    assert tracer.totals()["fake.present"][0] == 1
    for obj, attr, target in undo:
        setattr(obj, attr, target)


def test_spans_record_parent_and_self_time():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: None, "leaf", leaf=True)

    def outer_fn():
        leaf()
        leaf()
    outer = tracer.wrap(outer_fn, "outer")
    tracer.active = True
    outer()
    (name, t0, t1, parent, self_s), = tracer.spans
    assert (name, parent) == ("outer", -1)
    assert tracer.leaves[("leaf", "outer")][0] == 2
    assert 0.0 <= self_s <= t1 - t0
