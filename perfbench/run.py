"""caustica benchmark: one seeded workload, measured from outside.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Load model: one process, a closed loop running one job at a time with
--threads 1 and CAUSTICA_THREADS unset.  CLI jobs go through
caustica.cli.main(argv) in-process, each writing its artifact to a temp
file inside the checkout; `rotation` jobs call the library function.
After an untimed warm-up (the set-up calls), whole passes over the job
list run until another pass would overrun --seconds (at least three).
End-to-end times are in reference-CPU seconds (reference.py); the raw
wall-clock figures are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (see README.md).
Every artifact is checked after timing stops; the last line of standard
output is the JSON result.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from reference import reference_seconds, scaled

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3


def _spec():
    """Workload reasons and metric units, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({w["name"]: w["why"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})


def _machine():
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_start": [round(x, 2) for x in os.getloadavg()],
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


class Result(NamedTuple):
    seconds: float  # reference-CPU seconds
    raw: float      # wall-clock seconds
    text: str       # the artifact, or None if the job failed
    error: str      # why the job failed, or None


class Runner:
    """Runs jobs through the program, one at a time."""

    def __init__(self, tmp, tracer):
        import caustica.cli
        import caustica.periods
        import workloads
        self.tmp = tmp
        self.workloads = workloads
        self.main = tracer.wrap(caustica.cli.main, "cli.main")
        self.rotation = tracer.wrap(caustica.periods.rotation_number,
                                    "lib.rotation_number")
        self.ellipse = caustica.Ellipse
        self._inputs = {}

    def argv(self, job, tag):
        """CLI argv of a job; writes a dml input file once per job."""
        out = self.tmp / f"{tag}.out"
        inp = None
        if job.kind == "dml-search":
            inp = self._inputs.get(id(job))
            if inp is None:
                inp = self.tmp / f"{tag}.in.json"
                inp.write_text(json.dumps(self.workloads.dml_input(job)))
                self._inputs[id(job)] = inp
        return self.workloads.argv(job, out, inp), out

    def run(self, job, tag):
        """Run one job, timing the reference loop just before it."""
        ref = reference_seconds()
        if job.kind == "rotation":
            p = job.params
            e = self.ellipse(p["c"])
            call = lambda: repr(self.rotation(e, p["s"], p["n_iter"]))
        else:
            argv, out = self.argv(job, tag)
            call = lambda: self.main(argv)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                value = call()
            except (Exception, SystemExit) as exc:  # a failed job, not a stop
                value = exc
            dt = time.perf_counter() - t0
        text = error = None
        if isinstance(value, (Exception, SystemExit)):
            error = f"{type(value).__name__}: {value} {err.getvalue().strip()}".strip()
        elif job.kind == "rotation":
            text = value
        elif value != 0:
            error = err.getvalue().strip()
        else:
            text = out.read_text()
        return Result(scaled(dt, ref), dt, text, error)

    def run_pass(self, jobs):
        """One pass: (wall-clock seconds, [Result])."""
        t0 = time.perf_counter()
        results = [self.run(job, f"job{i}") for i, job in enumerate(jobs)]
        return time.perf_counter() - t0, results


def _setup_seconds(runner, setup_jobs):
    """Median over fresh processes of import + the set-up calls."""
    calls = [runner.argv(job, f"setup{i}")[0] for i, job in enumerate(setup_jobs)]
    calls_path = runner.tmp / "setup_calls.json"
    calls_path.write_text(json.dumps(calls))
    env = {k: v for k, v in os.environ.items() if k != "CAUSTICA_THREADS"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             str(calls_path)],
            capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        times.append(doc["seconds"])
        raw.append(doc["raw"])
    return statistics.median(times), statistics.median(raw)


def _judge(jobs, passes, check):
    """(failed count, wrong outputs?, failing job records).  A job fails
    in a pass when it is refused or raises, when its artifact fails its
    check, or when its bytes differ from its first pass."""
    failed, wrong, listing = 0, False, []
    for i, job in enumerate(jobs):
        first = None
        reasons = []
        problems_of = {}
        for k, (_, results) in enumerate(passes):
            text, error = results[i].text, results[i].error
            if error is not None:
                reasons.append(f"pass {k}: refused: {error}")
                continue
            if first is None:
                first = text
            problems = problems_of.get(text)
            if problems is None:
                problems = problems_of[text] = check(job, text)
            if text != first:
                problems = problems + ["bytes differ from the first pass"]
            if problems:
                wrong = True
                reasons.append(f"pass {k}: " + "; ".join(problems))
        if reasons:
            failed += len(reasons)
            listing.append({"job": job.record(), "reasons": reasons})
    return failed, wrong, listing


def _job_seconds(passes, field="seconds"):
    """Each job's median latency over passes: filters interference that
    hits one pass but not the others."""
    return [statistics.median(getattr(r, field) for r in runs)
            for runs in zip(*(results for _, results in passes))]


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(runner, jobs, setup_jobs, seconds):
    setup_s, setup_raw = _setup_seconds(runner, setup_jobs)
    for i, job in enumerate(setup_jobs):
        runner.run(job, f"setup{i}")
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(runner.run_pass(jobs))
        walls = [w for w, _ in passes]
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - t0 + statistics.median(walls) > seconds):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": setup_s, **_times(_job_seconds(passes)),
               "peak_rss_mb": rss_mb}
    raw = {"setup_s": setup_raw, **_times(_job_seconds(passes, "raw"))}
    return passes, metrics, raw, []


def _times(job_s):
    job_ms = [t * 1e3 for t in job_s]
    return {"wall_s": sum(job_s),
            "job_p50_ms": statistics.median(job_ms),
            "job_p90_ms": _quantile(job_ms, 90)}


def _scale(results):
    """Reference-CPU seconds per wall-clock second over some jobs."""
    return sum(r.seconds for r in results) / sum(r.raw for r in results)


def _per_layer(runner, tracer, jobs, setup_jobs, seconds):
    import tracing
    tracer.reset()
    tracer.active = True
    setup = [runner.run(job, f"setup{i}") for i, job in enumerate(setup_jobs)]
    tracer.active = False
    builds = tracing.layer_metrics(tracer, 1.0, _scale(setup))
    passes, plain, traced, traced_s = [], [], [], []
    t0 = time.perf_counter()
    while True:
        passes.append(runner.run_pass(jobs))
        plain.append(sum(r.seconds for r in passes[-1][1]))
        tracer.reset()
        tracer.active = True
        passes.append(runner.run_pass(jobs))
        tracer.active = False
        wall, results = passes[-1]
        traced_s.append(sum(r.seconds for r in results))
        traced.append(tracing.layer_metrics(tracer, wall, _scale(results)))
        if time.perf_counter() - t0 + passes[-2][0] + wall > seconds:
            break
    notes = []
    metrics = {}
    for name in traced[0]:
        vals = [m[name] for m in traced]
        if name in tracing.EXACT and len(set(vals)) > 1:
            notes.append(f"{name} differs between traced passes: {vals}")
        metrics[name] = vals[0] if name in tracing.EXACT else statistics.median(vals)
    # Lazy builds happen in set-up; report them together with the pass's.
    build = "periods.model_build"
    calls = builds[f"{build}.calls"] + metrics[f"{build}.calls"]
    ms = sum(m[f"{build}.calls"] * m[f"{build}.ms_per_call"] for m in (builds, metrics))
    metrics[f"{build}.calls"] = calls
    metrics[f"{build}.ms_per_call"] = ms / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain)
    return passes, metrics, None, notes


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None):
    whys, units = _spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(whys))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "caustica" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC / 'caustica'}\n")
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    os.environ.pop("CAUSTICA_THREADS", None)

    import checks
    import tracing
    import workloads

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {whys[args.workload]}")
    print("machine: " + json.dumps(_machine()))
    jobs, setup_jobs = workloads.generate(args.workload, args.seed)
    print("inputs: " + json.dumps({
        "seed": args.seed, "jobs": [j.record() for j in jobs],
        "setup": [j.record() for j in setup_jobs]}))

    tracer = tracing.Tracer()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp, tracer)
        if args.trace:
            restore = tracing.instrument(tracer)
            try:
                passes, metrics, raw, notes = _per_layer(
                    runner, tracer, jobs, setup_jobs, args.seconds)
            finally:
                restore()
            if tracer.absent:
                print("absent (not traced): " + ", ".join(tracer.absent))
        else:
            passes, metrics, raw, notes = _end_to_end(runner, jobs, setup_jobs,
                                                      args.seconds)
        failed, wrong, listing = _judge(jobs, passes, checks.check)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(jobs) * len(passes)
    print(f"passes: {len(passes)} of {len(jobs)} jobs, walls "
          + " ".join(f"{w:.3f}" for w, _ in passes) + " s")
    by_kind = {}
    for job, t in zip(jobs, _job_seconds(passes)):
        by_kind[job.kind] = by_kind.get(job.kind, 0.0) + t
    print("seconds per pass by job kind: " + ", ".join(
        f"{k} {v:.3f}" for k, v in by_kind.items()))
    if raw:
        print("raw wall-clock: " + ", ".join(f"{k} {_fmt(v)}" for k, v in raw.items()))
    for name, value in metrics.items():
        print(f"  {name:<36} {_fmt(value):>14} {units[name]}")
    print(f"  {'fail_ratio':<36} {_fmt(failed / attempted):>14} "
          f"({failed} of {attempted})")
    for note in notes:
        print(f"trace mismatch: {note}")
    for item in listing:
        print("failing job: " + json.dumps(item))
    print(json.dumps({
        "correct": not wrong and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
