"""Per-layer spans recorded from outside the program.

``instrument(tracer)`` rebinds the program's cross-module names (for
example ``caustica.orbits.advance`` or ``caustica.periods.BettiModel.beta2``)
to timing wrappers and returns a function that restores them.  A name
the program no longer has is listed in ``tracer.absent`` and skipped.

Each wrapper records a span: name, start, end, parent and self time
(duration minus the time of its child spans).  Bounce-level leaves are
aggregated per (name, parent name) instead, so memory stays bounded on
millions of bounces.  Wrappers cost one attribute test while the tracer
is inactive, which is how the untimed checks and untraced passes run.
"""

import importlib
import inspect
import time
from collections import defaultdict

from checks import CERT_TOL

_now = time.perf_counter

# Metrics that are counts (or functions of counts) and must repeat
# exactly between traced passes and runs with the same seed.
EXACT = (
    "conics.bounces", "periods.beta2.calls", "periods.model_build.calls",
    "periods.betti_billiard.calls", "orbits.root_solves",
    "orbits.root_solve.failed", "orbits.certify.attempts",
    "orbits.certify.accept_ratio", "orbits.certify.worst_margin",
    "orbits.min_scalar.calls", "birkhoff.window_sums", "dml.cells",
    "dml.hits", "dml.max_entry_bits", "cli.jobs",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.absent = []
        self.spans = []  # (name, start, end, parent index, self seconds)
        self.leaves = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, s]
        self.counters = defaultdict(float)
        self.stack = [["pass", 0.0, -1]]  # open frames: [name, child s, index]

    def reset(self):
        """Forget recorded spans; wrappers keep references to these
        containers, so they are cleared in place."""
        self.spans.clear()
        self.leaves.clear()
        self.counters.clear()
        del self.stack[1:]
        self.stack[0][1] = 0.0

    def wrap(self, target, name, leaf=False, hook=None):
        """A function that calls target inside a span while active.
        hook(counters, args, kwargs, result, exc) sees every call."""
        stack, leaves, spans = self.stack, self.leaves, self.spans

        if leaf:
            def wrapper(*a, **k):
                if not self.active:
                    return target(*a, **k)
                t0 = _now()
                try:
                    return target(*a, **k)
                finally:
                    dt = _now() - t0
                    top = stack[-1]
                    top[1] += dt
                    rec = leaves[(name, top[0])]
                    rec[0] += 1
                    rec[1] += dt
            return wrapper

        def wrapper(*a, **k):
            if not self.active:
                return target(*a, **k)
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            frame = [name, 0.0, idx]
            stack.append(frame)
            result = exc = None
            t0 = _now()
            try:
                result = target(*a, **k)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                t1 = _now()
                stack.pop()
                parent[1] += t1 - t0
                spans[idx] = (name, t0, t1, parent[2], t1 - t0 - frame[1])
                if hook is not None:
                    hook(self.counters, a, k, result, exc)
        return wrapper

    def totals(self):
        """name -> [calls, seconds, self seconds] over spans and leaves."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, t0, t1, _, self_s in self.spans:
            rec = out[name]
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += self_s
        for (name, _), (calls, secs) in self.leaves.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += secs
            rec[2] += secs
        return out


def _on_root_solve(counters, a, k, result, exc):
    if isinstance(exc, ValueError):
        counters["root_solve.failed"] += 1


def _on_closure(counters, a, k, result, exc):
    if exc is None:
        counters["certify.attempts"] += 1
        if result < CERT_TOL:
            counters["certify.accepted"] += 1
            counters["certify.worst"] = max(counters["certify.worst"], result)


def _on_dml_search(counters, a, k, result, exc):
    N = a[4] if len(a) > 4 else k["N"]
    counters["dml.cells"] += (2 * N + 1) ** 2
    if exc is None:
        counters["dml.hits"] += len(result)
        bits = max((abs(int(x)).bit_length() for h in result for x in h.P),
                   default=0)
        counters["dml.max_entry_bits"] = max(counters["dml.max_entry_bits"], bits)


# (owner, attribute, span name, leaf, hook)
_LAYERS = [
    *((f"caustica.{mod}", fn, f"conics.{fn}", True, None)
      for mod, fns in (("conics", ("advance", "first_hit")),
                       ("orbits", ("advance", "first_hit")),
                       ("periods", ("advance",)),
                       ("birkhoff", ("advance", "first_hit")))
      for fn in fns),
    ("caustica.periods.BettiModel", "beta2", "periods.beta2", True, None),
    ("caustica.periods.BettiModel", "__init__", "periods.model_build", True, None),
    ("caustica.periods", "betti_billiard", "periods.betti_billiard", True, None),
    ("caustica.orbits", "brentq", "orbits.root_solve", False, _on_root_solve),
    ("caustica.orbits", "closure_error", "orbits.certify", False, _on_closure),
    ("caustica.orbits", "minimize_scalar", "orbits.min_scalar", True, None),
    ("caustica.birkhoff", "symmetric_sum", "birkhoff.window_sum", False, None),
    ("caustica.cli", "symmetric_sum", "birkhoff.window_sum", False, None),
    ("caustica.dml", "triple_orbit_search", "dml.search", False, _on_dml_search),
    ("caustica.cli", "triple_orbit_search", "dml.search", False, _on_dml_search),
]


def _resolve(path):
    """Object at a dotted path, or None if any part is missing."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
            break
        except ImportError:
            continue
    else:
        return None
    for part in parts[i:]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def install(tracer, layers):
    """Rebind each (owner, attr, name, leaf, hook); returns the undo list."""
    undo = []
    for owner_path, attr, name, leaf, hook in layers:
        owner = _resolve(owner_path)
        target = getattr(owner, attr, None) if owner is not None else None
        if target is None or (attr == "__init__" and attr not in vars(owner)):
            tracer.absent.append(f"{owner_path}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(target, name, leaf, hook))
        undo.append((owner, attr, target))
    return undo


def instrument(tracer):
    """Wrap every layer boundary, then every library function the CLI
    module calls (spans "lib.<name>"), so that cli.main's self time is
    the CLI's own work.  Returns a function restoring the program."""
    undo = install(tracer, _LAYERS)
    cli = _resolve("caustica.cli")
    if cli is not None:
        lib = [("caustica.cli", name, f"lib.{name}", False, None)
               for name, fn in sorted(vars(cli).items())
               if inspect.isfunction(fn)
               and fn.__module__.startswith("caustica.")
               and fn.__module__ != "caustica.cli"]
        undo += install(tracer, lib)

    def restore():
        for owner, attr, target in reversed(undo):
            setattr(owner, attr, target)
    return restore


def _per(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(tracer, wall, scale=1.0):
    """Per-layer metrics of one traced pass lasting `wall` seconds, times
    multiplied by `scale` (reference-CPU seconds per wall-clock second).
    A layer the pass never entered reports 0 for its rates."""
    us, ms = 1e6 * scale, 1e3 * scale
    t = tracer.totals()
    c = tracer.counters
    bounces = t["conics.advance"][0] + t["conics.first_hit"][0]
    bounce_s = t["conics.advance"][2] + t["conics.first_hit"][2]
    cells = c["dml.cells"]
    attempts = c["certify.attempts"]
    return {
        "conics.bounces": bounces,
        "conics.us_per_bounce": _per(bounce_s, bounces, us),
        "conics.self_share": _per(bounce_s, wall),
        "periods.beta2.calls": t["periods.beta2"][0],
        "periods.beta2.us_per_call": _per(t["periods.beta2"][1], t["periods.beta2"][0], us),
        "periods.model_build.calls": t["periods.model_build"][0],
        "periods.model_build.ms_per_call": _per(t["periods.model_build"][1],
                                                t["periods.model_build"][0], ms),
        "periods.betti_billiard.calls": t["periods.betti_billiard"][0],
        "periods.betti_billiard.us_per_call": _per(t["periods.betti_billiard"][1],
                                                   t["periods.betti_billiard"][0], us),
        "orbits.root_solves": t["orbits.root_solve"][0],
        "orbits.root_solve.self_us": _per(t["orbits.root_solve"][2],
                                          t["orbits.root_solve"][0], us),
        "orbits.root_solve.failed": int(c["root_solve.failed"]),
        "orbits.certify.attempts": int(attempts),
        "orbits.certify.accept_ratio": _per(c["certify.accepted"], attempts),
        "orbits.certify.worst_margin": c["certify.worst"] / CERT_TOL,
        "orbits.min_scalar.calls": t["orbits.min_scalar"][0],
        "orbits.min_scalar.us_per_call": _per(t["orbits.min_scalar"][1],
                                              t["orbits.min_scalar"][0], us),
        "birkhoff.window_sums": t["birkhoff.window_sum"][0],
        "birkhoff.us_per_window_sum": _per(t["birkhoff.window_sum"][1],
                                           t["birkhoff.window_sum"][0], us),
        "dml.cells": int(cells),
        "dml.us_per_cell": _per(t["dml.search"][1], cells, us),
        "dml.hits": int(c["dml.hits"]),
        "dml.max_entry_bits": int(c["dml.max_entry_bits"]),
        "cli.jobs": t["cli.main"][0],
        "cli.self_ms_per_job": _per(t["cli.main"][2], t["cli.main"][0], ms),
    }
