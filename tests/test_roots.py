"""The in-repo Brent solver against scipy.optimize.brentq, its oracle."""

import math

import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import caustica.orbits
import caustica.periods
from caustica import Ellipse, count_periodic
from caustica._roots import brentq
from caustica.cli import main

E = Ellipse(0.6)
P0 = (0.2, 0.3)


def _outcome(solve, f, a, b, args, kwargs):
    """The root, or the type and message of the error raised."""
    try:
        return solve(f, a, b, args=args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class _Oracle:
    """Stands in for a module's brentq: solves every bracket with both
    solvers, keeps the pairs, and returns (or raises) the port's result.
    End values the caller supplies go to the port alone, and each is
    kept beside the value f returns there."""

    def __init__(self):
        self.pairs = []
        self.supplied = []

    def __call__(self, f, a, b, args=(), fa=None, fb=None, **kwargs):
        ours = _outcome(brentq, f, a, b, args, dict(kwargs, fa=fa, fb=fb))
        ref = _outcome(scipy.optimize.brentq, f, a, b, args, kwargs)
        self.pairs.append((ours, ref))
        self.supplied += [(float(v), float(f(x, *args)))
                          for v, x in ((fa, a), (fb, b)) if v is not None]
        if isinstance(ours, tuple):
            raise ours[0](ours[1])
        return ours


def _assert_bitwise(pairs):
    for ours, ref in pairs:
        assert type(ours) is type(ref)
        if isinstance(ours, float):
            assert ours.hex() == ref.hex()
        else:
            assert ours == ref


def test_beta2_brackets_match_scipy(monkeypatch):
    oracle = _Oracle()
    monkeypatch.setattr(caustica.periods, "brentq", oracle)
    for n in range(3, 121):
        count_periodic(E, P0, n)
    assert len(oracle.pairs) > 1500
    _assert_bitwise(oracle.pairs)
    # Every level hands the solver beta2 at its bracket ends, from the
    # view of p: they are f's, bit for bit.
    assert len(oracle.supplied) > 1500
    assert all(v.hex() == fx.hex() for v, fx in oracle.supplied)


@pytest.mark.parametrize("argv", [
    ["scan-boomerang", "--c", "0.6", "--px", "0.2", "--py", "0.3",
     "--nmax", "6", "--tol", "1e-7"],
    ["scan-hole", "--c", "0.6", "--x1", "0.1", "--y1", "0.2",
     "--x2", "-0.3", "--y2", "0.1", "--hx", "1.0", "--hy", "0.0",
     "--nmax", "8", "--tol", "0.05"],
], ids=["boomerang", "hole"])
def test_scan_brackets_match_scipy(monkeypatch, tmp_path, argv):
    oracle = _Oracle()
    monkeypatch.setattr(caustica.orbits, "brentq", oracle)
    assert main(argv + ["--out", str(tmp_path / "scan.json")]) == 0
    assert len(oracle.pairs) > 50
    _assert_bitwise(oracle.pairs)
    # The scan hands the solver its grid values: they are f's, bit for bit.
    assert len(oracle.supplied) > 50
    assert all(v.hex() == fx.hex() for v, fx in oracle.supplied)


@settings(max_examples=300, deadline=None)
@given(root=st.floats(-10.0, 10.0),
       left=st.floats(1e-6, 10.0), right=st.floats(1e-6, 10.0),
       scale=st.floats(1e-3, 1e3), power=st.sampled_from([1, 3, 5]),
       xtol=st.sampled_from([2e-12, 1e-15, 1e-8]))
def test_monotone_functions_match_scipy(root, left, right, scale, power, xtol):
    def f(x, k):
        return scale * (x - root) ** k + math.atan(x - root)

    a, b = root - left, root + right
    ours = brentq(f, a, b, args=(power,), xtol=xtol)
    ref = scipy.optimize.brentq(f, a, b, args=(power,), xtol=xtol)
    assert ours.hex() == ref.hex()
    supplied = brentq(f, a, b, args=(power,), xtol=xtol,
                      fa=f(a, power), fb=f(b, power))
    assert supplied.hex() == ref.hex()
    assert type(ours) is float
    assert a <= ours <= b


def test_same_sign_ends_raise():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_nan_evaluation_raises():
    def f(x):
        return x - 0.3 if abs(x) > 0.9 else math.nan

    with pytest.raises(ValueError, match="NaN"):
        brentq(f, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan, 0.0, 1.0)


def test_supplied_nan_end_value_raises_as_evaluated():
    def nan_at(end):
        return lambda x: math.nan if x == end else x - 0.5

    for key, end in (("fa", 0.0), ("fb", 1.0)):
        want = _outcome(brentq, nan_at(end), 0.0, 1.0, (), {})
        got = _outcome(brentq, lambda x: x - 0.5, 0.0, 1.0, (), {key: math.nan})
        assert got[0] is ValueError and got == want


def test_exact_endpoint_root_is_returned_as_is():
    assert brentq(lambda x: x - 0.25, 0.25, 3.0) == 0.25
    assert brentq(lambda x: x - 3.0, 0.25, 3.0) == 3.0
    root = brentq(lambda x: x * x - 2.0, 1, 2)  # integer ends
    assert type(root) is float
    assert root == scipy.optimize.brentq(lambda x: x * x - 2.0, 1, 2)


def test_non_convergence_raises():
    def f(x):
        return math.tan(x)  # the pole at pi/2 is bracketed, not a root

    ref = _outcome(scipy.optimize.brentq, f, 1.0, 2.0, (), {"maxiter": 5})
    assert ref[0] is RuntimeError
    assert _outcome(brentq, f, 1.0, 2.0, (), {"maxiter": 5}) == ref
