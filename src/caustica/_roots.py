"""Brent's bracketed root finder, scalar and in pure Python.

A port of the iteration of scipy.optimize.brentq (its C brentq.c, after
R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
ch. 4): the same arithmetic in the same order, the same defaults and the
same errors, so it returns the same double bit for bit.  It keeps the
program free of scipy.optimize, which only the two quadrature
references load, through scipy.integrate.
"""

import math
import sys

_XTOL = 2e-12
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def _checked(fx, x):
    fx = float(fx)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f, a, b, args=(), xtol=_XTOL, maxiter=_MAXITER, fa=None, fb=None):
    """Root of f(x, *args) in the bracket [a, b], as a float.

    fa and fb, when given, stand for f(a) and f(b), which are then not
    evaluated; given as the values f returns, they change no bit of the
    result.  Raises ValueError when f(a) and f(b) have the same sign or
    any value of f is NaN, and RuntimeError after maxiter iterations
    without convergence to xtol + _RTOL |x|.
    """
    if not isinstance(args, tuple):
        args = (args,)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(f(xpre, *args) if fa is None else fa, xpre)
    fcur = _checked(f(xcur, *args) if fb is None else fb, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    rtol = _RTOL
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(f(xcur, *args), xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
