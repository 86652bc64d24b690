"""The scipy entry points habitopt calls; each scipy module loads on first use.

Importing ``scipy.optimize`` (which pulls in ``scipy.linalg`` and
``scipy.sparse``) takes most of a cold ``import habitopt``, while many
commands -- ``validate`` on its default path among them -- never call it.
``market``, ``solvers`` and ``analysis`` bind these functions under scipy's
names and call them through their module globals, so a command loads only
the scipy modules it uses, and tests and tracing can rebind them there.
``brentq`` is Brent's method written out as scipy's C routine takes it, so it
returns scipy's root bit for bit: it is the only ``scipy.optimize`` call of the
closed forms, and importing any part of ``scipy.optimize`` runs the whole
package ``__init__`` (about 45 MiB and 0.3 s per process).  ``cho_factor``
and ``cho_solve`` call LAPACK's ``dpotrf``/``dpotrs`` themselves: scipy's
wrappers return the same bits but cost several times the small
factorizations Newton makes.
"""

from __future__ import annotations

import functools
import importlib
import math
import operator

import numpy as np

__all__ = ["brentq", "cho_factor", "cho_solve", "linprog", "minimize"]


def _on_first_call(module: str, name: str):
    """A function that imports ``module`` when first called and calls ``module.name``."""
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``{module}.{name}``, imported on first call."
    return call


linprog = _on_first_call("scipy.optimize", "linprog")
minimize = _on_first_call("scipy.optimize", "minimize")


_RTOL = 4 * float(np.finfo(float).eps)


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL, maxiter=100):
    """``scipy.optimize.brentq``: a root of ``f`` in ``[a, b]`` by Brent's
    method (Brent, *Algorithms for Minimization without Derivatives*, 1973,
    ch. 4) as scipy's C routine takes it: the same iterates, the same stop
    once half the bracket is below ``(xtol + rtol |x|) / 2``, the same return
    point and the same errors.  Raises ValueError for a bad tolerance, a NaN
    value of ``f`` or an unbracketed root, and RuntimeError after ``maxiter``
    iterations.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xtol, rtol = float(xtol), float(rtol)

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    # xcur is the best point, xblk the point across the sign change from it,
    # xpre the previous xcur; scur and spre are the last two steps
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # where den underflows to zero, C's step is infinite or NaN,
                # which the test below turns into a bisection
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


@functools.cache
def _lapack(name: str):
    """The LAPACK routine ``name`` of ``scipy.linalg.lapack``, imported on first use."""
    return getattr(importlib.import_module("scipy.linalg.lapack"), name)


def cho_factor(a, lower=False, overwrite_a=False, check_finite=True):
    """``scipy.linalg.cho_factor`` for float64 matrices, calling LAPACK ``dpotrf``
    directly: the same ``(c, lower)``, with ``c`` holding the factor in the
    ``lower`` or upper triangle and ``a``'s entries in the other.  Raises
    ``np.linalg.LinAlgError`` where LAPACK reports failure."""
    a = np.asarray_chkfinite(a, dtype=float) if check_finite else np.asarray(a, dtype=float)
    c, info = _lapack("dpotrf")(a, lower=lower, overwrite_a=overwrite_a, clean=False)
    if info:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite"
                                    if info > 0 else f"illegal argument {-info} to dpotrf")
    return c, lower


def cho_solve(c_and_lower, b, overwrite_b=False, check_finite=True):
    """``scipy.linalg.cho_solve`` for a float64 factor from ``cho_factor``,
    calling LAPACK ``dpotrs`` directly.  Raises ``np.linalg.LinAlgError``
    where LAPACK reports failure."""
    c, lower = c_and_lower
    b = np.asarray_chkfinite(b, dtype=float) if check_finite else np.asarray(b, dtype=float)
    x, info = _lapack("dpotrs")(c, b, lower=lower, overwrite_b=overwrite_b)
    if info:
        raise np.linalg.LinAlgError(f"illegal argument {-info} to dpotrs")
    return x

