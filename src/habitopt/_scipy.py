"""The scipy entry points habitopt calls, each importing its scipy module on first call.

Importing ``scipy.optimize`` (which pulls in ``scipy.linalg`` and
``scipy.sparse``) takes most of a cold ``import habitopt``, while many
commands -- ``validate`` on its default path among them -- never call it.
``market``, ``solvers`` and ``analysis`` bind these functions under scipy's
names and call them through their module globals, so a command loads only
the scipy modules it uses, and tests and tracing can rebind them there.
``cho_factor`` and ``cho_solve`` call LAPACK's ``dpotrf``/``dpotrs``
themselves: scipy's wrappers return the same bits but cost several times the
small factorizations Newton makes.
"""

from __future__ import annotations

import functools
import importlib

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


brentq = _on_first_call("scipy.optimize", "brentq")
linprog = _on_first_call("scipy.optimize", "linprog")
minimize = _on_first_call("scipy.optimize", "minimize")


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

