"""The scipy entry points habitopt calls, each importing its scipy module on first call.

Importing ``scipy.optimize`` (which pulls in ``scipy.linalg`` and
``scipy.sparse``) takes most of a cold ``import habitopt``, while many
commands -- ``validate`` on its default path among them -- never call it.
``market``, ``solvers`` and ``analysis`` bind these functions under scipy's
names and call them through their module globals, so a command loads only
the scipy modules it uses, and tests and tracing can rebind them there.
"""

from __future__ import annotations

import importlib

__all__ = ["brentq", "cho_factor", "cho_solve", "coo_array", "linprog", "minimize"]


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
cho_factor = _on_first_call("scipy.linalg", "cho_factor")
cho_solve = _on_first_call("scipy.linalg", "cho_solve")
coo_array = _on_first_call("scipy.sparse", "coo_array")
