"""Cold start: habitopt imports scipy only where a command calls it."""

import contextlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import habitopt
from habitopt import _scipy, solvers
from habitopt.analysis import generate_scenario
from habitopt.cli import main
from habitopt.errors import Infeasible, NonConvergence

SRC = str(Path(habitopt.__file__).resolve().parent.parent)
HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.linalg")


def _fresh_modules(code: str, *args: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    script = ("import sys; sys.path.insert(0, sys.argv[1]); " + code +
              "; print(__import__('json').dumps(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", script, SRC, *args], check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def _generate(tmp_path, capsys, *argv) -> list[str]:
    out = tmp_path / "inst"
    assert main(["generate", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    return [flag for name in ("model", "prefs", "endow")
            for flag in (f"--{name}", str(out / f"{name}.json"))]


def test_import_loads_no_scipy():
    assert _fresh_modules("import habitopt") == []


def test_validate_loads_no_scipy_solver(tmp_path, capsys):
    files = _generate(tmp_path, capsys, "--seed", "1", "--family", "complete", "--T", "3",
                      "--utility", "power", "--habit", "one_lag")
    loaded = _fresh_modules("from habitopt import cli; "
                            "assert cli.main(['validate', '--model', sys.argv[2]]) == 0",
                            files[1])
    assert not [m for m in loaded if m.startswith(HEAVY)]


def _newton_modules(tmp_path, capsys, family: str, utility: str, T: int) -> list[str]:
    """The scipy modules of a fresh ``solve --method newton`` on a generated instance."""
    files = _generate(tmp_path, capsys, "--seed", "1", "--family", family, "--T", str(T),
                      "--utility", utility, "--habit", "one_lag")
    return _fresh_modules("from habitopt import cli; "
                          "assert cli.main(['solve', *sys.argv[2:], "
                          "'--method', 'newton']) == 0", *files)


def test_newton_without_a_start_lp_loads_no_scipy(tmp_path, capsys):
    # exponential utility has no Inada condition, so Newton starts from zero holdings
    assert _newton_modules(tmp_path, capsys, "bond_only", "exp", 2) == []


def test_power_newton_loads_no_scipy(tmp_path, capsys):
    # the Inada start superhedges node by node with no LP, and Newton factors by
    # numpy's Cholesky, on a dense top alone (T=2) and below the cut (T=6)
    for T in (2, 6):
        assert _newton_modules(tmp_path / str(T), capsys, "general", "power", T) == []


def _closed_modules(tmp_path, capsys, utility: str, *command: str) -> list[str]:
    """The scipy modules of a fresh closed-form ``command`` on a generated complete instance."""
    files = _generate(tmp_path, capsys, "--seed", "1", "--family", "complete", "--T", "3",
                      "--utility", utility, "--habit", "one_lag")
    return _fresh_modules("from habitopt import cli; "
                          f"assert cli.main([*{list(command)!r}, *sys.argv[2:]]) == 0", *files)


def test_closed_solve_loads_no_scipy(tmp_path, capsys):
    # Brent's root-finder is written out, so the closed form needs no scipy
    assert _closed_modules(tmp_path, capsys, "power", "solve", "--method", "closed") == []


def test_closed_sweep_on_the_continuation_form_loads_no_scipy(tmp_path, capsys):
    # complete exponential takes _CompleteContinuation's root-find at every grid point
    assert _closed_modules(tmp_path, capsys, "exp", "sweep", "--range", "0.5:4:5") == []


def test_closed_verify_loads_no_scipy(tmp_path, capsys):
    # the responses' factor and the envelope check's Newton runs factor by numpy's
    # Cholesky; nothing else loads scipy
    assert _closed_modules(tmp_path, capsys, "power", "verify", "--checks",
                           "monotonicity,eta,concavity,envelope,foc") == []


def test_lazy_entry_points_return_what_scipy_returns():
    def gap(z):
        return z ** 3 - 2.0

    assert _scipy.brentq(gap, 0.0, 2.0, xtol=1e-14) == scipy.optimize.brentq(gap, 0.0, 2.0,
                                                                              xtol=1e-14)
    lp = dict(A_ub=np.array([[1.0, 2.0], [3.0, 1.0]]), b_ub=np.array([4.0, 5.0]),
              bounds=[(0, None)] * 2, method="highs")
    c = np.array([-1.0, -1.0])
    assert np.array_equal(_scipy.linprog(c, **lp).x, scipy.optimize.linprog(c, **lp).x)

    def bowl(y):
        return float((y[0] - 1.0) ** 2 + 2.0 * (y[1] + 0.5) ** 2)

    mine = _scipy.minimize(bowl, np.zeros(2), method="Powell")
    assert np.array_equal(mine.x, scipy.optimize.minimize(bowl, np.zeros(2),
                                                          method="Powell").x)


def _evaluations(root_finder, f, *args, **kwargs):
    """``root_finder``'s result (or its exception's type and message) and the
    points where it evaluated ``f``."""
    xs = []

    def traced(x):
        xs.append(x)
        return f(x)

    try:
        return root_finder(traced, *args, **kwargs), xs
    except (ValueError, RuntimeError) as err:
        return (type(err), str(err)), xs


def _budget_brackets(monkeypatch) -> list[tuple]:
    """Every ``(gap, lo, hi, tolerances)`` that ``solvers._budget_root`` hands to
    ``brentq`` while the closed forms of generated complete instances solve at
    several time-0 endowments.  The Inada forms also solve at the endowments
    that put the root at ``1e-13 * 1e-4**j``, so their brackets reach down to
    ``1e-12 * 1e-4**(j+1)``.  A solve may end in Infeasible (no bracket) or
    NonConvergence (a root too close to zero to meet the gap tolerance) after
    its brackets are recorded."""
    brackets = []

    def recording(gap, lo, hi, **tolerances):
        brackets.append((gap, lo, hi, tolerances))
        return scipy.optimize.brentq(gap, lo, hi, **tolerances)

    monkeypatch.setattr(solvers, "brentq", recording)
    for utility in ("power", "log", "power_hetero", "exp"):
        for T in range(1, 5):
            for floors in (False,) if utility == "exp" else (False, True):
                sc = generate_scenario(1, "complete", T, utility=utility, habit="one_lag",
                                       floors=floors)
                form = solvers._closed_form(sc.market, sc.prefs, sc.eps, "closed")
                e0 = float(sc.eps[0][0])
                first = len(brackets)
                for e in (-4.0 * e0, 0.25 * e0, 4.0 * e0, 100.0 * e0, e0):
                    with contextlib.suppress(Infeasible, NonConvergence):
                        form.solve(e)
                if sc.prefs.family.inada:
                    # the gap at e0 is zero at the root; e0 plus its value at z
                    # moves the root to z
                    gap = brackets[-1][0]
                    for j in range(4):
                        with contextlib.suppress(Infeasible, NonConvergence):
                            form.solve(e0 + gap(1e-13 * 1e-4 ** j))
                assert len(brackets) > first
    return brackets


def test_brentq_takes_scipys_iterates_on_every_budget_bracket(monkeypatch):
    brackets = _budget_brackets(monkeypatch)
    deepest = [1e-12]
    for _ in range(4):
        deepest.append(deepest[-1] * 1e-4)
    assert set(deepest) <= {lo for _, lo, _, _ in brackets}
    assert min(lo for _, lo, _, _ in brackets) < -1.0       # exponential's doubled brackets
    for gap, lo, hi, tolerances in brackets:
        mine = _evaluations(_scipy.brentq, gap, lo, hi, **tolerances)
        assert mine == _evaluations(scipy.optimize.brentq, gap, lo, hi, **tolerances)


@pytest.mark.parametrize("f, kwargs, outcome", [
    (lambda x: x - 0.3, {"xtol": 0.0}, ValueError),
    (lambda x: x - 0.3, {"rtol": 1e-16}, ValueError),
    (lambda x: x - 0.3, {"maxiter": -1}, ValueError),
    (lambda x: math.nan if x > 0.5 else x - 0.3, {}, ValueError),
    (lambda x: x + 1.0, {}, ValueError),
    (lambda x: x ** 3 - 0.3, {"maxiter": 3}, RuntimeError),
    (lambda x: x, {}, 0.0),
    (lambda x: x - 1.0, {}, 1.0),
    (lambda x: (x - 0.3) ** 3 * 1e-170, {}, None),
    (lambda x: -math.inf if x < 0.25 else x - 0.3, {}, None),
    (lambda x: round(x - 0.3, 3), {"xtol": 1e-14, "rtol": 8.9e-16}, None),
    (lambda x: 1.0 if x > 0.3 else -1.0, {}, None),
])
def test_brentq_matches_scipy_at_the_edges(f, kwargs, outcome):
    # bad tolerances, NaN, no sign change and too few iterations raise what
    # scipy raises; an endpoint root is returned exactly; underflowing
    # products, infinities, flat steps and ties in |f| take scipy's iterates
    mine = _evaluations(_scipy.brentq, f, 0.0, 1.0, **kwargs)
    assert mine == _evaluations(scipy.optimize.brentq, f, 0.0, 1.0, **kwargs)
    if isinstance(outcome, type):
        assert mine[0][0] is outcome
    elif outcome is not None:
        assert mine[0] == outcome and mine[1] == [0.0, 1.0]


@pytest.mark.parametrize("module, names", [("market", ("linprog",)),
                                           ("solvers", ("linprog", "cho_factor", "cho_solve",
                                                        "brentq", "minimize")),
                                           ("analysis", ("brentq",))])
def test_modules_bind_the_lazy_entry_points(module, names):
    # a module-level name per entry point, for tests and tracing to rebind
    mod = getattr(habitopt, module)
    for name in names:
        assert getattr(mod, name) is getattr(_scipy, name)
