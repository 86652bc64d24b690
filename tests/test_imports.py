"""Cold start: habitopt imports scipy only where a command calls it."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import habitopt
from habitopt import _scipy
from habitopt.cli import main

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


def _newton_modules(tmp_path, capsys, family: str, utility: str) -> list[str]:
    """The scipy modules of a fresh ``solve --method newton`` on a generated T=2 instance."""
    files = _generate(tmp_path, capsys, "--seed", "1", "--family", family, "--T", "2",
                      "--utility", utility, "--habit", "one_lag")
    loaded = _fresh_modules("from habitopt import cli; "
                            "assert cli.main(['solve', *sys.argv[2:], "
                            "'--method', 'newton']) == 0", *files)
    assert "scipy.linalg" in loaded
    return loaded


def test_newton_without_a_start_lp_loads_only_scipy_linalg(tmp_path, capsys):
    # exponential utility has no Inada condition, so Newton starts from zero holdings
    loaded = _newton_modules(tmp_path, capsys, "bond_only", "exp")
    assert not [m for m in loaded if m.startswith(("scipy.optimize", "scipy.sparse"))]


def test_power_newton_loads_scipy_linalg_only(tmp_path, capsys):
    # the Inada start superhedges node by node: no start LP, so no scipy.optimize
    loaded = _newton_modules(tmp_path, capsys, "general", "power")
    assert not [m for m in loaded if m.startswith(("scipy.optimize", "scipy.sparse"))]


def test_cholesky_of_an_indefinite_matrix_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        _scipy.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), lower=True)


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
    H = np.array([[4.0, 1.0], [1.0, 3.0]])
    cf = _scipy.cho_factor(H, lower=True)
    ref = scipy.linalg.cho_factor(H, lower=True)
    assert np.array_equal(cf[0], ref[0]) and cf[1] == ref[1]
    g = np.array([1.0, -2.0])
    assert np.array_equal(_scipy.cho_solve(cf, g), scipy.linalg.cho_solve(ref, g))
    G = np.array([[1.0, 0.5], [-2.0, 3.0]])
    assert np.array_equal(_scipy.cho_solve(cf, G), scipy.linalg.cho_solve(ref, G))


@pytest.mark.parametrize("module, names", [("market", ("linprog",)),
                                           ("solvers", ("linprog", "cho_factor", "cho_solve",
                                                        "brentq", "minimize")),
                                           ("analysis", ("brentq",))])
def test_modules_bind_the_lazy_entry_points(module, names):
    # a module-level name per entry point, for tests and tracing to rebind
    mod = getattr(habitopt, module)
    for name in names:
        assert getattr(mod, name) is getattr(_scipy, name)
