import numpy as np
import pytest

import habitopt.market
import habitopt.solvers


def _count_calls(monkeypatch, module, name="linprog"):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def market_lps(monkeypatch):
    """A list that grows by one entry per no-arbitrage LP solved in ``habitopt.market``."""
    return _count_calls(monkeypatch, habitopt.market)


@pytest.fixture
def market_certificates(monkeypatch):
    """A list that grows by one entry per aggregate deflator that ``check_no_arbitrage``
    tries as its no-arbitrage certificate."""
    return _count_calls(monkeypatch, habitopt.market, "_certified_aggregate")


@pytest.fixture
def solver_lps(monkeypatch):
    """A list that grows by one entry per cold start in ``habitopt.solvers``: a
    strictly admissible starting point built without a warm start
    (``_interior_start``)."""
    return _count_calls(monkeypatch, habitopt.solvers, "_interior_start")


@pytest.fixture
def shuffled_prefs():
    """Two-lag habits with floors on a T=3 tree whose atoms are not in parent order.

    Level-1 atoms are listed against leaf order and level-2 atoms alternate
    parents, so positions inside a subtree differ from atom indices.
    """
    from habitopt import HabitPreferences, PowerUtility, build_tree

    t = build_tree([[list(range(8))], [[4, 5, 6, 7], [0, 1, 2, 3]],
                    [[0, 1], [4, 5], [2, 3], [6, 7]], [[i] for i in range(8)]],
                   [0.05, 0.1, 0.15, 0.2, 0.1, 0.2, 0.12, 0.08])
    beta = np.zeros((4, 4))
    beta[1, 0] = beta[2, 1] = beta[3, 2] = 0.4
    beta[2, 0] = beta[3, 1] = 0.15
    h = [np.zeros(1), np.array([0.01, 0.02]), np.arange(4) * 0.01, np.arange(8) * 0.005]
    return HabitPreferences(t, PowerUtility(2.0, T=3), beta, h)
