import pytest

import habitopt.market
import habitopt.solvers


def _count_linprog(monkeypatch, module):
    calls = []
    real = module.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "linprog", counted)
    return calls


@pytest.fixture
def market_lps(monkeypatch):
    """A list that grows by one entry per no-arbitrage LP solved in ``habitopt.market``."""
    return _count_linprog(monkeypatch, habitopt.market)


@pytest.fixture
def solver_lps(monkeypatch):
    """A list that grows by one entry per interior-start LP solved in ``habitopt.solvers``."""
    return _count_linprog(monkeypatch, habitopt.solvers)
