import pytest

import habitopt.market


@pytest.fixture
def market_lps(monkeypatch):
    """A list that grows by one entry per no-arbitrage LP solved in ``habitopt.market``."""
    calls = []
    real = habitopt.market.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(habitopt.market, "linprog", counted)
    return calls
