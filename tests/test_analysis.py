import json

import numpy as np
import pytest

from habitopt import (
    GenerationExhausted,
    HabitPreferences,
    LogUtility,
    MarketModel,
    PowerUtility,
    Scenario,
    WrongMarketClass,
    WrongUtilityFamily,
    build_tree,
    classify_market,
    concavity_probe,
    counterexample_51,
    envelope_check,
    eta_bound_check,
    generate_scenario,
    linearity_law_check,
    monotonicity_probe,
    policy_bound,
    policy_bound_chain,
    spd_bundle,
    wealth_sweep,
)


@pytest.fixture
def det1():
    return build_tree([[[0]], [[0]]], [1.0])


# ---------------------------------------------------------------------------
# policy slope bounds
# ---------------------------------------------------------------------------

def test_bound_forms_agree():
    sc = generate_scenario(51, "bond_only", habit="two_lag")
    spd = spd_bundle(sc.market, sc.prefs.beta)
    direct = policy_bound(spd)
    chained = policy_bound_chain(sc.tree, spd, sc.prefs.beta)
    for k in range(sc.tree.T + 1):
        assert np.allclose(direct[k], chained[k], atol=1e-12)


def test_slope_hand_value(det1):
    b = 0.5
    m = MarketModel(det1, [0.0])
    p = HabitPreferences.one_lag(det1, LogUtility(), b)
    probe = monotonicity_probe(m, p, [np.array([2.0]), np.zeros(1)], k=0)
    assert probe.within
    # c0(w) = w / (2 + 2b) exactly, so the central difference is the slope
    assert probe.estimates[0] == pytest.approx(1 / (2 + 2 * b), abs=1e-8)
    assert probe.richardson[0] < 1e-6


def test_terminal_slope_is_one():
    sc = generate_scenario(52, "bond_only", utility="log", habit="one_lag")
    T = sc.tree.T
    probe = monotonicity_probe(sc.market, sc.prefs, sc.eps, k=T,
                               witness=sc.witness)
    assert probe.within
    assert np.allclose(probe.estimates, 1.0, atol=1e-9)
    assert np.allclose(probe.bounds, 1.0, atol=1e-12)


def test_slope_probe_on_idiosyncratic_market():
    sc = generate_scenario(53, "idiosyncratic", utility="power", habit="one_lag")
    probe = monotonicity_probe(sc.market, sc.prefs, sc.eps, k=1,
                               witness=sc.witness)
    assert probe.scope == "in_scope"
    assert probe.market_kind == "idiosyncratic"
    assert probe.within


def test_out_of_scope_probe_warns_but_runs():
    sc = generate_scenario(54, "general", utility="power", habit="one_lag")
    with pytest.warns(WrongMarketClass):
        probe = monotonicity_probe(sc.market, sc.prefs, sc.eps, k=0)
    assert probe.scope == "out_of_scope"
    assert probe.estimates.size == 1


def test_concavity_flat_for_uniform_power():
    sc = generate_scenario(55, "complete", utility="power", habit="one_lag",
                           floors=False)
    probe = concavity_probe(sc.market, sc.prefs, sc.eps, k=0)
    assert probe.kind == "curvature"
    assert probe.within
    # consumption is exactly linear in wealth here
    assert np.all(np.abs(probe.estimates) < 1e-6)


def test_concavity_warns_on_mixed_aversion():
    # with per-period exponents the policy can curve either way, so the probe
    # flags the family while still reporting what it measured
    sc = generate_scenario(56, "bond_only", utility="power_hetero",
                           habit="none", floors=False)
    with pytest.warns(WrongUtilityFamily):
        probe = concavity_probe(sc.market, sc.prefs, sc.eps, k=0)
    assert probe.scope == "out_of_scope"
    assert probe.estimates.size == 1


@pytest.mark.filterwarnings("ignore:concavity in wealth")
@pytest.mark.parametrize("seed, utility, habit", [(55, None, None), (56, None, None),
                                                  (520, None, None),
                                                  (57, "power_hetero", "one_lag")])
@pytest.mark.parametrize("probe", [monotonicity_probe, concavity_probe])
def test_closed_probes_match_newton(seed, utility, habit, probe):
    # 55 draws an exponential family, 56 and 520 power families (520 with
    # floors); only mixed aversion makes the policy nonlinear in wealth, so
    # that its slopes depend on the consumption history of the node
    sc = generate_scenario(seed, "complete", utility=utility, habit=habit)
    for k in (0, 1):
        closed = probe(sc.market, sc.prefs, sc.eps, k, method="closed")
        newton = probe(sc.market, sc.prefs, sc.eps, k, method="newton")
        assert closed.details["method"] == "closed"
        assert np.allclose(closed.estimates, newton.estimates, rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# wealth response to past consumption
# ---------------------------------------------------------------------------

def test_eta_bound_satisfied_and_terminal_formula():
    sc = generate_scenario(56, "complete", utility="power", habit="one_lag",
                           floors=False)
    T = sc.tree.T
    report = eta_bound_check(sc.market, sc.prefs, sc.eps, k=T - 1)
    assert report.satisfied
    assert report.base_residual < 1e-6
    formula = report.details["terminal_formula"]
    for key, est in report.estimates.items():
        assert est >= report.bounds[key] - 1e-5
        assert est == pytest.approx(formula[key], rel=1e-3, abs=1e-5)


def test_eta_bound_rejects_terminal_level():
    sc = generate_scenario(56, "complete", utility="power", habit="one_lag",
                           floors=False)
    from habitopt import PreconditionViolated
    with pytest.raises(PreconditionViolated):
        eta_bound_check(sc.market, sc.prefs, sc.eps, k=sc.tree.T)


# ---------------------------------------------------------------------------
# envelope and linearity
# ---------------------------------------------------------------------------

def test_envelope_hand_value(det1):
    eps0 = 2.0
    m = MarketModel(det1, [0.0])
    p = HabitPreferences.one_lag(det1, LogUtility(), 1.0)
    report = envelope_check(m, p, [np.array([eps0]), np.zeros(1)])
    # V(e) = 2 log e - log 8, so V'(eps0) = 2 / eps0, and the time-0
    # habit-adjusted marginal of the optimum matches it
    assert report.marginal == pytest.approx(2 / eps0, abs=1e-9)
    assert report.gap < 1e-5 * report.scale


def test_envelope_on_generated_instance():
    sc = generate_scenario(57, "bond_only", utility="power", habit="two_lag")
    report = envelope_check(sc.market, sc.prefs, sc.eps)
    assert report.gap < 1e-5 * report.scale


def test_linearity_table():
    report = linearity_law_check()
    assert report.max_gap < 1e-10
    assert len(report.rows) == 12
    log_rows = [r for r in report.rows if r["gamma"] == 1.0]
    assert all(r["share"] == pytest.approx(0.5, abs=1e-10) for r in log_rows)
    assert all(r["predicted"] == 0.5 for r in log_rows)


# ---------------------------------------------------------------------------
# the convex-policy example
# ---------------------------------------------------------------------------

def test_counterexample_deterministic():
    report = counterexample_51()
    assert report.corrected_c0 == pytest.approx((7 - np.sqrt(13)) / 4, abs=1e-12)
    assert report.gap_corrected < 1e-9
    assert report.gap_published > 0.15
    assert report.published_c0 == pytest.approx(1.0, abs=1e-12)
    assert report.increasing
    assert report.slope_below_one
    assert report.convex


def test_counterexample_random_deflator():
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.2, 2.0, 3)
    probs = rng.uniform(0.2, 1.0, 3)
    probs /= probs.sum()
    report = counterexample_51(m1_values=vals, probs=probs)
    assert report.gap_corrected < 1e-9
    assert report.gap_published > 1e-3
    assert report.increasing and report.convex


# ---------------------------------------------------------------------------
# endowment sweeps
# ---------------------------------------------------------------------------

def test_sweep_linear_when_scale_free():
    sc = generate_scenario(58, "general", utility="power", habit="one_lag",
                           floors=False)
    t = sc.tree
    eps = [np.zeros(t.n_atoms(k)) for k in range(t.T + 1)]
    eps[0][0] = 1.0
    rows = wealth_sweep(sc.market, sc.prefs, eps, 1.0, 2.0, 5)
    assert len(rows) == 5
    shares = [r["c0"] / r["eps0"] for r in rows]
    assert np.allclose(shares, shares[0], atol=1e-9)
    for r in rows[1:-1]:
        assert abs(r["d2c0"]) < 1e-6
    assert rows[0]["dc0"] is None and rows[-1]["dc0"] is None
    assert all(len(r["per_period_U"]) == t.T + 1 for r in rows)


def test_sweep_convex_on_counterexample(det1):
    from habitopt.analysis import _log_over_reciprocal_family
    m = MarketModel(det1, [0.0])
    p = HabitPreferences.one_lag(det1, _log_over_reciprocal_family(), 1.0)
    rows = wealth_sweep(m, p, [np.ones(1), np.zeros(1)], 1.0, 6.0, 11)
    for r in rows[1:-1]:
        assert r["d2c0"] > 0


def test_sweep_keeps_failed_rows():
    sc = generate_scenario(59, "complete", utility="power", habit="one_lag",
                           floors=True)
    t = sc.tree
    # with no income later, a tiny initial endowment cannot even fund the
    # exogenous floors, so the low end of the grid must fail
    eps = [np.ones(1)] + [np.zeros(t.n_atoms(k)) for k in range(1, t.T + 1)]
    rows = wealth_sweep(sc.market, sc.prefs, eps, 1e-6, 2.0, 6)
    assert len(rows) == 6
    statuses = {r["status"] for r in rows}
    assert any(s.startswith("failed") for s in statuses)
    assert "ok" in statuses
    for i, r in enumerate(rows):
        if r["status"] != "ok":
            assert r["c0"] is None and r["dc0"] is None
            if i + 1 < len(rows):
                assert rows[i + 1]["dc0"] is None


def test_sweep_runs_the_deflator_lp_once(market_lps):
    sc = generate_scenario(41, "complete", utility="power", habit="one_lag")
    rows = wealth_sweep(sc.market, sc.prefs, sc.eps, 1.0, 2.0, 5)
    assert [r["status"] for r in rows] == ["ok"] * 5
    assert len(market_lps) == 1


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def test_generation_deterministic():
    a = generate_scenario(60, "idiosyncratic")
    b = generate_scenario(60, "idiosyncratic")
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


@pytest.mark.parametrize("family,kind", [
    ("complete", "complete"),
    ("bond_only", "type_c"),
    ("general", "general"),
    ("idiosyncratic", "idiosyncratic"),
])
def test_families_classify_as_advertised(family, kind):
    sc = generate_scenario(61, family)
    cls = classify_market(sc.market, sc.witness)
    assert cls.kind == kind
    assert sc.meta["family"] == family


def test_scenario_json_round_trip():
    sc = generate_scenario(62, "idiosyncratic")
    again = Scenario.from_json(json.loads(json.dumps(sc.to_json())))
    assert again.tree.levels == sc.tree.levels
    assert np.allclose(again.tree.probs, sc.tree.probs)
    assert again.witness == sc.witness
    assert np.array_equal(again.prefs.beta, sc.prefs.beta)
    for k in range(sc.tree.T + 1):
        assert np.allclose(again.eps[k], sc.eps[k])


def test_generation_exhausts_on_impossible_ask():
    # two branches with one risky asset span everything, so no draw can
    # produce a genuinely incomplete "general" market
    with pytest.raises(GenerationExhausted):
        generate_scenario(63, "general", branching=2, max_tries=3)
