import json

import numpy as np
import pytest
from scipy.optimize import root

import habitopt.analysis
import habitopt.solvers
from habitopt.analysis import _base_holdings
from habitopt.solvers import _CompleteContinuation, _complete_response, _subtree_atoms
from habitopt import (
    CustomUtility,
    GenerationExhausted,
    HabitOptError,
    HabitPreferences,
    LogUtility,
    MarketModel,
    NonConvergence,
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
    solve_auto,
    solve_general,
    solve_subproblem,
    spd_bundle,
    wealth_sweep,
)
from test_solvers import _pinned_instances


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


@pytest.mark.filterwarnings("ignore::habitopt.WrongMarketClass")
@pytest.mark.parametrize("family, T", [("complete", 2), ("bond_only", 3), ("general", 2),
                                       ("idiosyncratic", 2)])
def test_warm_started_probes_match_cold_starts(monkeypatch, family, T):
    sc = generate_scenario(3, family, T=T, utility="power", habit="one_lag")
    args = (sc.market, sc.prefs, sc.eps, 1)

    def run():
        return (monotonicity_probe(*args, method="newton"),
                concavity_probe(*args, method="newton"),
                eta_bound_check(sc.market, sc.prefs, sc.eps, 0))

    slope, curv, eta = run()
    monkeypatch.setattr(habitopt.analysis, "_base_holdings", lambda base, atoms: None)
    cold_slope, cold_curv, cold_eta = run()
    assert np.allclose(slope.estimates, cold_slope.estimates, rtol=0, atol=1e-9)
    assert np.all(np.abs(curv.estimates - cold_curv.estimates)
                  <= 1e-6 * curv.details["scales"])
    assert eta.estimates.keys() == cold_eta.estimates.keys()
    for key, est in eta.estimates.items():
        assert est == pytest.approx(cold_eta.estimates[key], rel=0, abs=1e-9)


@pytest.mark.filterwarnings("ignore::habitopt.WrongMarketClass")
def test_slope_probe_warm_starts_without_lps(solver_lps):
    sc = generate_scenario(1, "general", T=3, utility="power", habit="one_lag")
    base = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    solver_lps.clear()
    for k in range(sc.tree.T + 1):
        monotonicity_probe(sc.market, sc.prefs, sc.eps, k, base=base)
    # every re-solve starts from the base plan; before warm starts: 52 LPs
    assert len(solver_lps) == 0
    monotonicity_probe(sc.market, sc.prefs, sc.eps, 1)
    assert len(solver_lps) == 1


def _probe_by_differences(m, p, eps, k, base, curvature):
    """Reference probe estimates: differences of re-solved continuation plans.

    Each level-``k`` node is re-solved, warm-started from ``base``, at
    ``w +- d`` with ``d = max(1e-4, 1e-4 |w|)`` for the central difference of
    the slope, or at ``w`` and ``w +- d`` with ``d = max(5e-3, 5e-3 |w|)`` for
    the second difference.
    """
    t = m.tree
    cbase = [base.c.values(l) for l in range(t.T + 1)]
    out = []
    for a in range(t.n_atoms(k)):
        hist = [float(cbase[lev][t.ancestor(k, lev)[a]]) for lev in range(k)]
        w = float(eps[0][0]) if k == 0 else float(base.W.values(k)[a])

        def c(wealth):
            return solve_subproblem(m, p, eps, k, a, hist, wealth, gtol=1e-12,
                                    x0=_base_holdings(base, _subtree_atoms(t, k, a))).c[(k, a)]

        if curvature:
            d = max(5e-3, 5e-3 * abs(w))
            out.append((c(w + d) - 2.0 * c(w) + c(w - d)) / (d * d))
        else:
            d = max(1e-4, 1e-4 * abs(w))
            out.append((c(w + d) - c(w - d)) / (2 * d))
    return np.array(out)


@pytest.mark.filterwarnings("ignore::habitopt.WrongMarketClass")
def test_analytic_probes_match_finite_differences_on_pinned_markets(shuffled_prefs):
    # two-lag habits with floors on every family, and a tree whose atoms are
    # not in parent order
    for sc in _pinned_instances(shuffled_prefs):
        base = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
        for k in range(sc.tree.T + 1):
            slope = monotonicity_probe(sc.market, sc.prefs, sc.eps, k, method="newton",
                                       base=base)
            curv = concavity_probe(sc.market, sc.prefs, sc.eps, k, method="newton", base=base)
            assert np.allclose(slope.estimates,
                               _probe_by_differences(sc.market, sc.prefs, sc.eps, k, base,
                                                     curvature=False), rtol=1e-8, atol=0)
            assert np.all(np.abs(curv.estimates - _probe_by_differences(
                sc.market, sc.prefs, sc.eps, k, base, curvature=True))
                <= 1e-5 * curv.details["scales"])


@pytest.mark.filterwarnings("ignore::habitopt.WrongMarketClass", "ignore:concavity in wealth")
@pytest.mark.parametrize("family", ["general", "bond_only"])
def test_curvature_without_a_third_derivative_differences_the_analytic_slope(family):
    # the custom family is the power family with gamma = 2 and no d3u
    sc = generate_scenario(5, family, T=3, utility="power", habit="one_lag", floors=False)
    power = HabitPreferences(sc.tree, PowerUtility(2.0), sc.prefs.beta)
    custom = HabitPreferences(sc.tree, CustomUtility(
        u=lambda k, x: -1.0 / x, du=lambda k, x: np.power(x, -2.0),
        d2u=lambda k, x: -2.0 * np.power(x, -3.0)), sc.prefs.beta)
    for k in range(sc.tree.T + 1):
        analytic = concavity_probe(sc.market, power, sc.eps, k, method="newton")
        differenced = concavity_probe(sc.market, custom, sc.eps, k, method="newton")
        assert np.all(np.abs(differenced.estimates - analytic.estimates)
                      <= 1e-5 * analytic.details["scales"])


@pytest.mark.filterwarnings("ignore::habitopt.WrongMarketClass")
def test_probes_run_no_lps_and_at_most_three_solves_per_point(monkeypatch, solver_lps):
    sc = generate_scenario(1, "general", T=3, utility="power", habit="one_lag")
    base = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    solves = []
    real = habitopt.solvers._newton_maximize

    def counted(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(habitopt.solvers, "_newton_maximize", counted)
    solver_lps.clear()
    for probe in (monotonicity_probe, concavity_probe):
        for k in range(sc.tree.T + 1):
            solves.clear()
            result = probe(sc.market, sc.prefs, sc.eps, k, base=base)
            assert result.details["method"] == "newton"
            # one response per point serves both probes; leaves take none
            points = 0 if k == sc.tree.T else sc.tree.n_atoms(k)
            assert len(solves) <= points
    assert len(solver_lps) == 0


def _closed_instances():
    """Complete T=3 markets with power, exponential, floored and per-period power
    families, and a custom family (power with gamma = 2) that has an inverse
    marginal but no third derivative."""
    out = [generate_scenario(seed, "complete", T=3, utility=utility, habit=habit, floors=floors)
           for seed, utility, habit, floors in ((5001, "power", "one_lag", False),
                                                (55, "exp", "two_lag", False),
                                                (520, "power", "one_lag", True),
                                                (57, "power_hetero", "one_lag", True))]
    sc = out[0]
    custom = CustomUtility(u=lambda k, x: -1.0 / x, du=lambda k, x: np.power(x, -2.0),
                           d2u=lambda k, x: -2.0 * np.power(x, -3.0),
                           du_inv=lambda k, y: np.power(y, -0.5))
    out.append(Scenario(sc.tree, sc.market, HabitPreferences(sc.tree, custom, sc.prefs.beta),
                        sc.eps, None, {}))
    return out


@pytest.mark.filterwarnings("ignore:concavity in wealth")
@pytest.mark.parametrize("case", range(5), ids=["power", "exp", "floors", "power_hetero",
                                                "custom"])
def test_closed_responses_match_differences_of_the_closed_form(case):
    sc = _closed_instances()[case]
    m, p, t = sc.market, sc.prefs, sc.tree
    eps_vals = [np.asarray(e, dtype=float) for e in sc.eps]
    spd = spd_bundle(m, p.beta)
    base = solve_auto(m, p, sc.eps)
    for k in range(t.T):
        slope = monotonicity_probe(m, p, sc.eps, k, method="closed", base=base)
        curv = concavity_probe(m, p, sc.eps, k, method="closed", base=base)
        assert slope.details["method"] == curv.details["method"] == "closed"
        for a in range(t.n_atoms(k)):
            hist = [float(base.c.values(lev)[t.ancestor(k, lev)[a]]) for lev in range(k)]
            w = float(sc.eps[0][0]) if k == 0 else float(base.W.values(k)[a])

            def c_at(wealth, history=hist):
                cont = _CompleteContinuation(p, spd, eps_vals, k, a, history)
                return cont.solve(wealth)[0][k][0]

            c, dc_dw, dc_dh, d2c = _complete_response(p, spd, eps_vals, k, a, hist, w)
            assert (d2c is None) == (case == 4)
            d = max(1e-4, 1e-4 * abs(w))
            assert dc_dw == slope.estimates[a]
            assert dc_dw == pytest.approx((c_at(w + d) - c_at(w - d)) / (2 * d), rel=1e-8)
            if k:
                up, down = hist[:-1] + [hist[-1] + 1e-4], hist[:-1] + [hist[-1] - 1e-4]
                assert dc_dh == pytest.approx((c_at(w, up) - c_at(w, down)) / 2e-4,
                                              rel=0, abs=1e-9)
            else:
                assert dc_dh == 0.0
            d = max(5e-3, 5e-3 * abs(w))
            second = (c_at(w + d) - 2.0 * c + c_at(w - d)) / (d * d)
            assert abs(curv.estimates[a] - second) <= 1e-6 * max(1.0, abs(c))


@pytest.mark.parametrize("case", range(4), ids=["power", "exp", "floors", "power_hetero"])
def test_eta_on_complete_markets_reads_the_closed_table(monkeypatch, case):
    sc = _closed_instances()[case]
    base = solve_auto(sc.market, sc.prefs, sc.eps)
    T = sc.tree.T
    closed = [eta_bound_check(sc.market, sc.prefs, sc.eps, k, base=base) for k in range(T)]
    assert {key[3] for key in base._responses} == {"closed"}
    monkeypatch.setattr(habitopt.analysis, "has_inverse_marginal", lambda family: False)
    newton = [eta_bound_check(sc.market, sc.prefs, sc.eps, k, base=base) for k in range(T)]
    assert {key[3] for key in base._responses} == {"closed", "newton"}
    for rep_closed, rep_newton in zip(closed, newton):
        assert rep_closed.estimates.keys() == rep_newton.estimates.keys()
        assert rep_closed.satisfied == rep_newton.satisfied
        for key, est in rep_closed.estimates.items():
            assert est == pytest.approx(rep_newton.estimates[key], rel=1e-9)


@pytest.mark.filterwarnings("ignore::habitopt.WrongMarketClass")
@pytest.mark.parametrize("family", ["general", "complete"])
def test_a_reused_base_plan_reads_no_stale_responses(family):
    # the responses kept on a base plan are keyed by the endowments' values
    sc = generate_scenario(1, family, T=2, utility="power", habit="one_lag")
    other = [sc.eps[0]] + [e + 0.1 for e in sc.eps[1:]]

    def probes(eps, base):
        return [probe(sc.market, sc.prefs, eps, 1, base=base)
                for probe in (monotonicity_probe, concavity_probe)]

    shared = solve_auto(sc.market, sc.prefs, sc.eps)
    reused = [probes(eps, shared) for eps in (sc.eps, other)]
    fresh = [probes(eps, solve_auto(sc.market, sc.prefs, sc.eps)) for eps in (sc.eps, other)]
    for got, want in zip(reused, fresh):
        for g, w in zip(got, want):
            assert np.array_equal(g.estimates, w.estimates)
    assert not np.array_equal(reused[0][0].estimates, reused[1][0].estimates)


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


def _eta_by_root_finding(m, p, eps, k, base):
    """Reference wealth response: central differences of the roots of the link.

    For each level-``k`` atom, ``root(hybr)`` solves the projected link for
    the children's wealth at ``c_k +- d``, re-solving every child's
    continuation problem inside each residual evaluation.
    """
    t = m.tree
    spd = spd_bundle(m, p.beta)
    cbase = [base.c.values(l) for l in range(t.T + 1)]

    def policy(node, history, w):
        sub = solve_subproblem(m, p, eps, k + 1, node, history, w, gtol=1e-12,
                               x0=_base_holdings(base, _subtree_atoms(t, k + 1, node)))
        return sub.c[(k + 1, node)]

    estimates = {}
    for a in range(t.n_atoms(k)):
        children = t.children(k, a)
        hist = [float(cbase[lev][t.ancestor(k, lev)[a]]) for lev in range(k)]
        ck0 = float(cbase[k][a])
        mt_ratio = spd.Mtilde[k + 1].values[children] / spd.Mtilde[k].values[a]
        wch = t.atom_probs[k + 1][children]
        sq = np.sqrt(wch)
        u_svd, s, _ = np.linalg.svd(sq[:, None] * m.gain(k + 1)[children],
                                    full_matrices=False)
        bmat = u_svd[:, :int(np.sum(s > 1e-10 * s[0]))] / sq[:, None]

        def resid(y, ck):
            adj = np.array([policy(int(b), hist + [ck], float(w)) for b, w
                            in zip(children, bmat @ y)]) - p.h[k + 1][children]
            adj -= sum(p.beta[k + 1, lev] * (ck if lev == k else hist[lev])
                       for lev in range(k + 1))
            chat_k = ck - sum(p.beta[k, l] * hist[l] for l in range(k)) - p.h[k][a]
            gap = p.family.du(k + 1, adj) - mt_ratio * p.family.du(k, chat_k)
            return bmat.T @ (wch * gap)

        y_base = bmat.T @ (wch * base.W.values(k + 1)[children])
        d = max(1e-4, 1e-4 * abs(ck0))
        sols = [bmat @ root(resid, y_base, args=(ck0 + sign * d,), method="hybr",
                            options={"xtol": 1e-12}).x for sign in (1, -1)]
        for j, b in enumerate(children):
            estimates[(a, int(b))] = (sols[0][j] - sols[1][j]) / (2 * d)
    return estimates


@pytest.mark.filterwarnings("ignore::habitopt.WrongMarketClass")
def test_eta_estimates_match_root_finding_on_pinned_markets(shuffled_prefs):
    # two-lag habits with floors on every family, and a tree whose atoms are
    # not in parent order; the finite differences carry ~1e-9 relative error
    t = shuffled_prefs.tree
    eps = [np.array([2.0])] + [np.linspace(0.1, 0.3, t.n_atoms(k)) for k in (1, 2, 3)]
    instances = [generate_scenario(seed, family, T=3, utility="power", habit="two_lag",
                                   floors=True)
                 for seed, family in ((41, "general"), (42, "bond_only"), (43, "complete"),
                                      (44, "idiosyncratic"))]
    instances.append(Scenario(t, MarketModel(t, [0.02] * t.T), shuffled_prefs, eps, None, {}))
    for sc in instances:
        base = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
        for k in range(sc.tree.T):
            report = eta_bound_check(sc.market, sc.prefs, sc.eps, k, base=base)
            reference = _eta_by_root_finding(sc.market, sc.prefs, sc.eps, k, base)
            assert report.estimates.keys() == reference.keys()
            for key, est in report.estimates.items():
                assert est == pytest.approx(reference[key], rel=1e-6)


@pytest.mark.parametrize("seed, family, T", [(3, "complete", 3), (3, "bond_only", 4),
                                             (2002, "bond_only", 4), (3, "idiosyncratic", 2)])
def test_eta_terminal_estimates_equal_the_terminal_formula(seed, family, T):
    # finite differences of root-finds met the closed form to 1.7e-9 on bond_only seed 3
    sc = generate_scenario(seed, family, T=T, utility="power", habit="one_lag")
    report = eta_bound_check(sc.market, sc.prefs, sc.eps, T - 1, witness=sc.witness)
    assert report.scope == "in_scope"
    formula = report.details["terminal_formula"]
    assert formula.keys() == report.estimates.keys()
    for key, est in report.estimates.items():
        assert est == pytest.approx(formula[key], rel=1e-12, abs=0)


def test_eta_singular_link_system_raises_with_diagnostics(monkeypatch):
    # children whose consumption ignores their wealth leave the link without
    # a wealth direction to solve for
    sc = generate_scenario(56, "complete", utility="power", habit="one_lag",
                           floors=False)
    real = habitopt.analysis._node_response

    def wealth_blind(*args, **kwargs):
        c, _, dc_dc, d2c = real(*args, **kwargs)
        return c, 0.0, dc_dc, d2c

    monkeypatch.setattr(habitopt.analysis, "_node_response", wealth_blind)
    with pytest.raises(NonConvergence) as exc:
        eta_bound_check(sc.market, sc.prefs, sc.eps, k=0)
    diag = exc.value.diagnostics
    assert (diag["level"], diag["atom"]) == (0, 0)
    assert not np.isfinite(diag["condition"])
    assert np.all(diag["jacobian"] == 0.0)


def test_eta_passes_where_hybr_stalls_at_rounding_level():
    # hybr reported no progress at a residual of ~1e-16 at level 0, atom 0
    sc = generate_scenario(2002, "bond_only", T=4, utility="power", habit="one_lag")
    for k in range(sc.tree.T):
        assert eta_bound_check(sc.market, sc.prefs, sc.eps, k).satisfied


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
    # log felicity today, negative-reciprocal felicity tomorrow
    m = MarketModel(det1, [0.0])
    p = HabitPreferences.one_lag(det1, PowerUtility(np.array([1.0, 2.0])), 1.0)
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


def test_sweep_certifies_the_deflator_once(market_lps, market_certificates):
    sc = generate_scenario(41, "complete", utility="power", habit="one_lag")
    rows = wealth_sweep(sc.market, sc.prefs, sc.eps, 1.0, 2.0, 5)
    assert [r["status"] for r in rows] == ["ok"] * 5
    assert len(market_certificates) == 1
    assert len(market_lps) == 0


def _sweep_by_solve_auto(m, p, eps, grid, method="auto"):
    """``wealth_sweep``'s rows from one ``solve_auto`` per grid point."""
    t = m.tree
    rows = []
    for e0 in grid:
        row = {"eps0": float(e0), "c0": None, "status": "ok", "U": None, "per_period_U": None}
        try:
            sol = solve_auto(m, p, [np.full(1, e0)] + list(eps[1:]), method=method)
            row["c0"], row["U"] = float(sol.c.values(0)[0]), float(sol.U)
            row["per_period_U"] = [float(np.dot(t.atom_probs[k], p.family.u(k, sol.chat.values(k))))
                                   for k in range(t.T + 1)]
        except HabitOptError as exc:
            row["status"] = f"failed: {type(exc).__name__}"
        rows.append(row)
    h = grid[1] - grid[0]
    for i, row in enumerate(rows):
        row["dc0"] = row["d2c0"] = None
        near = rows[max(i - 1, 0):i + 2]
        if 0 < i < len(rows) - 1 and all(r["c0"] is not None for r in near):
            prev_c, next_c = rows[i - 1]["c0"], rows[i + 1]["c0"]
            row["dc0"] = float((next_c - prev_c) / (2.0 * h))
            row["d2c0"] = float((next_c - 2.0 * row["c0"] + prev_c) / (h * h))
    return rows


_SWEEP_FORMS = [("complete", "power", False, "_CompletePower"),
                ("complete", "log", True, "_CompletePower"),
                ("complete", "exp", False, "_CompleteGeneral"),
                ("bond_only", "exp", False, "_ExponentialBonds"),
                ("general", "power", False, None)]


@pytest.mark.parametrize("family, utility, floors, form", _SWEEP_FORMS)
def test_sweep_equals_solve_auto_at_every_grid_point(family, utility, floors, form):
    # the prepared closed forms, and Newton where none applies, give each row
    # exactly what a solve_auto at that endowment gives, failed rows included
    sc = generate_scenario(44, family, T=2, utility=utility, habit="one_lag", floors=floors)
    t = sc.tree
    eps = [np.ones(1)] + [np.zeros(t.n_atoms(k)) for k in range(1, t.T + 1)] if floors \
        else sc.eps
    grid = np.linspace(1e-6 if floors else 0.3, 2.5, 6)
    rows = wealth_sweep(sc.market, sc.prefs, eps, grid[0], grid[-1], len(grid))
    assert rows == _sweep_by_solve_auto(sc.market, sc.prefs, eps, grid)
    assert any(r["status"] != "ok" for r in rows) == floors


@pytest.mark.parametrize("family, utility, form", [(f, u, form) for f, u, _, form in _SWEEP_FORMS
                                                   if form is not None])
@pytest.mark.parametrize("n", [3, 8])
def test_sweep_prepares_its_closed_form_once(monkeypatch, family, utility, form, n):
    # the wealth-independent part runs once per sweep; no grid point
    # assembles holdings
    sc = generate_scenario(45, family, T=2, utility=utility, habit="one_lag")
    built = []
    cls = getattr(habitopt.solvers, form)
    init = cls.__init__

    def counted(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    def no_holdings(*args):
        raise AssertionError("a sweep point assembled holdings")

    monkeypatch.setattr(cls, "__init__", counted)
    monkeypatch.setattr(habitopt.solvers, "_replicate_portfolio", no_holdings)
    rows = wealth_sweep(sc.market, sc.prefs, sc.eps, 0.5, 2.0, n)
    assert [r["status"] for r in rows] == ["ok"] * n
    assert built == [form]


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


@pytest.mark.parametrize("family, branching, least", [("bond_only", 1, 2), ("general", 1, 3),
                                                      ("general", 2, 3)])
def test_generation_rejects_an_impossible_branching_before_drawing(monkeypatch, family,
                                                                   branching, least):
    # a bond alone spans one child, and a bond with one risky asset two, so
    # no draw can produce a genuinely incomplete market
    def no_draw(*args):
        raise AssertionError("drew an instance")

    monkeypatch.setattr(habitopt.analysis, "_draw_family", no_draw)
    with pytest.raises(ValueError, match=f"branching must be at least {least} "):
        generate_scenario(63, family, branching=branching, max_tries=3)


def test_generation_exhausts_when_no_try_succeeds():
    with pytest.raises(GenerationExhausted):
        generate_scenario(63, "general", max_tries=0)


@pytest.mark.parametrize("family, utility", [("complete", "power"), ("complete", "exp"),
                                             ("bond_only", "exp")])
def test_wealth_sweep_wraps_few_random_variables(monkeypatch, family, utility):
    # processes stay per-level arrays inside the library; only public return
    # values (the deflator bundle, closed-form coefficients) wrap them
    from habitopt.tree import RandomVariable

    sc = generate_scenario(7, family, T=3, utility=utility, habit="one_lag")
    built = []
    init = RandomVariable.__post_init__

    def counted(self):
        built.append(self.level)
        init(self)

    monkeypatch.setattr(RandomVariable, "__post_init__", counted)
    n = 5
    rows = wealth_sweep(sc.market, sc.prefs, sc.eps, 0.5, 2.0, n)
    assert all(row["status"] == "ok" for row in rows)
    assert len(built) <= 2 * (sc.tree.T + 1) * n
