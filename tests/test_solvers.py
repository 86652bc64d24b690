import numpy as np
import pytest

from habitopt import (
    AdaptedProcess,
    ExponentialUtility,
    HabitPreferences,
    InstanceTooLarge,
    LogUtility,
    MarketModel,
    PowerUtility,
    PreconditionViolated,
    build_tree,
    consumption_to_wealth,
    generate_scenario,
    has_inverse_marginal,
    solve_auto,
    solve_complete_general,
    solve_complete_power,
    solve_exponential_bonds,
    solve_general,
    solve_power_no_endowment,
    solve_primal_oracle,
    solve_subproblem,
    spd_bundle,
)
from habitopt import CustomUtility
from habitopt.analysis import _base_holdings
from habitopt.solvers import _replicate_portfolio, _SubtreePlan


@pytest.fixture
def det1():
    return build_tree([[[0]], [[0]]], [1.0])


@pytest.fixture
def bin1():
    return build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])


def bond(tree, r=0.0):
    return MarketModel(tree, [r] * tree.T)


def cvals(sol, k):
    return sol.c.values(k)


# ---------------------------------------------------------------------------
# one-period hand values
# ---------------------------------------------------------------------------

def test_log_no_habit_splits_endowment(det1):
    sol = solve_general(bond(det1), HabitPreferences(det1, LogUtility()),
                        [np.array([1.0]), np.zeros(1)])
    assert sol.converged
    assert cvals(sol, 0)[0] == pytest.approx(0.5, abs=1e-10)
    assert cvals(sol, 1)[0] == pytest.approx(0.5, abs=1e-10)


def test_log_full_habit_hand_value(det1):
    p = HabitPreferences.one_lag(det1, LogUtility(), 1.0)
    sol = solve_general(bond(det1), p, [np.array([1.0]), np.zeros(1)])
    assert cvals(sol, 0)[0] == pytest.approx(0.25, abs=1e-10)
    assert cvals(sol, 1)[0] == pytest.approx(0.75, abs=1e-10)


@pytest.mark.parametrize("b", [0.0, 0.4, 0.9])
def test_one_lag_log_initial_share(det1, b):
    eps0 = 2.0
    p = HabitPreferences.one_lag(det1, LogUtility(), b)
    sol = solve_general(bond(det1), p, [np.array([eps0]), np.zeros(1)])
    assert cvals(sol, 0)[0] == pytest.approx(eps0 / (2 + 2 * b), abs=1e-10)


def test_exponential_splits_total_wealth(det1):
    p = HabitPreferences(det1, ExponentialUtility(1.5))
    sol = solve_general(bond(det1), p, [np.array([2.0]), np.array([1.0])])
    assert cvals(sol, 0)[0] == pytest.approx(1.5, abs=1e-10)
    assert cvals(sol, 1)[0] == pytest.approx(1.5, abs=1e-10)


def test_exponential_rate_wedge(det1):
    gamma, r = 2.0, 0.2
    p = HabitPreferences(det1, ExponentialUtility(gamma))
    sol = solve_general(bond(det1, r), p, [np.array([1.0]), np.array([0.5])])
    wedge = cvals(sol, 1)[0] - cvals(sol, 0)[0]
    assert wedge == pytest.approx(np.log(1 + r) / gamma, abs=1e-10)


def test_inada_solution_interior(bin1):
    m = MarketModel(bin1, [0.0], [np.array([[1.0]])],
                    [np.array([[1.6], [0.7]])])
    p = HabitPreferences.one_lag(bin1, PowerUtility(2.0), 0.5)
    sol = solve_general(m, p, [np.array([1.0]), np.full(2, 0.3)])
    for k in range(2):
        assert np.all(sol.chat.values(k) > 0)


# ---------------------------------------------------------------------------
# wealth bookkeeping
# ---------------------------------------------------------------------------

def test_terminal_investment_zero_and_budget(bin1):
    m = MarketModel(bin1, [0.05], [np.array([[1.0]])],
                    [np.array([[1.5], [0.8]])])
    p = HabitPreferences(bin1, LogUtility())
    eps = [np.array([1.0]), np.full(2, 0.2)]
    sol = solve_general(m, p, eps)
    assert np.all(sol.I.values(1) == 0)
    assert sol.I.values(0)[0] == pytest.approx(
        eps[0][0] + sol.W.values(0)[0] - cvals(sol, 0)[0])
    # invested amount must equal the bond plus risky holdings at cost
    assert sol.I.values(0)[0] == pytest.approx(float(np.dot(sol.pi[0][0], m.S[0][0])))


def test_wealth_agrees_with_deflated_tail(bin1):
    m = MarketModel(bin1, [0.05], [np.array([[1.0]])],
                    [np.array([[1.5], [0.8]])])
    p = HabitPreferences.one_lag(bin1, LogUtility(), 0.3)
    eps = [np.array([1.0]), np.full(2, 0.2)]
    sol = solve_general(m, p, eps, gtol=1e-12)
    spd = spd_bundle(m, p.beta)
    W2 = consumption_to_wealth(m, spd.M, sol.c, AdaptedProcess(bin1, eps))
    for k in range(2):
        assert np.allclose(sol.W.values(k), W2.values(k), atol=1e-9)


# ---------------------------------------------------------------------------
# reference oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_newton(bin1):
    m = MarketModel(bin1, [0.0], [np.array([[1.0]])],
                    [np.array([[2.0], [0.5]])])
    p = HabitPreferences.one_lag(bin1, LogUtility(), 0.5)
    eps = [np.array([1.0]), np.full(2, 0.1)]
    fast = solve_general(m, p, eps)
    slow = solve_primal_oracle(m, p, eps)
    for k in range(2):
        assert np.allclose(cvals(fast, k), cvals(slow, k), atol=1e-6)
    assert slow.U <= fast.U + 1e-9


@pytest.mark.parametrize("seed, habit", [(16019, "one_lag"), (17023, "two_lag"),
                                         (19015, "none")])
def test_oracle_matches_newton_on_complete_exponential(seed, habit):
    # a single Powell run in raw portfolio coordinates misses these by > 1e-6
    sc = generate_scenario(seed, "complete", T=1, utility="exp", habit=habit,
                           max_tries=1000)
    fast = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    slow = solve_primal_oracle(sc.market, sc.prefs, sc.eps)
    for k in range(2):
        assert np.allclose(cvals(fast, k), cvals(slow, k), atol=1e-6)


def test_oracle_ignores_redundant_assets(bin1):
    # two identical risky assets: the holdings split between them is free
    m = MarketModel(bin1, [0.0], [np.array([[1.0, 1.0]])],
                    [np.array([[2.0, 2.0], [0.5, 0.5]])])
    p = HabitPreferences.one_lag(bin1, LogUtility(), 0.5)
    eps = [np.array([1.0]), np.full(2, 0.1)]
    closed = solve_auto(m, p, eps, method="closed")
    slow = solve_primal_oracle(m, p, eps)
    for k in range(2):
        assert np.allclose(cvals(closed, k), cvals(slow, k), atol=1e-4)


def test_oracle_refuses_large_instances():
    leaves = list(range(8))
    levels = [[leaves],
              [leaves[:4], leaves[4:]],
              [leaves[i:i + 2] for i in range(0, 8, 2)],
              [[i] for i in leaves]]
    t = build_tree(levels, [0.125] * 8)
    m = bond(t)
    p = HabitPreferences(t, LogUtility())
    eps = [np.full(t.n_atoms(k), 1.0) for k in range(4)]
    with pytest.raises(InstanceTooLarge):
        solve_primal_oracle(m, p, eps)


def test_multistart_agrees(bin1):
    m = MarketModel(bin1, [0.02], [np.array([[1.0]])],
                    [np.array([[1.8], [0.6]])])
    p = HabitPreferences.one_lag(bin1, PowerUtility(2.0), 0.4)
    eps = [np.array([1.5]), np.full(2, 0.2)]
    base = solve_general(m, p, eps)
    x_opt = np.concatenate([np.ravel(pi_k) for pi_k in base.pi])
    rng = np.random.default_rng(3)
    for _ in range(5):
        again = solve_general(m, p, eps, x0=x_opt + rng.normal(0, 0.05, x_opt.size))
        for k in range(2):
            assert np.allclose(cvals(base, k), cvals(again, k), atol=1e-7)


# ---------------------------------------------------------------------------
# continuation subproblems
# ---------------------------------------------------------------------------

def test_subproblem_at_root_reproduces_full():
    sc = generate_scenario(31, "bond_only", utility="log", habit="one_lag")
    full = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    sub = solve_subproblem(sc.market, sc.prefs, sc.eps, 0, 0, (),
                           w=float(sc.eps[0][0]), gtol=1e-12)
    for k in range(sc.tree.T + 1):
        for a in range(sc.tree.n_atoms(k)):
            assert sub.c[(k, a)] == pytest.approx(full.c.values(k)[a], abs=1e-8)
    assert sub.U == pytest.approx(full.U, abs=1e-10)


def _continuation_at_base(seed=31):
    """A level-1 continuation problem at the base optimum's wealth and history."""
    sc = generate_scenario(seed, "bond_only", utility="log", habit="one_lag")
    base = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    k, node = 1, 1
    hist = [float(base.c.values(0)[0])]
    w = float(base.W.values(k)[node])
    return sc, k, node, hist, w, _base_holdings(base, k, node)


def test_inadmissible_warm_start_falls_back_to_lp(solver_lps):
    sc, k, node, hist, w, x_base = _continuation_at_base()
    args = (sc.market, sc.prefs, sc.eps, k, node, hist, w)
    plan = _SubtreePlan(*args[:3], k0=k, node=node, history=hist, w=w)
    bad = np.full(x_base.size, 1e3)
    assert not np.isfinite(plan.utility(bad))
    solver_lps.clear()
    cold = solve_subproblem(*args, gtol=1e-12)
    assert len(solver_lps) == 1
    fallback = solve_subproblem(*args, gtol=1e-12, x0=bad)
    assert len(solver_lps) == 2
    warm = solve_subproblem(*args, gtol=1e-12, x0=x_base)
    assert len(solver_lps) == 2
    for key, c in cold.c.items():
        assert fallback.c[key] == pytest.approx(c, abs=1e-10)
        assert warm.c[key] == pytest.approx(c, abs=1e-10)


def test_shifted_plan_matches_a_fresh_build():
    sc, k, node, hist, w, _ = _continuation_at_base()
    plan = _SubtreePlan(sc.market, sc.prefs, sc.eps, k0=k, node=node, history=hist, w=w)
    for w2, hist2 in ((w + 1e-3, hist), (w, [hist[0] - 1e-3]), (0.5 * w, [2.0])):
        shifted = plan.at(w2, hist2)
        fresh = _SubtreePlan(sc.market, sc.prefs, sc.eps, k0=k, node=node,
                             history=hist2, w=w2)
        assert shifted.A is plan.A and shifted.J is plan.J and shifted.L is plan.L
        for name in ("b0", "hconst", "Lb"):
            assert np.allclose(getattr(shifted, name), getattr(fresh, name),
                               rtol=0, atol=1e-15)
    assert plan.w == w and plan.history == tuple(hist)
    with pytest.raises(PreconditionViolated):
        plan.at(w, [])


def test_subproblem_reuses_plans_by_node():
    sc, k, node, hist, w, x_base = _continuation_at_base()
    plans = {}
    first = solve_subproblem(sc.market, sc.prefs, sc.eps, k, node, hist, w + 1e-3,
                             x0=x_base, plans=plans)
    built = plans[(k, node)]
    again = solve_subproblem(sc.market, sc.prefs, sc.eps, k, node, hist, w + 1e-3,
                             x0=x_base, plans=plans)
    assert list(plans) == [(k, node)] and plans[(k, node)] is built
    assert again.c == first.c


def test_subproblem_terminal_consumes_everything():
    sc = generate_scenario(31, "bond_only", utility="log", habit="one_lag")
    T = sc.tree.T
    # ancestor-path consumption, one scalar per earlier level
    sub = solve_subproblem(sc.market, sc.prefs, sc.eps, T, 0, [5.0] * T, w=6.0)
    assert sub.c[(T, 0)] == pytest.approx(6.0 + sc.eps[T][0])
    assert sub.W[(T, 0)] == 6.0


# ---------------------------------------------------------------------------
# complete-market closed forms
# ---------------------------------------------------------------------------

@pytest.fixture
def complete_scene():
    return generate_scenario(41, "complete", utility="power", habit="one_lag")


def test_complete_power_matches_newton(complete_scene):
    sc = complete_scene
    newton = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    closed, coeffs = solve_complete_power(sc.market, sc.prefs, sc.eps)
    for k in range(sc.tree.T + 1):
        assert np.allclose(cvals(newton, k), cvals(closed, k), atol=1e-8)
    assert closed.diagnostics["method"] == "complete_power"
    assert coeffs.c0 == pytest.approx(cvals(closed, 0)[0])


def test_complete_power_mpc_structure(complete_scene):
    sc = complete_scene
    _, coeffs = solve_complete_power(sc.market, sc.prefs, sc.eps)
    T = sc.tree.T
    assert np.allclose(coeffs.mpc[T], 1.0, atol=1e-12)
    for k in range(T + 1):
        assert np.all(coeffs.mpc[k] > 0)
        assert np.all(coeffs.mpc[k] <= 1.0 + 1e-12)
    assert coeffs.linear  # uniform risk aversion


def test_complete_general_agrees_with_power(complete_scene):
    sc = complete_scene
    closed, _ = solve_complete_power(sc.market, sc.prefs, sc.eps)
    generic = solve_complete_general(sc.market, sc.prefs, sc.eps)
    for k in range(sc.tree.T + 1):
        assert np.allclose(cvals(closed, k), cvals(generic, k), atol=1e-10)


def test_complete_power_refuses_incomplete():
    sc = generate_scenario(42, "general", utility="power", habit="none")
    with pytest.raises(PreconditionViolated):
        solve_complete_power(sc.market, sc.prefs, sc.eps)


# ---------------------------------------------------------------------------
# homogeneity in the initial endowment
# ---------------------------------------------------------------------------

def test_power_scaling_law():
    sc = generate_scenario(43, "general", utility="power", habit="one_lag",
                           floors=False)
    t = sc.tree
    base, shares = solve_power_no_endowment(sc.market, sc.prefs, 1.0)
    for k in range(t.T + 1):
        A = shares.values(k)
        assert np.all(A > 0)
        assert np.all(A <= 1.0 + 1e-9)
    assert shares.values(t.T) == pytest.approx(np.ones(t.n_atoms(t.T)))
    for lam in (0.5, 2.0, 10.0):
        eps = [np.zeros(t.n_atoms(k)) for k in range(t.T + 1)]
        eps[0][0] = lam
        scaled = solve_general(sc.market, sc.prefs, eps, gtol=1e-12)
        for k in range(t.T + 1):
            assert np.allclose(cvals(scaled, k), lam * cvals(base, k), atol=1e-8)


def test_scaling_rejects_mixed_aversion(bin1):
    m = bond(bin1)
    p = HabitPreferences(bin1, PowerUtility([2.0, 3.0]))
    with pytest.raises(PreconditionViolated):
        solve_power_no_endowment(m, p, 1.0)


# ---------------------------------------------------------------------------
# exponential utility with bonds only
# ---------------------------------------------------------------------------

@pytest.fixture
def exp_scene():
    return generate_scenario(44, "bond_only", utility="exp", habit="one_lag")


def test_exponential_bonds_coefficients(exp_scene):
    sc = exp_scene
    T = sc.tree.T
    _, coef = solve_exponential_bonds(sc.market, sc.prefs, sc.eps)
    assert coef.l[T] == 1.0
    assert coef.mm[T] == 0.0
    assert np.allclose(coef.n[T].values, sc.eps[T])
    assert np.all(coef.l > 0)
    assert np.all(coef.l <= 1.0)


@pytest.mark.parametrize("habit", ["none", "one_lag"])
def test_exponential_bonds_matches_newton(habit):
    sc = generate_scenario(45, "bond_only", utility="exp", habit=habit)
    closed, _ = solve_exponential_bonds(sc.market, sc.prefs, sc.eps)
    newton = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    for k in range(sc.tree.T + 1):
        assert np.allclose(cvals(closed, k), cvals(newton, k), atol=1e-8)


def test_exponential_bonds_refuses_risky(bin1):
    m = MarketModel(bin1, [0.0], [np.array([[1.0]])],
                    [np.array([[2.0], [0.5]])])
    p = HabitPreferences(bin1, ExponentialUtility(1.0))
    with pytest.raises(PreconditionViolated):
        solve_exponential_bonds(m, p, [np.ones(1), np.ones(2)])


# ---------------------------------------------------------------------------
# portfolio replication
# ---------------------------------------------------------------------------

# level-1 atoms with 2 and 3 children, so the batched solve sees two group sizes
UNEVEN = [[[0, 1, 2, 3, 4]], [[0, 1], [2, 3, 4]], [[0], [1], [2], [3], [4]]]


def uneven_market(n_risky):
    t = build_tree(UNEVEN, [0.2] * 5)
    if n_risky == 0:
        return MarketModel(t, [0.01, 0.02])
    rng = np.random.default_rng(7)
    prices = [rng.uniform(0.5, 1.5, (t.n_atoms(k), n_risky)) for k in range(2)]
    divs = [rng.uniform(0.1, 2.0, (t.n_atoms(k), n_risky)) for k in (1, 2)]
    return MarketModel(t, [0.01, 0.02], prices, divs)


def test_batched_replication_matches_per_node_lstsq():
    m = uneven_market(2)
    t = m.tree
    W = [np.array([1.0]), np.array([0.7, 1.3]), np.array([0.2, 0.9, 1.1, 0.4, 1.6])]
    pi = _replicate_portfolio(m, W)
    for k in range(t.T):
        for a in range(t.n_atoms(k)):
            ch = t.children(k, a)
            ref, *_ = np.linalg.lstsq(m.gain(k + 1)[ch], W[k + 1][ch], rcond=None)
            assert np.max(np.abs(pi[k][a] - ref)) <= 1e-12


def test_replication_rejects_unattainable_wealth():
    m = uneven_market(0)
    # the bond alone cannot spread wealth across the children of level-1 atom 1
    W = [np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0, 2.0, 3.0, 4.0])]
    with pytest.raises(PreconditionViolated, match="level 2 is not attainable from atom 1"):
        _replicate_portfolio(m, W)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_auto_routes_complete_power(complete_scene):
    sc = complete_scene
    sol = solve_auto(sc.market, sc.prefs, sc.eps)
    assert sol.diagnostics["method"] == "complete_power"


def test_repeated_solves_run_the_deflator_lp_once(complete_scene, market_lps):
    sc = complete_scene
    first = solve_auto(sc.market, sc.prefs, sc.eps)
    for _ in range(2):
        again = solve_auto(sc.market, sc.prefs, sc.eps)
        assert np.array_equal(cvals(again, 0), cvals(first, 0))
    assert len(market_lps) == 1


def test_auto_routes_exponential_bonds(exp_scene):
    sc = exp_scene
    sol = solve_auto(sc.market, sc.prefs, sc.eps)
    assert sol.diagnostics["method"] == "exponential_bonds"


def test_auto_falls_back_to_newton():
    sc = generate_scenario(46, "general", utility="power", habit="none")
    sol = solve_auto(sc.market, sc.prefs, sc.eps)
    assert sol.diagnostics["method"] == "newton"
    with pytest.raises(PreconditionViolated):
        solve_auto(sc.market, sc.prefs, sc.eps, method="closed")


def test_forced_methods(det1):
    p = HabitPreferences(det1, LogUtility())
    eps = [np.ones(1), np.zeros(1)]
    assert solve_auto(bond(det1), p, eps, method="newton").diagnostics["method"] == "newton"
    assert solve_auto(bond(det1), p, eps, method="oracle").diagnostics["method"] == "oracle"
    with pytest.raises(ValueError):
        solve_auto(bond(det1), p, eps, method="simplex")


def test_has_inverse_marginal():
    assert has_inverse_marginal(PowerUtility(2.0))
    assert has_inverse_marginal(ExponentialUtility(1.0))
    plain = CustomUtility(u=lambda k, x: -1 / x, du=lambda k, x: x ** -2.0,
                          d2u=lambda k, x: -2 * x ** -3.0)
    assert not has_inverse_marginal(plain)
    rich = CustomUtility(u=lambda k, x: -1 / x, du=lambda k, x: x ** -2.0,
                         d2u=lambda k, x: -2 * x ** -3.0,
                         du_inv=lambda k, y: y ** -0.5)
    assert has_inverse_marginal(rich)
