import numpy as np
import pytest

import habitopt.solvers
from habitopt import _scipy
from habitopt import (
    AdaptedProcess,
    ExponentialUtility,
    HabitPreferences,
    InstanceTooLarge,
    LogUtility,
    MarketModel,
    NonConvergence,
    PowerUtility,
    PreconditionViolated,
    RandomVariable,
    Scenario,
    build_tree,
    condexp,
    consumption_to_wealth,
    foc_residual,
    generate_scenario,
    has_inverse_marginal,
    lift,
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
from habitopt.analysis import _base_holdings, _priced_market
from habitopt.errors import ArbitrageDetected, Infeasible
from habitopt.solvers import (
    _DENSE_TOP,
    _CompletePower,
    _derivatives,
    _interior_start,
    _newton_maximize,
    _Optimum,
    _replicate_portfolio,
    _ridged_factor,
    _Superhedge,
    _SubtreePlan,
    _Sweep,
    _subtree_atoms,
)


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


def test_newton_solves_a_market_with_redundant_assets(bin1):
    # any split between the identical assets pays the same: the start takes the
    # minimum-norm one, and offsetting holdings far from it would stall Newton
    m = MarketModel(bin1, [0.0], [np.array([[1.0, 1.0]])],
                    [np.array([[2.0, 2.0], [0.5, 0.5]])])
    p = HabitPreferences.one_lag(bin1, LogUtility(), 0.5)
    eps = [np.array([1.0]), np.full(2, 0.1)]
    closed = solve_auto(m, p, eps, method="closed")
    fast = solve_general(m, p, eps)
    assert fast.converged
    for k in range(2):
        assert np.allclose(cvals(closed, k), cvals(fast, k), rtol=0, atol=1e-9)


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
    return sc, k, node, hist, w, _base_holdings(base, _subtree_atoms(sc.tree, k, node))


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


def _isin_subtree_atoms(t, k0, node):
    """Reference: the subtree's atoms by chaining parent membership."""
    atoms = [None] * (t.T + 1)
    atoms[k0] = np.array([node], dtype=int)
    for l in range(k0 + 1, t.T + 1):
        atoms[l] = np.flatnonzero(np.isin(t.parent[l], atoms[l - 1]))
    return atoms


def _per_row_plan_arrays(m, p, eps_vals, k0, node, w):
    """Reference: the plan's coefficient arrays by walking each row's ancestors."""
    t = m.tree
    T = t.T
    atoms = _isin_subtree_atoms(t, k0, node)
    nA = m.n_risky + 1
    pos = [None] * (T + 1)
    for l in range(k0, T + 1):
        pos[l] = {int(a): j for j, a in enumerate(atoms[l])}
    x_off, nx, c_off, nc = {}, 0, {}, 0
    for l in range(k0, T):
        x_off[l] = nx
        nx += len(atoms[l]) * nA
    for l in range(k0, T + 1):
        c_off[l] = nc
        nc += len(atoms[l])
    A, b0, wts = np.zeros((nc, nx)), np.zeros(nc), np.zeros(nc)
    L, floors, hist_coef = np.eye(nc), np.zeros(nc), np.zeros((nc, k0))
    w_start = []
    for l in range(k0, T + 1):
        gain = m.gain(l) if l > k0 else None
        for j, a in enumerate(atoms[l]):
            r = c_off[l] + j
            wts[r] = t.atom_probs[l][a]
            floors[r] = p.h[l][a]
            if l == k0:
                b0[r] = w if k0 == 0 else eps_vals[l][a] + w
            else:
                b0[r] = eps_vals[l][a]
                jj = pos[l - 1][int(t.parent[l][a])]
                A[r, x_off[l - 1] + jj * nA:x_off[l - 1] + (jj + 1) * nA] = gain[a]
                w_start.append(x_off[l - 1] + jj * nA)
            if l < T:
                A[r, x_off[l] + j * nA:x_off[l] + (j + 1) * nA] = -m.S[l][a]
            node_up = a
            for lev in range(l - 1, -1, -1):
                node_up = int(t.parent[lev + 1][node_up])
                bcoef = p.beta[l, lev]
                if bcoef == 0.0:
                    continue
                if lev >= k0:
                    L[r, c_off[lev] + pos[lev][node_up]] -= bcoef
                else:
                    hist_coef[r, lev] = bcoef
    w_index = np.array(w_start, dtype=int)[:, None] + np.arange(nA)
    return {"A": A, "b0": b0, "wts": wts, "L": L, "floors": floors,
            "hist_coef": hist_coef, "w_index": w_index}


def _dense_plan(plan):
    """The plan's row blocks as the dense arrays ``A`` (``c = A x + b0``),
    ``L`` and ``hist_coef`` (``chat = L c - floors - hist_coef @ history``) and
    ``J = dchat/dx``, each entry scattered from the blocks or read off the
    habit map of a unit vector."""
    nc, nx, nA, k0 = plan.n_c, plan.n_x, plan.nA, plan.k0
    A = np.zeros((nc, nx))
    inner = np.arange(len(plan.prices))[:, None]
    A[inner, nA * inner + np.arange(nA)] = -plan.prices
    A[np.arange(1, nc)[:, None], plan.w_index] = plan.w_gain
    L = np.column_stack([plan.habit_map(e, (0.0,) * k0) for e in np.eye(nc)])
    hist_coef = np.zeros((nc, k0))
    for lev, e in enumerate(np.eye(k0)):
        hist_coef[:, lev] = -plan.habit_map(np.zeros(nc), tuple(e))
    J = np.zeros((nc, nx))
    row, col, val = plan._jac
    J[row, col] = val
    return {"A": A, "L": L, "hist_coef": hist_coef, "J": J}


def _pinned_instances(shuffled_prefs):
    t = shuffled_prefs.tree
    eps = [np.array([2.0])] + [np.linspace(0.1, 0.3, t.n_atoms(k)) for k in (1, 2, 3)]
    return [generate_scenario(seed, family, T=3, utility="power", habit="two_lag", floors=True)
            for seed, family in ((41, "general"), (42, "bond_only"), (43, "complete"),
                                 (44, "idiosyncratic"))] + \
        [Scenario(t, bond(t, 0.02), shuffled_prefs, eps, None, {})]


def test_plan_arrays_equal_the_per_row_ancestor_walk(shuffled_prefs):
    for sc in _pinned_instances(shuffled_prefs):
        t = sc.tree
        eps_vals = [np.broadcast_to(np.asarray(e, float), (t.n_atoms(k),))
                    for k, e in enumerate(sc.eps)]
        for k0 in range(t.T + 1):
            for node in range(t.n_atoms(k0)):
                assert all(np.array_equal(a, b) for a, b in
                           zip(_subtree_atoms(t, k0, node)[k0:],
                               _isin_subtree_atoms(t, k0, node)[k0:]))
                w = float(eps_vals[0][0]) if k0 == 0 else 0.7
                history = [1.0 + 0.1 * l for l in range(k0)]
                plan = _SubtreePlan(sc.market, sc.prefs, sc.eps, k0=k0, node=node,
                                    history=history, w=w)
                ref = _per_row_plan_arrays(sc.market, sc.prefs, eps_vals, k0, node, w)
                dense = _dense_plan(plan)
                for name, value in ref.items():
                    got = dense[name] if name in dense else getattr(plan, name)
                    assert got.shape == value.shape and got.dtype == value.dtype, name
                    assert np.array_equal(got, value), (name, k0, node)


def test_plan_habit_map_is_the_habit_operator(shuffled_prefs):
    # two-lag habits with floors, on every root and continuation plan: the
    # plan's habit map is the habit operator on its rows split by level, bit
    # for bit, and the operator reads the same ancestors at the lag positions
    # that it finds itself
    rng = np.random.default_rng(6)
    for sc in _pinned_instances(shuffled_prefs):
        t, habit = sc.tree, sc.prefs.habit
        for k0 in range(t.T + 1):
            for node in range(t.n_atoms(k0)):
                history = [1.0 + 0.1 * l for l in range(k0)]
                plan = _SubtreePlan(sc.market, sc.prefs, sc.eps, k0=k0, node=node,
                                    history=history, w=None if k0 == 0 else 0.7)
                atoms = _subtree_atoms(t, k0, node)
                c = rng.uniform(0.5, 2.0, plan.n_c)
                split = [None] * k0 + [c[plan.row_level == l] for l in range(k0, t.T + 1)]
                want = habit.apply(split, atoms, history)
                assert np.array_equal(plan.habit_map(c, history), np.concatenate(want[k0:]))
                where = habit.apply(split, atoms, history, habit.lag_positions(atoms, k0))
                assert all(np.array_equal(a, b) for a, b in zip(where[k0:], want[k0:]))


def _dense_hessian(plan, hw):
    """The full Hessian from ``plan.band(hw)``, walking each row's ancestors;
    asserts that the blocks above the plan's root are zero."""
    band, nA = plan.band(hw), plan.nA
    parent = np.concatenate([[0], plan.w_index[:, 0] // nA])
    H = np.zeros((plan.n_x, plan.n_x))
    for q in range(band.shape[0]):
        a = q
        for d in range(band.shape[1]):
            if plan.row_level[q] - d < plan.k0:
                assert not band[q, d].any()
                continue
            H[nA * q:nA * q + nA, nA * a:nA * a + nA] = band[q, d]
            H[nA * a:nA * a + nA, nA * q:nA * q + nA] = band[q, d].T
            a = parent[a]
    return H


def test_pattern_jacobian_and_scattered_hessian_equal_the_dense_products(shuffled_prefs):
    # |fl(x . y) - x . y| <= n eps |x| . |y| for an n-term dot product; both
    # sides are rounded, and the Hessian inherits the rounding of J
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(5)
    for sc in _pinned_instances(shuffled_prefs):
        t = sc.tree
        for k0 in range(t.T + 1):
            for node in range(t.n_atoms(k0)):
                w = None if k0 == 0 else 0.7
                history = [1.0 + 0.1 * l for l in range(k0)]
                plan = _SubtreePlan(sc.market, sc.prefs, sc.eps, k0=k0, node=node,
                                    history=history, w=w)
                nc = plan.n_c
                dense = _dense_plan(plan)
                J = dense["L"] @ dense["A"]
                J_abs = np.abs(dense["L"]) @ np.abs(dense["A"])
                assert np.all(np.abs(dense["J"] - J) <= 2 * nc * eps * J_abs)
                hw = rng.uniform(0.1, 10.0, nc)
                H = (J.T * hw) @ J
                assert np.all(np.abs(_dense_hessian(plan, hw) - H)
                              <= 8 * nc * eps * ((J_abs.T * hw) @ J_abs))
                diagonal = plan.band(hw)[:, 0]
                assert np.array_equal(diagonal, np.swapaxes(diagonal, 1, 2))


def _own_plan_response(sc, base, k, node):
    """Reference ``(c, dc/dw, dc/dhistory[-1], d2c/dw2)`` of one node: its own
    plan, entered with its base wealth after its base history, solved by
    Newton from the base holdings and differentiated on Newton's own factor
    of its Hessian."""
    t = sc.tree
    hist = [float(base.c.values(lev)[t.ancestor(k, lev)[node]]) for lev in range(k)]
    w = float(base.W.values(k)[node]) if k else float(sc.eps[0][0])
    plan = _SubtreePlan(sc.market, sc.prefs, sc.eps, k, node, hist, w)
    x, _, _ = _newton_maximize(plan, _base_holdings(base, plan.atoms), 1e-12)
    _, hw = plan.grad_hess_weights(x)
    cf, _ = _ridged_factor(plan, plan.band(hw))
    unit = np.zeros(plan.n_c)
    unit[0] = 1.0
    dlb_dw = plan.habit_map(unit, (0.0,) * k)
    dlb_dh = plan.habit_map(np.zeros(plan.n_c), (0.0,) * (k - 1) + (1.0,)) if k else 0 * unit
    dx = cf.solve(-np.column_stack([plan.jac_t(hw * d) for d in (dlb_dw, dlb_dh)]))
    s = plan.jac(dx[:, 0]) + dlb_dw
    u3 = np.concatenate([sc.prefs.family.d3u(l, plan.chat(x)[plan.row_level == l])
                         for l in range(k, t.T + 1)])
    d2x = cf.solve(plan.jac_t(plan.wts * u3 * s * s))
    S = plan.prices[0]
    return (plan.consumption(x)[0], 1.0 - S @ dx[:plan.nA, 0], -(S @ dx[:plan.nA, 1]),
            -(S @ d2x[:plan.nA]))


def test_one_factor_responses_match_plans_built_for_each_node(shuffled_prefs):
    # every level's responses come from one factor of the polished root plan;
    # the reference builds, solves and factors each node's own plan
    instances = _pinned_instances(shuffled_prefs)
    instances.append(generate_scenario(5, "general", T=5, utility="power", habit="one_lag"))
    for sc in instances:
        base = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
        root = _SubtreePlan(sc.market, sc.prefs, sc.eps)
        one = _Optimum(root, _base_holdings(base, root.atoms), 1e-12)
        for k in range(sc.tree.T):
            got = np.array(one.level_responses(k))
            want = np.array([_own_plan_response(sc, base, k, node)
                             for node in range(sc.tree.n_atoms(k))])
            assert got.shape == want.shape
            # relative, but curvature on the concavity probe's scale max(1, |c|):
            # on the complete market it is zero in theory and ~1e-14 here
            scale = np.abs(want)
            scale[:, 3] = np.maximum(1.0, scale[:, 0])
            assert np.all(np.abs(got - want) <= 1e-9 * scale), (sc.meta, k)


def _array_sizes(obj):
    """Sizes of the arrays held by ``obj``, also inside tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        return [obj.size]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [n for item in obj for n in _array_sizes(item)]
    return []


def test_no_plan_array_grows_with_rows_times_columns():
    sc = generate_scenario(1, "complete", T=8, utility="log", habit="one_lag", max_tries=1000)
    root = _SubtreePlan(sc.market, sc.prefs, sc.eps)
    base = solve_general(sc.market, sc.prefs, sc.eps)
    cont = _SubtreePlan(sc.market, sc.prefs, sc.eps, 1, 0, [float(base.c.values(0)[0])],
                        float(base.W.values(1)[0]))
    for plan in (root, cont):
        sizes = [n for value in vars(plan).values() for n in _array_sizes(value)]
        assert sizes and max(sizes) < plan.n_c * plan.n_x


def _swept_plans():
    """Generated plans past the dense cut: complete T=8 and general T=6 (one
    lag), bond-only T=9 (two lags), and a level-1 continuation of complete
    T=9 at its base optimum."""
    plans = []
    for family, T, utility, habit in (("complete", 8, "power", "one_lag"),
                                      ("general", 6, "log", None),
                                      ("bond_only", 9, "power", "two_lag")):
        sc = generate_scenario(1, family, T=T, utility=utility, habit=habit)
        plans.append(_SubtreePlan(sc.market, sc.prefs, sc.eps))
    sc = generate_scenario(1, "complete", T=9, utility="power", habit="one_lag")
    base = solve_general(sc.market, sc.prefs, sc.eps)
    plans.append(_SubtreePlan(sc.market, sc.prefs, sc.eps, 1, 0, [float(base.c.values(0)[0])],
                              float(base.W.values(1)[0])))
    return plans


def test_band_sweep_solves_the_dense_system():
    # in raw holdings cond(H) reaches 3e10 here, and the dense solve itself sits
    # up to 8e-10 from the exact step (long-double refinement, complete T=8), so
    # the sweep is held to LAPACK's backward error and to the dense step within
    # that conditioning
    for plan in _swept_plans():
        assert plan.sweep.levels and plan.sweep.n_top <= _DENSE_TOP < plan.n_x
        g, hw = _derivatives(plan, _interior_start(plan))
        H = _dense_hessian(plan, hw)
        dense = _scipy.cho_factor(H, lower=True)
        cf, ridge = _ridged_factor(plan, plan.band(hw))
        assert ridge == 0.0
        # the right-hand sides of a response at the plan's root: a unit of
        # wealth there, and of the last history entry where there is one
        unit = np.zeros(plan.n_c)
        unit[0] = 1.0
        k0 = plan.k0
        dlb = [plan.habit_map(unit, (0.0,) * k0)]
        if k0:
            dlb.append(plan.habit_map(np.zeros(plan.n_c), (0.0,) * (k0 - 1) + (1.0,)))
        sides = [-plan.jac_t(hw * d) for d in dlb]
        for b in (g, np.column_stack([g, *sides])):
            step, ref = cf.solve(b), _scipy.cho_solve(dense, b)
            assert step.shape == b.shape
            resid = np.abs(H @ step - b).max(axis=0)
            assert np.all(resid <= 1e-15 * np.abs(H).sum(axis=1).max() * np.abs(step).max(axis=0))
            err = np.linalg.norm((step - ref).reshape(g.size, -1), axis=0)
            assert np.all(err <= 1e-8 * np.linalg.norm(ref.reshape(g.size, -1), axis=0))


def test_full_sweep_matches_the_dense_step_on_a_well_conditioned_band(monkeypatch):
    # bond-only holdings are one bond per node, so the dense step is accurate
    # and the sweep of every level below the root matches it to 1e-10
    monkeypatch.setattr(habitopt.solvers, "_DENSE_TOP", 0)
    sc = generate_scenario(1, "bond_only", T=8, utility="power", habit="two_lag")
    plan = _SubtreePlan(sc.market, sc.prefs, sc.eps)
    assert len(plan.sweep.levels) == sc.tree.T - 1 and plan.sweep.n_top == plan.nA
    g, hw = _derivatives(plan, _interior_start(plan))
    b = np.column_stack([g, np.random.default_rng(4).standard_normal((g.size, 2))])
    step = _ridged_factor(plan, plan.band(hw))[0].solve(b)
    ref = _scipy.cho_solve(_scipy.cho_factor(_dense_hessian(plan, hw), lower=True), b)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


def test_a_solve_below_a_level_solves_each_subtree_block():
    # verify's factor sweeps every level below the root, whether Newton's own
    # sweeps (complete T=8) or not (general T=3); solving below level k gives
    # zero above k and, on each level-k subtree, a solve of its own block
    rng = np.random.default_rng(8)
    for family, T in (("complete", 8), ("general", 3)):
        sc = generate_scenario(1, family, T=T, utility="power", habit="one_lag")
        t, plan = sc.tree, _SubtreePlan(sc.market, sc.prefs, sc.eps)
        assert bool(plan.sweep.levels) == (family == "complete")
        g, hw = _derivatives(plan, _interior_start(plan))
        H = _dense_hessian(plan, hw)
        cf, ridge = _ridged_factor(plan, plan.band(hw), _Sweep(plan, dense_top=0))
        assert ridge == 0.0 and len(cf.levels) == T - 1 and cf.sweep.n_top == plan.nA
        b = np.column_stack([g, rng.standard_normal(g.size)])
        for k in range(1, T):
            step = cf.solve(b, below=k)
            assert step.shape == b.shape
            assert np.all(step[:plan.x_off[k]] == 0.0)
            for node in range(t.n_atoms(k)):
                atoms = _subtree_atoms(t, k, node)
                rows = np.concatenate([plan.c_off[l] + atoms[l] for l in range(k, T)])
                cols = (plan.nA * rows[:, None] + np.arange(plan.nA)).ravel()
                block, x = H[np.ix_(cols, cols)], step[cols]
                resid = np.abs(block @ x - b[cols]).max(axis=0)
                assert np.all(resid <= 1e-15 * np.abs(block).sum(axis=1).max()
                              * np.abs(x).max(axis=0)), (family, k, node)


def _scattered_hessian(plan, hw):
    """Reference: ``J^T diag(hw) J`` scattered into the full matrix, each row's
    outer product in row order, as the dense factor was fed."""
    row, col, val = plan._jac
    i, j = np.nonzero(row[:, None] == row[None, :])
    n = plan.n_x
    return np.bincount(col[i] * n + col[j], weights=hw[row[i]] * (val[i] * val[j]),
                       minlength=n * n).reshape(n, n)


def test_plans_within_the_cut_take_the_dense_factor_bit_for_bit():
    # complete T=7 at 1101 has 254 columns and bond-only T=8 255: nothing is swept
    for seed, family, T, habit in ((1101, "complete", 7, "one_lag"),
                                   (1, "bond_only", 8, "two_lag"),
                                   (1, "general", 3, "one_lag")):
        sc = generate_scenario(seed, family, T=T, utility="power", habit=habit)
        plan = _SubtreePlan(sc.market, sc.prefs, sc.eps)
        assert not plan.sweep.levels and plan.sweep.n_top == plan.n_x <= _DENSE_TOP
        g, hw = _derivatives(plan, _interior_start(plan))
        dense = _scipy.cho_factor(_scattered_hessian(plan, hw), lower=True, check_finite=False)
        cf, _ = _ridged_factor(plan, plan.band(hw))
        b = np.column_stack([g, -g])
        assert np.array_equal(cf.solve(g), _scipy.cho_solve(dense, g, check_finite=False))
        assert np.array_equal(cf.solve(b), _scipy.cho_solve(dense, b, check_finite=False))


def test_dense_top_is_factored_in_place(monkeypatch):
    pairs = []
    real = habitopt.solvers.cho_factor

    def recorded(a, *args, **kwargs):
        c = real(a, *args, **kwargs)
        pairs.append((a, c[0]))
        return c

    monkeypatch.setattr(habitopt.solvers, "cho_factor", recorded)
    for T in (4, 8):
        sc = generate_scenario(1, "complete", T=T, utility="power", habit="one_lag")
        plan = _SubtreePlan(sc.market, sc.prefs, sc.eps)
        _, hw = _derivatives(plan, _interior_start(plan))
        _ridged_factor(plan, plan.band(hw))
    assert len(pairs) == 2
    assert all(np.shares_memory(a, c) for a, c in pairs)


def test_singular_swept_blocks_take_a_ridge():
    # a duplicated risky asset makes every diagonal block singular; the
    # deepest level is swept, so its batched Cholesky is what fails
    sc = generate_scenario(1, "complete", T=8, utility="log", habit="one_lag")
    m, T = sc.market, sc.tree.T
    dup = MarketModel(sc.tree, [m.r[k] for k in range(1, T + 1)],
                      [np.repeat(m.S[k][:, 1:], 2, axis=1) for k in range(T)],
                      [np.repeat(m.d[k][:, 1:], 2, axis=1) for k in range(1, T + 1)])
    plan = _SubtreePlan(dup, sc.prefs, sc.eps)
    _, hw = _derivatives(plan, _interior_start(plan))
    band = plan.band(hw)
    rows = plan.sweep.levels[0][0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(band[rows, 0])
    assert _ridged_factor(plan, band)[1] > 0.0
    fast = solve_general(dup, sc.prefs, sc.eps)
    assert fast.converged and fast.diagnostics["ridge"] > 0.0
    closed = solve_auto(m, sc.prefs, sc.eps, method="closed")
    for k in range(T + 1):
        assert np.allclose(cvals(fast, k), cvals(closed, k), rtol=1e-5, atol=0)


def test_continuation_response_at_the_root():
    # the root has no history entry to differentiate in, so dc/dhistory[-1] is 0
    sc = generate_scenario(1, "general", T=3, utility="power", habit="one_lag")
    base = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    w = float(sc.eps[0][0])
    plan = _SubtreePlan(sc.market, sc.prefs, sc.eps, k0=0, node=0, history=(), w=w)
    c, dc_dw, dc_dh, d2c = _Optimum(plan, _base_holdings(base, plan.atoms),
                                   1e-12).level_responses(0)[0]
    assert c == pytest.approx(base.c.values(0)[0], rel=1e-12)
    assert dc_dh == 0.0

    def c_at(wealth):
        return solve_subproblem(sc.market, sc.prefs, sc.eps, 0, 0, (), wealth,
                                gtol=1e-12).c[(0, 0)]

    d = 1e-4
    assert dc_dw == pytest.approx((c_at(w + d) - c_at(w - d)) / (2 * d), rel=1e-8)
    d = 5e-3
    assert d2c == pytest.approx((c_at(w + d) - 2.0 * c + c_at(w - d)) / d ** 2,
                                rel=0, abs=1e-5)


def test_subproblem_terminal_consumes_everything():
    sc = generate_scenario(31, "bond_only", utility="log", habit="one_lag")
    T = sc.tree.T
    # ancestor-path consumption, one scalar per earlier level
    sub = solve_subproblem(sc.market, sc.prefs, sc.eps, T, 0, [5.0] * T, w=6.0)
    assert sub.c[(T, 0)] == pytest.approx(6.0 + sc.eps[T][0])
    assert sub.W[(T, 0)] == 6.0


def test_mis_shaped_warm_start_is_a_precondition_violation():
    sc = generate_scenario(1, "general", T=3, utility="power", habit="one_lag")
    with pytest.raises(PreconditionViolated, match="n_x = 26"):
        solve_general(sc.market, sc.prefs, sc.eps, x0=np.zeros(3))
    n_x = _SubtreePlan(sc.market, sc.prefs, sc.eps, k0=1, node=0, history=[1.0], w=1.0).n_x
    with pytest.raises(PreconditionViolated, match=f"n_x = {n_x}"):
        solve_subproblem(sc.market, sc.prefs, sc.eps, 1, 0, [1.0], 1.0, x0=np.zeros(3))


# ---------------------------------------------------------------------------
# whole-plan felicity evaluation
# ---------------------------------------------------------------------------

def _felicity_families():
    return {
        "log": LogUtility(rho=0.05),
        "power": PowerUtility(2.5, rho=0.05, T=3),
        # gamma = 1 (log level, u' exponent -1) and 0.5 (u exponent 0.5) hit
        # numpy's scalar-exponent fast paths
        "power_hetero": PowerUtility([2.5, 1.7, 0.5, 1.0], rho=0.05),
        "exp": ExponentialUtility(1.3, rho=0.05),
        "custom": CustomUtility(u=lambda k, x: -(k + 1.0) / x,
                                du=lambda k, x: (k + 1.0) * x ** -2.0,
                                d2u=lambda k, x: -2.0 * (k + 1.0) * x ** -3.0),
    }


def _per_level_reference(plan, x):
    """Felicity per row, utility and derivative weights from the family's
    scalar-level methods."""
    fam = plan.p.family
    ch = plan.chat(x)
    total, u, du, d2u = 0.0, [], [], []
    for l in range(plan.k0, plan.t.T + 1):
        sl = slice(plan.c_off[l], plan.c_off[l] + len(plan.atoms[l]))
        u.append(fam.u(l, ch[sl]))
        total += float(np.dot(plan.wts[sl], u[-1]))
        du.append(fam.du(l, ch[sl]))
        d2u.append(fam.d2u(l, ch[sl]))
    return (np.concatenate(u), total, plan.wts * np.concatenate(du),
            -plan.wts * np.concatenate(d2u))


@pytest.mark.parametrize("name", ["log", "power", "power_hetero", "exp", "custom"])
def test_plan_felicity_equals_per_level_evaluation(name):
    sc = generate_scenario(1, "general", T=3, utility="power", habit="one_lag")
    prefs = HabitPreferences(sc.tree, _felicity_families()[name], sc.prefs.beta)
    base = solve_general(sc.market, prefs, sc.eps)
    root = _SubtreePlan(sc.market, prefs, sc.eps)
    k, node = 1, 2
    hist = [float(base.c.values(0)[0])]
    w = float(base.W.values(k)[node])
    cont = _SubtreePlan(sc.market, prefs, sc.eps, k0=k, node=node, history=hist, w=w)
    rng = np.random.default_rng(0)
    shifted_root = _SubtreePlan(sc.market, prefs, sc.eps, w=float(sc.eps[0][0]) + 0.1)
    shifted_cont = _SubtreePlan(sc.market, prefs, sc.eps, k0=k, node=node,
                                history=[hist[0] - 0.01], w=w + 0.05)
    for plan in (root, shifted_root, cont, shifted_cont):
        x = _base_holdings(base, plan.atoms)
        for pt in [x] + [x + 1e-3 * rng.standard_normal(x.size) for _ in range(4)]:
            assert np.isfinite(plan.utility(pt))
            u, total, gw, hw = _per_level_reference(plan, pt)
            got_gw, got_hw = plan.grad_hess_weights(pt)
            assert np.array_equal(plan.u_rows(plan.chat(pt)), u)
            assert plan.utility(pt) == total
            assert np.array_equal(got_gw, gw) and np.array_equal(got_hw, hw)


def test_entering_wealth_equals_per_atom_dots():
    sc = generate_scenario(1, "general", T=3, utility="power", habit="one_lag")
    base = solve_general(sc.market, sc.prefs, sc.eps)
    t, m = sc.tree, sc.market
    for k, node in ((0, 0), (1, 2), (2, 4)):
        # holdings and gains alone set the entering wealth; wealth and history do not
        plan = _SubtreePlan(m, sc.prefs, sc.eps, k0=k, node=node, history=[1.0] * k, w=1.0)
        x = _base_holdings(base, plan.atoms)
        ref = []
        for l in range(k + 1, t.T + 1):
            for a in plan.atoms[l]:
                j = int(np.searchsorted(plan.atoms[l - 1], t.parent[l][a]))
                pi = x[plan.x_off[l - 1] + j * plan.nA:plan.x_off[l - 1] + (j + 1) * plan.nA]
                ref.append(float(np.dot(pi, m.gain(l)[a])))
        assert np.array_equal(plan.entering_wealth(x), np.array(ref))


def test_no_accepted_point_is_differentiated_twice(monkeypatch):
    sc = generate_scenario(1, "general", T=3, utility="power", habit="one_lag")
    seen = []
    original = _SubtreePlan.grad_hess_weights

    def spy(self, x):
        seen.append(np.array(x, copy=True))
        return original(self, x)

    monkeypatch.setattr(_SubtreePlan, "grad_hess_weights", spy)
    sol = solve_general(sc.market, sc.prefs, sc.eps)
    for i in range(len(seen)):
        for j in range(i):
            assert not np.array_equal(seen[i], seen[j])
    # one differentiation at the start and one per full step tried: 6 steps, 7
    # iterations, and the first full step falls in utility, so it is damped and
    # the point reached is differentiated apart from the rejected full step
    assert sol.diagnostics["iterations"] == 7
    assert len(seen) == sol.diagnostics["iterations"] + 1


@pytest.mark.parametrize("seed, T", [(36201, 7), (306502, 8)])
def test_newton_stops_once_the_decrement_is_below_the_rounding_of_the_utility(seed, T):
    # on both the gradient's rounding floor (~1e-8) lies above gtol: Newton used to
    # stall there for 300 iterations and raise NonConvergence
    sc = generate_scenario(seed, "complete", T=T, utility="power", habit="one_lag",
                           max_tries=1000)
    sol = solve_general(sc.market, sc.prefs, sc.eps)
    assert sol.diagnostics["stop"] == "decrement"
    assert sol.diagnostics["iterations"] <= 20
    foc = foc_residual(sc.market, sc.prefs, sol.c, spd_bundle(sc.market, sc.prefs.beta))
    assert max(float(np.max(np.abs(r))) for r in foc) <= 1e-8
    closed = solve_auto(sc.market, sc.prefs, sc.eps, method="closed")
    for k in range(T + 1):
        assert np.max(np.abs(sol.c.values(k) - closed.c.values(k))) <= 1e-9


def test_non_finite_curvature_is_a_non_convergence(monkeypatch):
    sc = generate_scenario(1, "general", T=3, utility="power", habit="one_lag")
    original = _SubtreePlan.grad_hess_weights

    def overflowing(self, x):
        gw, hw = original(self, x)
        return gw, np.where(np.arange(hw.size) == 0, np.inf, hw)

    monkeypatch.setattr(_SubtreePlan, "grad_hess_weights", overflowing)
    with pytest.raises(NonConvergence, match="not finite"):
        solve_general(sc.market, sc.prefs, sc.eps)


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


@pytest.mark.parametrize("z", [1e-13, 1e-17])
@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_closed_form_budget_root_near_zero(T, z):
    # an exponent q_i below one makes the gap's slope unbounded at zero, so a
    # stop within 1e-14 of a root below the first bracket end 1e-12 left gaps
    # of 2.9e-11 to 7.8e-11 (NonConvergence); within 1e-2 of the end they are
    # at most 1.3e-15
    sc = generate_scenario(1, "complete", T, utility="power_hetero", habit="one_lag",
                           floors=False)
    form = _CompletePower(sc.market, sc.prefs, sc.eps)
    assert form.q.min() < 1.0
    e0 = float(np.dot(form.f0, np.power(z, form.q))) + form.h0 - form.later
    _, c0, resid = form.solve(e0)
    assert c0 == pytest.approx(z, rel=1e-4)
    assert abs(resid) <= 1e-12 * max(1.0, abs(e0 + form.later))


@pytest.mark.parametrize("utility", ["power", "power_hetero"])
def test_complete_power_tails_equal_the_written_out_recursions(utility):
    sc = generate_scenario(71, "complete", T=3, utility=utility, habit="two_lag", floors=True)
    t, p, T = sc.tree, sc.prefs, sc.tree.T
    _, coeffs = solve_complete_power(sc.market, p, sc.eps)
    M = spd_bundle(sc.market, p.beta).M
    theta_ext = coeffs.theta + np.eye(T + 1)

    def backward(x):
        """Reference: ``sum over l >= k of E[M_l x_l | k] / M_k``, skipping absent terms."""
        out, tail = [None] * (T + 1), RandomVariable(t, T, np.zeros(t.n_atoms(T)))
        for k in range(T, -1, -1):
            acc = condexp(tail, k).values if tail.level > k else tail.values
            if x[k] is not None:
                acc = acc + M[k].values * x[k]
            tail = RandomVariable(t, k, acc)
            out[k] = acc / M[k].values
        return out

    for i in range(T + 1):
        f_i = backward([coeffs.d.get((i, k)) for k in range(T + 1)])
        assert all(np.array_equal(coeffs.f[(i, k)], f_i[k]) for k in range(T + 1))
    hfull = [sum((theta_ext[k, i] * lift(RandomVariable(t, i, p.h[i]), k).values
                  for i in range(k + 1) if theta_ext[k, i] != 0.0), np.zeros(t.n_atoms(k)))
             for k in range(T + 1)]
    eps = [np.broadcast_to(np.asarray(e, float), (t.n_atoms(k),)) for k, e in enumerate(sc.eps)]
    for got, want in ((coeffs.floor_wealth, backward(hfull)), (coeffs.endow_wealth, backward(eps))):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


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


def test_repeated_solves_certify_the_deflator_once(complete_scene, market_lps,
                                                  market_certificates):
    sc = complete_scene
    first = solve_auto(sc.market, sc.prefs, sc.eps)
    for _ in range(2):
        again = solve_auto(sc.market, sc.prefs, sc.eps)
        assert np.array_equal(cvals(again, 0), cvals(first, 0))
    assert len(market_certificates) == 1
    assert len(market_lps) == 0


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


# ---------------------------------------------------------------------------
# the superhedging start against the max-margin LP it replaced
# ---------------------------------------------------------------------------

def _lp_margin(plan):
    """Reference: the former start LP without its holdings box.  It maximizes
    ``s <= 1e6`` subject to ``chat = J x + Lb >= s``; ``-inf`` where HiGHS
    finds no optimum."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    nx, nc = plan.n_x, plan.n_c
    J = _dense_plan(plan)["J"]
    rows, cols = np.nonzero(J)
    A_ub = coo_array((np.concatenate([-J[rows, cols], np.ones(nc)]),
                      (np.concatenate([rows, np.arange(nc)]),
                       np.concatenate([cols, np.full(nc, nx)]))), shape=(nc, nx + 1))
    cvec = np.zeros(nx + 1)
    cvec[-1] = -1.0
    res = linprog(cvec, A_ub=A_ub, b_ub=plan.Lb, bounds=[(None, None)] * nx + [(None, 1e6)],
                  method="highs")
    return float(res.x[-1]) if res.success else -np.inf


def _start_instances(shuffled_prefs):
    """Every family at T 1-4 with floors and one or two lags, and the pinned
    tree whose atoms are not in parent order, under a bond-only and a
    complete market."""
    out = [generate_scenario(seed, family, T=T, utility=utility, habit=habit, floors=True)
           for seed, (family, T) in enumerate([("complete", 1), ("complete", 4), ("general", 2),
                                               ("general", 3), ("bond_only", 3),
                                               ("idiosyncratic", 2), ("idiosyncratic", 3)], 51)
           for utility, habit in (("log", "one_lag"), ("power", "two_lag"))]
    t = shuffled_prefs.tree
    eps = [np.array([2.0])] + [np.linspace(0.1, 0.3, t.n_atoms(k)) for k in (1, 2, 3)]
    market = _priced_market(np.random.default_rng(5), t, [0.02] * t.T, 1)
    return out + [Scenario(t, m, shuffled_prefs, eps, None, {})
                  for m in (bond(t, 0.02), market)]


def test_superhedging_start_has_the_max_margin_of_the_lp(shuffled_prefs):
    # full plans and continuations after a history, at endowments scaled down
    # until no plan keeps adjusted consumption positive
    accepted = rejected = 0
    for sc in _start_instances(shuffled_prefs):
        T = sc.tree.T
        for scale in (1.0, 0.4, 0.1, 0.02):
            eps = [e * scale for e in sc.eps]
            plans = [_SubtreePlan(sc.market, sc.prefs, eps)]
            for k in range(1, T):
                plans.append(_SubtreePlan(sc.market, sc.prefs, eps, k0=k,
                                          node=sc.tree.n_atoms(k) - 1,
                                          history=[0.3 * scale] * k, w=0.2 * scale))
            for plan in plans:
                reference = _lp_margin(plan)
                if reference <= 0:
                    with pytest.raises(Infeasible):
                        _interior_start(plan)
                    rejected += 1
                    continue
                s = _Superhedge.of(plan).margin()
                assert s == pytest.approx(reference, rel=1e-7)
                chat = plan.chat(_interior_start(plan))
                leaves = plan.c_off[T]
                assert np.allclose(chat[:leaves], s, rtol=1e-9, atol=0)
                assert chat[leaves:].min() >= s * (1 - 1e-9)
                accepted += 1
    assert accepted > 100 and rejected > 20


def test_a_node_without_state_prices_names_itself(bin1):
    # the asset costs 1 and pays (2, 1.5) against a zero-rate bond: an arbitrage
    m = MarketModel(bin1, [0.0], [np.array([[1.0]])], [np.array([[2.0], [1.5]])])
    p = HabitPreferences.one_lag(bin1, LogUtility(), 0.5)
    with pytest.raises(ArbitrageDetected, match="level 0, atom 0"):
        solve_general(m, p, [np.array([1.0]), np.full(2, 0.1)])
