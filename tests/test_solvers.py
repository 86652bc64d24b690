import numpy as np
import pytest

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
from habitopt.analysis import _base_holdings
from habitopt.solvers import (
    _continuation_response,
    _replicate_portfolio,
    _SubtreePlan,
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
                for name, value in ref.items():
                    got = getattr(plan, name)
                    assert got.shape == value.shape and got.dtype == value.dtype, name
                    assert np.array_equal(got, value), (name, k0, node)


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
                J = plan.L @ plan.A
                J_abs = np.abs(plan.L) @ np.abs(plan.A)
                assert np.all(np.abs(plan.J - J) <= 2 * nc * eps * J_abs)
                hw = rng.uniform(0.1, 10.0, nc)
                H = (J.T * hw) @ J
                assert np.all(np.abs(plan.hessian(hw) - H)
                              <= 8 * nc * eps * ((J_abs.T * hw) @ J_abs))
                assert np.array_equal(plan.hessian(hw), plan.hessian(hw).T)


def test_continuation_response_at_the_root():
    # the root has no history entry to differentiate in, so dc/dhistory[-1] is 0
    sc = generate_scenario(1, "general", T=3, utility="power", habit="one_lag")
    base = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    w = float(sc.eps[0][0])
    c, dc_dw, dc_dh, d2c = _continuation_response(sc.market, sc.prefs, sc.eps, 0, 0, (), w,
                                                  1e-12, x0=_base_holdings(base, 0, 0))
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
    for plan in (root, root.at(float(sc.eps[0][0]) + 0.1, ()),
                 cont, cont.at(w + 0.05, [hist[0] - 0.01])):
        x = _base_holdings(base, plan.k0, plan.node)
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
        x = _base_holdings(base, k, node)
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
    # one differentiation at the start and one per step: 10 steps, 11 iterations
    assert sol.diagnostics["iterations"] == 11
    assert len(seen) == 11


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
