import numpy as np
import pytest

from habitopt import (
    CustomUtility,
    DomainViolation,
    ExponentialUtility,
    HabitPreferences,
    LevelMismatch,
    LogUtility,
    MarketModel,
    PowerUtility,
    build_tree,
    condexp,
    expect,
    foc_residual,
    generate_scenario,
    habit_adjusted_marginal,
    lift,
    perturbed_consumption,
    simplified_foc_residual,
    solve_general,
    spd_bundle,
    theta_table,
    utility_value,
)
from habitopt.preferences import _per_level
from habitopt.tree import RandomVariable

ONE_PERIOD = [[[0]], [[0]]]


@pytest.fixture
def det1():
    return build_tree(ONE_PERIOD, [1.0])


# ---------------------------------------------------------------------------
# utility families
# ---------------------------------------------------------------------------

def test_power_reduces_to_log_at_gamma_one():
    fam = PowerUtility(1.0, 0.0)
    x = np.array([0.5, 1.0, 2.0])
    assert np.allclose(fam.u(0, x), np.log(x), atol=1e-15)
    assert np.allclose(fam.du(0, x), 1 / x, atol=1e-15)


def test_log_is_power_gamma_one():
    assert np.allclose(LogUtility().u(0, np.array([2.0])), np.log(2.0))


def test_risk_neutral_rejected():
    with pytest.raises(ValueError):
        PowerUtility(0.0)


def test_power_per_period_gammas():
    fam = PowerUtility([2.0, 3.0], 0.0)
    assert fam.gamma_at(0) == 2.0
    assert fam.gamma_at(1) == 3.0
    x = np.array([2.0])
    assert fam.du(1, x) == pytest.approx(2.0 ** -3)


def test_impatience_discounts_each_period():
    fam = PowerUtility(2.0, rho=0.1)
    x = np.array([1.5])
    assert fam.u(1, x) == pytest.approx(np.exp(-0.1) * (1.5 ** -1) / (-1))
    assert fam.u(2, x) == pytest.approx(np.exp(-0.2) * (1.5 ** -1) / (-1))


def test_exponential_defined_on_negatives():
    fam = ExponentialUtility(1.0)
    assert not fam.inada
    assert np.isfinite(fam.u(0, np.array([-3.0]))[0])


def test_custom_family_dispatch():
    fam = CustomUtility(
        u=lambda k, x: -1.0 / x,
        du=lambda k, x: np.power(x, -2.0),
        d2u=lambda k, x: -2.0 * np.power(x, -3.0),
    )
    assert fam.du(0, np.array([2.0]))[0] == pytest.approx(0.25)
    with pytest.raises(NotImplementedError):
        fam.du_inv(0, np.array([1.0]))


@pytest.mark.parametrize("fam", [PowerUtility(2.5, rho=0.05), LogUtility(rho=0.05),
                                 PowerUtility([2.5, 1.0, 0.5], rho=0.05),
                                 ExponentialUtility(1.3, rho=0.05)],
                         ids=["power", "log", "power_hetero", "exp"])
def test_third_derivative_matches_a_central_difference_of_the_second(fam):
    x = np.array([-0.5, 0.3, 1.0, 2.7]) if fam.name == "exp" else np.array([0.3, 1.0, 2.7])
    h = 1e-5
    for k in range(3):
        fd = (fam.d2u(k, x + h) - fam.d2u(k, x - h)) / (2 * h)
        assert np.allclose(fam.d3u(k, x), fd, rtol=1e-7, atol=0)
    # the whole-plan evaluation is the per-level method, row by row
    levels = np.array([0, 0, 1, 2, 2, 2])
    xs = np.linspace(0.4, 2.0, levels.size)
    rows = _per_level(fam.d3u, levels)(xs)
    assert np.array_equal(rows, np.concatenate([fam.d3u(k, xs[levels == k]) for k in range(3)]))


def test_custom_third_derivative_differences_the_second():
    # under an Inada condition the step 6e-6 x keeps x - h in the domain down
    # to x = 1e-12; without one the step is 6e-6 max(1, |x|)
    cases = [(PowerUtility(g), np.logspace(-12, 6), True, 1e-9) for g in (0.5, 2.0, 3.0)]
    cases.append((ExponentialUtility(1.5), np.linspace(-20.0, 20.0, 401), False, 1e-8))
    for fam, x, inada, tol in cases:
        custom = CustomUtility(u=fam.u, du=fam.du, d2u=fam.d2u, inada=inada)
        got = custom.d3u(0, x)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got / fam.d3u(0, x) - 1.0)) <= tol, (fam.name, fam.gamma)


# ---------------------------------------------------------------------------
# perturbed consumption and utility values
# ---------------------------------------------------------------------------

def test_no_habit_chat_equals_c(det1):
    p = HabitPreferences(det1, LogUtility())
    pc = perturbed_consumption(p, [np.array([1.0]), np.array([2.0])])
    assert pc.feasible
    assert pc.chat.values(0)[0] == 1.0
    assert pc.chat.values(1)[0] == 2.0


def test_chat_hand_value(det1):
    p = HabitPreferences.one_lag(det1, LogUtility(), 1.0)
    pc = perturbed_consumption(p, [np.array([0.25]), np.array([0.75])])
    assert pc.chat.values(0)[0] == pytest.approx(0.25)
    assert pc.chat.values(1)[0] == pytest.approx(0.5)


def test_addiction_floor_boundary(det1):
    b = 0.6
    p = HabitPreferences.one_lag(det1, LogUtility(), b)
    pc = perturbed_consumption(p, [np.array([1.0]), np.array([b])])
    assert pc.chat.values(1)[0] == 0.0
    assert not pc.feasible
    assert pc.violations == ((1, 0),)


def test_log_utility_of_ones_is_zero(det1):
    p = HabitPreferences(det1, LogUtility())
    assert utility_value(p, [np.ones(1), np.ones(1)]) == 0.0


def test_exponential_utility_hand_value(det1):
    p = HabitPreferences(det1, ExponentialUtility(1.0))
    assert utility_value(p, [np.zeros(1), np.zeros(1)]) == pytest.approx(-2.0)


def test_power_utility_hand_value(det1):
    p = HabitPreferences(det1, PowerUtility(2.0, 0.0))
    assert utility_value(p, [np.ones(1), np.full(1, 2.0)]) == pytest.approx(-1.5)


def test_domain_violation_raises_with_location(det1):
    p = HabitPreferences.one_lag(det1, LogUtility(), 1.0)
    with pytest.raises(DomainViolation) as exc:
        utility_value(p, [np.ones(1), np.full(1, 0.5)])
    assert exc.value.period == 1
    assert utility_value(p, [np.ones(1), np.full(1, 0.5)], on_violation="-inf") == -np.inf


def test_utility_concave_along_segments():
    t = build_tree([[[0, 1]], [[0], [1]]], [0.3, 0.7])
    p = HabitPreferences.one_lag(t, PowerUtility(2.0, 0.05), 0.4)
    rng = np.random.default_rng(5)
    for _ in range(25):
        c1 = [rng.uniform(1.0, 2.0, 1), rng.uniform(1.5, 3.0, 2)]
        c2 = [rng.uniform(1.0, 2.0, 1), rng.uniform(1.5, 3.0, 2)]
        mid = [(a + b) / 2 for a, b in zip(c1, c2)]
        lhs = utility_value(p, mid)
        rhs = 0.5 * (utility_value(p, c1) + utility_value(p, c2))
        assert lhs >= rhs - 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# habit-adjusted marginal utility
# ---------------------------------------------------------------------------

def test_marginal_no_habit_is_plain_derivative(det1):
    p = HabitPreferences(det1, PowerUtility(2.0))
    R = habit_adjusted_marginal(p, [np.full(1, 2.0), np.full(1, 3.0)])
    assert R.values(0)[0] == pytest.approx(2.0 ** -2)
    assert R.values(1)[0] == pytest.approx(3.0 ** -2)


def test_marginal_hand_value(det1):
    # log family, one lag b, c = (1, 1+b): chat = (1, 1), so u' = 1 at both
    # levels and the habit drag leaves R_0 = 1 - b
    b = 0.35
    p = HabitPreferences.one_lag(det1, LogUtility(), b)
    R = habit_adjusted_marginal(p, [np.ones(1), np.full(1, 1.0 + b)])
    assert R.values(0)[0] == pytest.approx(1.0 - b, abs=1e-14)
    assert R.values(1)[0] == pytest.approx(1.0, abs=1e-14)


def test_terminal_marginal_positive_under_inada(det1):
    p = HabitPreferences.one_lag(det1, LogUtility(), 0.9)
    R = habit_adjusted_marginal(p, [np.ones(1), np.full(1, 2.0)])
    assert R.values(1)[0] > 0


# ---------------------------------------------------------------------------
# habit chain weights
# ---------------------------------------------------------------------------

def test_theta_single_lag_powers():
    T = 3
    b = 0.5
    beta = np.zeros((T + 1, T + 1))
    for k in range(1, T + 1):
        beta[k, k - 1] = b
    theta = theta_table(beta)
    # chains along consecutive lags multiply: theta[l, k] = b^(l-k)
    for l in range(T + 1):
        for k in range(l):
            assert theta[l, k] == pytest.approx(b ** (l - k))


def test_theta_two_lag_accumulates():
    beta = np.zeros((3, 3))
    beta[1, 0] = 0.3
    beta[2, 1] = 0.3
    beta[2, 0] = 0.2
    theta = theta_table(beta)
    # direct two-step link plus the chained one-step links
    assert theta[2, 0] == pytest.approx(0.2 + 0.3 * 0.3)


def test_theta_reconciles_with_perturbed_deflator():
    """The chain table must rebuild Mtilde_0 = 1 + sum theta[j,0] E[M_j]."""
    sc = generate_scenario(21, "bond_only", habit="two_lag")
    spd = spd_bundle(sc.market, sc.prefs.beta)
    theta = theta_table(sc.prefs.beta)
    total = 1.0
    for j in range(1, sc.tree.T + 1):
        total += theta[j, 0] * expect(spd.M[j])
    assert spd.Mtilde[0].values[0] == pytest.approx(total, abs=1e-12)


# ---------------------------------------------------------------------------
# first-order residuals
# ---------------------------------------------------------------------------

@pytest.fixture
def solved_instance():
    sc = generate_scenario(22, "bond_only", utility="power", habit="one_lag")
    sol = solve_general(sc.market, sc.prefs, sc.eps, gtol=1e-12)
    spd = spd_bundle(sc.market, sc.prefs.beta)
    return sc, sol, spd


def test_foc_vanishes_at_optimum(solved_instance):
    sc, sol, spd = solved_instance
    res = foc_residual(sc.market, sc.prefs, sol.c, spd)
    assert max(float(np.max(np.abs(r))) for r in res) < 1e-8


def test_foc_detects_perturbation(solved_instance):
    sc, sol, spd = solved_instance
    c = [sol.c.values(k).copy() for k in range(sc.tree.T + 1)]
    c[-1][0] += 0.1
    res = foc_residual(sc.market, sc.prefs, c, spd)
    assert max(float(np.max(np.abs(r))) for r in res) > 1e-4


def test_simplified_foc_vanishes_with_full(solved_instance):
    sc, sol, spd = solved_instance
    res = simplified_foc_residual(sc.market, sc.prefs, sol.c, spd)
    assert max(float(np.max(np.abs(r))) for r in res) < 1e-8


def test_simplified_foc_co_signals(solved_instance):
    sc, sol, spd = solved_instance
    c = [sol.c.values(k).copy() for k in range(sc.tree.T + 1)]
    c[-1] = c[-1] * 1.05
    simp = simplified_foc_residual(sc.market, sc.prefs, c, spd)
    assert max(float(np.max(np.abs(r))) for r in simp) > 1e-4


def test_no_habit_euler_equation():
    """Without habits the full residual is the classical Euler gap, which a
    complete-market log optimum satisfies exactly."""
    t = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    m = MarketModel(t, [0.0], [np.array([[1.0]])], [np.array([[2.0], [0.5]])])
    p = HabitPreferences(t, LogUtility())
    eps = [np.ones(1), np.zeros(2)]
    sol = solve_general(m, p, eps, gtol=1e-13)
    spd = spd_bundle(m, p.beta)
    res = foc_residual(m, p, sol.c, spd)
    assert float(np.max(np.abs(res[0]))) < 1e-10


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_preferences_json_round_trip():
    t = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    p = HabitPreferences.one_lag(t, PowerUtility([2.0, 3.0], rho=0.05), 0.4,
                                 h=[np.zeros(1), np.full(2, 0.01)])
    q = HabitPreferences.from_json(t, p.to_json())
    assert np.array_equal(q.beta, p.beta)
    assert np.array_equal(q.family.gamma, p.family.gamma)
    assert q.family.rho == p.family.rho
    assert all(np.array_equal(a, b) for a, b in zip(q.h, p.h))


def test_custom_family_not_serializable(det1):
    fam = CustomUtility(
        u=lambda k, x: np.log(x),
        du=lambda k, x: 1 / x,
        d2u=lambda k, x: -np.power(x, -2.0),
    )
    p = HabitPreferences(det1, fam)
    with pytest.raises(ValueError):
        p.to_json()


@pytest.mark.parametrize("h", [[np.zeros(1)], [np.zeros(1), np.zeros(2), np.zeros(2)]])
def test_floors_must_list_every_level(h):
    t = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    with pytest.raises(LevelMismatch, match="2 levels of floors"):
        HabitPreferences(t, LogUtility(), h=h)


def test_per_level_risk_aversion_must_list_every_level():
    t = build_tree([[[0]], [[0]], [[0]], [[0]]], [1.0])
    with pytest.raises(LevelMismatch, match="4 levels of risk aversion, got 2"):
        HabitPreferences(t, PowerUtility([2.0, 3.0]))
    obj = HabitPreferences(t, PowerUtility(2.0, T=3)).to_json()
    obj["gamma"] = [2.0, 3.0]
    with pytest.raises(LevelMismatch):
        HabitPreferences.from_json(t, obj)
    assert HabitPreferences(t, PowerUtility([2.0, 3.0, 1.0, 0.5])).family.gamma.size == 4


# ---------------------------------------------------------------------------
# habit map against the per-lag loops it replaced
# ---------------------------------------------------------------------------

def test_habit_map_equals_the_per_lag_loops(shuffled_prefs):
    p = shuffled_prefs
    t = p.tree
    c = [np.full(1, 2.0)] + [np.random.default_rng(k).uniform(2.0, 3.0, t.n_atoms(k))
                             for k in (1, 2, 3)]
    chat = []
    for k in range(t.T + 1):
        vals = c[k].copy()
        for l in range(k):
            if p.beta[k, l] != 0.0:
                vals -= p.beta[k, l] * lift(RandomVariable(t, l, c[l]), k).values
        chat.append(vals - p.h[k])
    du = [p.family.du(k, chat[k]) for k in range(t.T + 1)]
    R = []
    for k in range(t.T + 1):
        vals = du[k].copy()
        for mm in range(k + 1, t.T + 1):
            if p.beta[mm, k] != 0.0:
                vals -= p.beta[mm, k] * condexp(RandomVariable(t, mm, du[mm]), k).values
        R.append(vals)
    pc = perturbed_consumption(p, c)
    marginal = habit_adjusted_marginal(p, c)
    for k in range(t.T + 1):
        assert np.array_equal(pc.chat.values(k), chat[k])
        assert np.array_equal(marginal.values(k), R[k])


# ---------------------------------------------------------------------------
# malformed inputs
# ---------------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize("make, message", ids=[
    "power_gamma", "power_gamma_level", "power_rho", "log_rho", "exp_gamma", "exp_rho",
    "beta", "floor"], argvalues=[
    (lambda t: PowerUtility(NAN), "relative risk aversion must be finite"),
    (lambda t: PowerUtility([2.0, NAN, 2.0]), "relative risk aversion must be finite"),
    (lambda t: PowerUtility(2.0, rho=float("inf")), "discount rate rho must be finite"),
    (lambda t: LogUtility(rho=NAN), "discount rate rho must be finite"),
    (lambda t: ExponentialUtility(NAN), "absolute risk aversion must be finite"),
    (lambda t: ExponentialUtility(1.0, rho=NAN), "discount rate rho must be finite"),
    (lambda t: HabitPreferences(t, LogUtility(), beta=[[0, 0, 0], [NAN, 0, 0], [0, 0.5, 0]]),
     "habit weights beta must be finite"),
    (lambda t: HabitPreferences(t, LogUtility(), h=[0.0, [0.1, NAN], 0.0]),
     "floor at level 1 must be finite"),
])
def test_non_finite_preferences_are_rejected_by_field(make, message):
    t = build_tree([[[0, 1]], [[0], [1]], [[0], [1]]], [0.5, 0.5])
    with pytest.raises(ValueError, match=message):
        make(t)


def test_floor_level_of_the_wrong_length_names_its_level():
    t = build_tree([[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]], [0.2, 0.3, 0.5])
    with pytest.raises(LevelMismatch, match="floor at level 2 has 2 values for 3 atoms"):
        HabitPreferences(t, LogUtility(), h=[0.0, 0.0, [0.1, 0.1]])


def test_non_finite_or_mis_sized_endowments_never_reach_a_solver(solver_lps):
    sc = generate_scenario(21, "general", T=2, utility="power", habit="one_lag")
    nan_eps = [e.copy() for e in sc.eps]
    nan_eps[2][1] = NAN
    short_eps = [e.copy() for e in sc.eps]
    short_eps[2] = short_eps[2][:-1]
    solver_lps.clear()            # the generator's own admissibility LP
    with pytest.raises(ValueError, match="endowment at level 2 must be finite"):
        solve_general(sc.market, sc.prefs, nan_eps)
    with pytest.raises(LevelMismatch, match="endowment at level 2 has 8 values for 9 atoms"):
        solve_general(sc.market, sc.prefs, short_eps)
    assert solver_lps == []
    # scalars still broadcast over a level
    assert utility_value(sc.prefs, [sc.eps[0], 2.0, 4.0]) == \
        utility_value(sc.prefs, [sc.eps[0], np.full(3, 2.0), np.full(9, 4.0)])
    with pytest.raises(ValueError, match="consumption at level 1 must be finite"):
        utility_value(sc.prefs, [sc.eps[0], NAN, 4.0])
